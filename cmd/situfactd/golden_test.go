package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from this run")

// goldenClocks are the /v1/metrics fields that measure wall time; the golden
// transcript holds them at 0.
var goldenClocks = regexp.MustCompile(`"(uptime_seconds|seconds_since_last|last_ms|last_hold_ms|oldest_age_seconds)":[-+0-9.eE]+`)

// TestWireGolden pins the exact bytes of the daemon's JSON API over one fixed
// gamelog history: single and batch acks at several tops, a /v1/facts page
// holding a ⊤ fact and bound facts, the leaderboard, live and deleted tuple
// reads, the schema, the error bodies (400, 404, 409, and 413 with the
// overflow inside the value and after it) and /v1/metrics with its clocks
// zeroed. Every request is sequential and every batch puts at most one row on
// a shard, so drained-batch sizes and cache counters are functions of the
// history. `go test ./cmd/situfactd -run TestWireGolden -update` rewrites
// testdata/wire.golden; any other change to it is a change to the wire.
func TestWireGolden(t *testing.T) {
	cfg := flagConfig("-relation", "gamelog",
		"-dims", "player,month,season,team,opp_team", "-measures", "points,assists,rebounds",
		"-shards", "2", "-shard-dim", "team", "-state-dir", t.TempDir(),
		"-read-cache-ttl", "1h", "-max-body-bytes", "512", "-max-batch-body-bytes", "1024")
	s, ts := startServer(t, cfg)
	defer s.close()

	rows := []string{
		`{"dims":["Bogues","Feb","1991-92","Hornets","Hawks"],"measures":[4,12,5]}`,
		`{"dims":["Seikaly","Feb","1991-92","Heat","Hawks"],"measures":[24,5,15]}`,
		`{"dims":["Sherman","Dec","1993-94","Celtics","Nets"],"measures":[13,13,5]}`,
		`{"dims":["Wesley","Feb","1994-95","Celtics","Nets"],"measures":[2,5,2]}`,
		`{"dims":["Wesley","Feb","1994-95","Celtics","Timberwolves"],"measures":[30,5,3]}`,
		`{"dims":["Strickland","Jan","1995-96","Pacers","Celtics"],"measures":[27,18,8]}`,
	}
	// Each batch below must put at most one row on a shard: a shard's rows
	// of one batch are separate queue entries, and how many of them one
	// drain takes is timing.
	pool := s.db()
	for _, pair := range [][2]string{{"Hornets", "Heat"}, {"Celtics", "Pacers"}} {
		if pool.ShardFor(pair[0]) == pool.ShardFor(pair[1]) {
			t.Fatalf("%s and %s share a shard: the batches below would drain by timing", pair[0], pair[1])
		}
	}

	var out bytes.Buffer
	fetch := func(method, path, body string) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), got
	}
	do := func(method, path, body string) {
		t.Helper()
		status, ctype, got := fetch(method, path, body)
		if path == "/v1/metrics" {
			got = goldenClocks.ReplaceAll(got, []byte(`"$1":0`))
		}
		fmt.Fprintf(&out, "### %s %s (%d request bytes)\n%d %s\n%s", method, path, len(body), status, ctype, got)
	}

	do("POST", "/v1/tuples:batch", `{"rows":[`+rows[0]+`,`+rows[1]+`],"top":1}`)
	do("POST", "/v1/tuples:batch", `{"rows":[`+rows[2]+`,`+rows[5]+`]}`)
	do("POST", "/v1/tuples", strings.TrimSuffix(rows[3], "}")+`,"top":1}`)
	do("POST", "/v1/tuples", strings.TrimSuffix(rows[4], "}")+`,"top":1}`)
	do("POST", "/v1/tuples", `{"dims":["Wesley","Feb","1995-96","Celtics","Nets"],"measures":[12,13,5],`+
		`"top":2,"narrate":{"subject":"David Wesley"}}`)

	do("GET", "/v1/facts?measures=points&limit=3", "")
	do("GET", "/v1/facts?measures=points&limit=3", "") // a cache hit: same bytes
	// ⊤ binds nothing, so its key sorts last: the page after the first 30 of
	// the 32 {points} facts holding tuple 1:1 is opp_team=Celtics, then ⊤.
	_, _, first := fetch("GET", "/v1/facts?tuple=1:1&measures=points&limit=30", "")
	cursor := regexp.MustCompile(`"next_cursor":"([^"]+)"`).FindSubmatch(first)
	if cursor == nil {
		t.Fatalf("no next_cursor on the first page: %s", first)
	}
	do("GET", "/v1/facts?tuple=1:1&measures=points&limit=30&cursor="+string(cursor[1]), "")
	do("GET", "/v1/facts/top?k=3", "")
	do("DELETE", "/v1/tuples/1:0", "")
	do("GET", "/v1/tuples/0:0", "")
	do("GET", "/v1/tuples/1:0", "")
	do("GET", "/v1/schema", "")
	do("GET", "/healthz", "")

	do("POST", "/v1/tuples", strings.TrimSuffix(rows[0], "}")+`,"top":-1}`)
	do("POST", "/v1/tuples", rows[0]+"}")
	do("GET", "/v1/tuples/0:999", "")
	do("DELETE", "/v1/tuples/1:0", "")

	pad := strings.Repeat("x", 2048)
	do("POST", "/v1/tuples", `{"dims":["`+pad+`","Feb","1991-92","Hornets","Hawks"],"measures":[4,12,5]}`)
	do("POST", "/v1/tuples", rows[0]+strings.Repeat(" ", 2048))
	do("POST", "/v1/tuples:batch", `{"rows":[{"dims":["`+pad+`","Feb","1991-92","Hornets","Hawks"],"measures":[4,12,5]}]}`)
	do("POST", "/v1/tuples:batch", `{"rows":[`+rows[0]+`]}`+strings.Repeat(" ", 2048))

	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	do("GET", "/v1/metrics", "")

	path := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d differs:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
