package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	situfact "repro"
)

// waitApplied blocks until the follower reports applied_lsn >= want with
// zero lag, or fails the test after 30s.
func waitApplied(t *testing.T, url string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		m, err := tryMetrics(url)
		if err == nil && m.Replication != nil &&
			m.Replication.AppliedLSN >= want && m.Replication.LagRecords == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	m, _ := tryMetrics(url)
	t.Fatalf("follower never applied LSN %d: replication state %+v", want, m.Replication)
}

// healed reports whether the daemon at url heals its log within 10s: not
// degraded, and more than repairs repairs since it started.
func healed(url string, repairs uint64) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m, err := tryMetrics(url); err == nil && !m.WAL.Degraded && m.WAL.Repairs > repairs {
			return true
		}
	}
	return false
}

// getBody GETs a URL and returns the status code and the raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

// postStatus is post for the test goroutine: a transport error fails
// the test.
func postStatus(t *testing.T, url string, r situfact.Row) (int, string) {
	t.Helper()
	status, retry, err := post(url, r)
	if err != nil {
		t.Fatalf("POST /v1/tuples: %v", err)
	}
	return status, retry
}

func healthStatus(t *testing.T, url string) (int, healthResponse) {
	t.Helper()
	status, body := getBody(t, url+"/healthz")
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decode /healthz %s: %v", body, err)
	}
	return status, h
}

// factsPages drains the /v1/facts pagination for one query, returning
// every page's raw body. Cursors come out of the previous page, so two
// stores returning byte-identical pages walk identical cursor chains.
func factsPages(t *testing.T, base, query string, limit int) [][]byte {
	t.Helper()
	cursor := ""
	var pages [][]byte
	for {
		url := fmt.Sprintf("%s/v1/facts?%s&limit=%d", base, query, limit)
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		status, body := getBody(t, url)
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, status, body)
		}
		pages = append(pages, body)
		var page factsResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
		if page.NextCursor == "" {
			return pages
		}
		cursor = page.NextCursor
		if len(pages) > 10000 {
			t.Fatalf("query %q: runaway pagination", query)
		}
	}
}

// assertSameReads is the divergence detector: for a set of queries, every
// /v1/facts page, the leaderboard, and a tuple lookup must be
// byte-identical between the two daemons.
func assertSameReads(t *testing.T, leaderURL, followerURL string, queries []string) {
	t.Helper()
	for _, q := range queries {
		lp := factsPages(t, leaderURL, q, 3)
		fp := factsPages(t, followerURL, q, 3)
		if len(lp) != len(fp) {
			t.Fatalf("query %q: leader returned %d pages, follower %d", q, len(lp), len(fp))
		}
		for i := range lp {
			if !bytes.Equal(lp[i], fp[i]) {
				t.Errorf("query %q page %d diverged:\nleader   %s\nfollower %s", q, i, lp[i], fp[i])
			}
		}
	}
	_, ltop := getBody(t, leaderURL+"/v1/facts/top?k=16")
	_, ftop := getBody(t, followerURL+"/v1/facts/top?k=16")
	if !bytes.Equal(ltop, ftop) {
		t.Errorf("leaderboard diverged:\nleader   %s\nfollower %s", ltop, ftop)
	}
	ls, lb := getBody(t, leaderURL+"/v1/tuples/0:0")
	fs, fb := getBody(t, followerURL+"/v1/tuples/0:0")
	if ls != fs || !bytes.Equal(lb, fb) {
		t.Errorf("tuple lookup diverged: leader %d %s, follower %d %s", ls, lb, fs, fb)
	}
}

var gamelogQueries = []string{
	"",
	"shard=1",
	"where=month=Feb",
	"where=month=Feb&measures=assists",
	"where=player=Wesley&where=season=1995-96",
}

// TestFollowerEpochMismatch replaces the leader behind a fixed URL with a
// different instance (fresh state dir = fresh WAL epoch). The follower
// must refuse to serve — 503 with the reason — rather than silently mix
// two histories, and must stop applying records.
func TestFollowerEpochMismatch(t *testing.T) {
	var inner atomic.Value // holds the current leader's http.Handler
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(stub.Close)

	cfgA := gamelogConfig(1, t.TempDir())
	cfgA.wal = true
	a, _ := startServer(t, cfgA)
	inner.Store(a.handler())
	for _, row := range table1[:2] {
		if resp := doJSON(t, "POST", stub.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("leader A rejected row: status %d", resp.StatusCode)
		}
	}

	fcfg := gamelogConfig(1, t.TempDir())
	fcfg.follow = stub.URL
	fcfg.followPoll = 20 * time.Millisecond
	fcfg.followRebootstrapMax = 0 // park on the fatal error
	_, fts := startServer(t, fcfg)
	waitApplied(t, fts.URL, 2)

	// Swap in leader B: same URL, different WAL epoch, different history.
	cfgB := gamelogConfig(1, t.TempDir())
	cfgB.wal = true
	b, bts := startServer(t, cfgB)
	for _, row := range table1[2:5] {
		if resp := doJSON(t, "POST", bts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("leader B rejected row: status %d", resp.StatusCode)
		}
	}
	inner.Store(b.handler())

	var health healthResponse
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body := getBody(t, fts.URL+"/healthz")
		if status == http.StatusServiceUnavailable {
			if err := json.Unmarshal(body, &health); err != nil {
				t.Fatalf("decode /healthz body %s: %v", body, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stayed healthy after the leader changed epochs (last /healthz: %d %s)", status, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(health.Reason, "epoch") {
		t.Errorf("/healthz reason %q does not name the epoch mismatch", health.Reason)
	}
	m := getMetrics(t, fts.URL)
	if m.Replication == nil || !strings.Contains(m.Replication.Fatal, "epoch") {
		t.Errorf("replication metrics missing fatal epoch error: %+v", m.Replication)
	}
	if m.Replication.AppliedLSN != 2 {
		t.Errorf("follower applied LSN advanced to %d after epoch mismatch, want 2", m.Replication.AppliedLSN)
	}
}

// TestRebootstrapAfterEpochSwap replaces the leader behind a fixed URL
// with a different instance, exactly like TestFollowerEpochMismatch —
// but this follower runs with a re-bootstrap budget, so instead of
// staying down it must re-download the new leader's snapshot, swap its
// pool under live readers, and converge on the new history.
func TestRebootstrapAfterEpochSwap(t *testing.T) {
	var inner atomic.Value
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(stub.Close)

	cfgA := gamelogConfig(2, t.TempDir())
	cfgA.wal = true
	a, _ := startServer(t, cfgA)
	inner.Store(a.handler())
	for _, row := range table1[:2] {
		if st, _ := postStatus(t, stub.URL, row); st != http.StatusOK {
			t.Fatalf("leader A rejected row: status %d", st)
		}
	}

	fcfg := gamelogConfig(2, t.TempDir())
	fcfg.follow = stub.URL
	fcfg.followPoll = 20 * time.Millisecond
	fcfg.followRebootstrapMax = 3
	_, fts := startServer(t, fcfg)
	waitApplied(t, fts.URL, 2)

	// Swap in leader B: same URL, different WAL epoch, different history.
	cfgB := gamelogConfig(2, t.TempDir())
	cfgB.wal = true
	b, bts := startServer(t, cfgB)
	for _, row := range table1[2:5] {
		if st, _ := postStatus(t, bts.URL, row); st != http.StatusOK {
			t.Fatalf("leader B rejected row: status %d", st)
		}
	}
	inner.Store(b.handler())

	// The follower must detect the epoch change and self-heal: one
	// re-bootstrap, then convergence on B's three rows.
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := tryMetrics(fts.URL)
		if err == nil && m.Replication != nil && m.Replication.Rebootstraps >= 1 &&
			m.Replication.Fatal == "" && m.Replication.AppliedLSN >= 3 && m.Replication.LagRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-bootstrapped: replication state %+v", m.Replication)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status, h := healthStatus(t, fts.URL); status != http.StatusOK {
		t.Fatalf("re-bootstrapped follower /healthz = %d %+v, want 200", status, h)
	}
	assertSameReads(t, bts.URL, fts.URL, gamelogQueries)

	// More writes on B keep replicating through the swapped pool.
	if st, _ := postStatus(t, bts.URL, table1[5]); st != http.StatusOK {
		t.Fatal("leader B rejected the post-swap row")
	}
	waitApplied(t, fts.URL, 4)
	assertSameReads(t, bts.URL, fts.URL, gamelogQueries)
}

// TestFollowerMaxLagHealth: a follower that knows its leader is more than
// -follow-max-lag records ahead answers /healthz 503 naming the bound, and
// 200 again once it has caught up. A stub in front of the leader withholds
// the tail's records, not its head LSN, until it lets them through. The
// follower's read cache holds a leaderboard through the lag, and the tail
// batch that ends it clears the cache: the next read is the leader's bytes.
func TestFollowerMaxLagHealth(t *testing.T) {
	cfg := gamelogConfig(2, t.TempDir())
	cfg.wal = true
	leader, lts := startServer(t, cfg)
	leaderAPI := leader.handler()
	var withhold atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/wal" || !withhold.Load() {
			leaderAPI.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		leaderAPI.ServeHTTP(rec, r)
		var tail walTailResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &tail); err != nil {
			t.Error(err)
		}
		tail.Records, tail.More = nil, false
		writeJSON(w, rec.Code, tail)
	}))
	t.Cleanup(stub.Close)
	if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(table1[0]), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader: status %d", resp.StatusCode)
	}
	fcfg := gamelogConfig(2, t.TempDir())
	fcfg.follow = stub.URL
	fcfg.followPoll = 20 * time.Millisecond
	fcfg.followMaxLag = 2
	fcfg.readCacheTTL = time.Hour
	_, fts := startServer(t, fcfg)
	waitApplied(t, fts.URL, 1)
	if status, h := healthStatus(t, fts.URL); status != http.StatusOK {
		t.Fatalf("caught-up follower /healthz = %d %+v", status, h)
	}
	const top = "/v1/facts/top?k=5"
	_, stale := getBody(t, fts.URL+top) // cached from here on

	withhold.Store(true)
	for i, row := range table1[1:5] {
		if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("leader: row %d: status %d", i+1, resp.StatusCode)
		}
	}
	const reason = "replication lag 4 records exceeds -follow-max-lag 2"
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		status, h := healthStatus(t, fts.URL)
		if status == http.StatusServiceUnavailable && h.Status == "unavailable" && h.Reason == reason {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a follower 4 records behind with -follow-max-lag 2: /healthz %d %+v, want 503 %q", status, h, reason)
		}
	}

	if _, got := getBody(t, fts.URL+top); !bytes.Equal(got, stale) {
		t.Errorf("the cached leaderboard changed while no record was applied:\n got %s\nwant %s", got, stale)
	}

	withhold.Store(false)
	waitApplied(t, fts.URL, 5)
	if status, h := healthStatus(t, fts.URL); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("follower caught up again: /healthz %d %+v, want 200 ok", status, h)
	}
	_, want := getBody(t, lts.URL+top)
	if _, got := getBody(t, fts.URL+top); bytes.Equal(got, stale) || !bytes.Equal(got, want) {
		t.Errorf("follower leaderboard after the tail batch:\n got %s\nwant the leader's %s", got, want)
	}
}

// TestServerWALTailPage pins one GET /v1/wal page byte for byte: each
// record is a situfact.TailRecord in its JSON form — an append with its
// row, a delete with its tuple — and the append whose write was torn, which
// the daemon applied though it answered 503, is there under its own LSN
// once the repair loop has written it again.
func TestServerWALTailPage(t *testing.T) {
	cfg := walConfig(1, t.TempDir())
	cfg.faultPlan = "fsync:from=999999" // inert; a torn write is armed below
	s, ts := startServer(t, cfg)
	defer s.close()
	for i, row := range table1[:2] {
		if st, _ := postStatus(t, ts.URL, row); st != http.StatusOK {
			t.Fatalf("row %d: status %d", i, st)
		}
	}
	if err := s.faults.Program("write:short-at=1"); err != nil {
		t.Fatal(err)
	}
	if st, _ := postStatus(t, ts.URL, table1[2]); st != http.StatusServiceUnavailable {
		t.Fatalf("row torn on its way to the log: status %d, want 503", st)
	}
	s.faults.Clear()
	if !healed(ts.URL, 0) {
		t.Fatal("the repair loop never healed the torn log")
	}
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/tuples/0:1", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE 0:1: status %d", resp.StatusCode)
	}
	want := `{"epoch":"` + s.wal.Epoch() + `","last_lsn":4,"records":[` +
		`{"lsn":1,"op":"append","shard":0,"dims":["Bogues","Feb","1991-92","Hornets","Hawks"],"measures":[4,12,5]},` +
		`{"lsn":2,"op":"append","shard":0,"dims":["Seikaly","Feb","1991-92","Heat","Hawks"],"measures":[24,5,15]},` +
		`{"lsn":3,"op":"append","shard":0,"dims":["Sherman","Dec","1993-94","Celtics","Nets"],"measures":[13,13,5]},` +
		`{"lsn":4,"op":"delete","shard":0,"tuple_id":1}],"more":false}` + "\n"
	if status, got := getBody(t, ts.URL+"/v1/wal?from_lsn=1"); status != http.StatusOK || string(got) != want {
		t.Errorf("GET /v1/wal: %d\n got %s\nwant %s", status, got, want)
	}
}
