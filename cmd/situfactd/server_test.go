package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	situfact "repro"
	"repro/internal/persist"
)

// table1 is the paper's Table I mini-world, identical to the root
// package's example_test.go: after the first six rows, David Wesley's
// 12/13/5 game must yield 195 facts, topped by
// "month=Feb | {assists} (prominence 5 = 5/1)".
var table1 = []situfact.Row{
	{Dims: []string{"Bogues", "Feb", "1991-92", "Hornets", "Hawks"}, Measures: []float64{4, 12, 5}},
	{Dims: []string{"Seikaly", "Feb", "1991-92", "Heat", "Hawks"}, Measures: []float64{24, 5, 15}},
	{Dims: []string{"Sherman", "Dec", "1993-94", "Celtics", "Nets"}, Measures: []float64{13, 13, 5}},
	{Dims: []string{"Wesley", "Feb", "1994-95", "Celtics", "Nets"}, Measures: []float64{2, 5, 2}},
	{Dims: []string{"Wesley", "Feb", "1994-95", "Celtics", "Timberwolves"}, Measures: []float64{3, 5, 3}},
	{Dims: []string{"Strickland", "Jan", "1995-96", "Blazers", "Celtics"}, Measures: []float64{27, 18, 8}},
}

var wesley = situfact.Row{
	Dims:     []string{"Wesley", "Feb", "1995-96", "Celtics", "Nets"},
	Measures: []float64{12, 13, 5},
}

func reqOf(r situfact.Row) tupleRequest { return tupleRequest{Row: r} }

func gamelogConfig(shards int, stateDir string) config {
	return flagConfig("-relation", "gamelog",
		"-dims", "player,month,season,team,opp_team", "-measures", "points,assists,rebounds",
		"-shards", strconv.Itoa(shards), "-shard-dim", "team", "-state-dir", stateDir)
}

// startServer builds the app and serves it on a random port.
func startServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	return resp
}

// TestServerTableI is the end-to-end acceptance test: stream the Table I
// mini-world over HTTP on a single shard (the whole relation is one
// substream, so the facts must match example_test.go exactly), shut down
// writing snapshots, restart, and observe identical state.
func TestServerTableI(t *testing.T) {
	stateDir := t.TempDir()
	s, ts := startServer(t, gamelogConfig(1, stateDir))

	for i, row := range table1 {
		var arr arrivalResponse
		if resp := doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), &arr); resp.StatusCode != 200 {
			t.Fatalf("row %d: status %d", i, resp.StatusCode)
		}
	}
	var arr arrivalResponse
	req := tupleRequest{
		Row: wesley,
		Top: 1, Narrate: &narrateRequest{Subject: "David Wesley"},
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/tuples", req, &arr); resp.StatusCode != 200 {
		t.Fatalf("wesley: status %d", resp.StatusCode)
	}
	if arr.FactCount != 195 {
		t.Errorf("fact_count = %d, want 195", arr.FactCount)
	}
	if len(arr.Facts) != 1 {
		t.Fatalf("got %d facts, want 1 (top=1)", len(arr.Facts))
	}
	const wantTop = "month=Feb | {assists} (prominence 5 = 5/1)"
	if arr.Facts[0].Text != wantTop {
		t.Errorf("top fact %q, want %q", arr.Facts[0].Text, wantTop)
	}
	if !strings.Contains(arr.Facts[0].Narration, "David Wesley") {
		t.Errorf("narration %q does not mention the subject", arr.Facts[0].Narration)
	}
	if arr.ID != "0:6" {
		t.Errorf("arrival id = %q, want 0:6", arr.ID)
	}

	var health healthResponse
	doJSON(t, "GET", ts.URL+"/healthz", nil, &health)
	if health.Status != "ok" || health.Tuples != 7 {
		t.Errorf("healthz = %+v, want ok/7", health)
	}
	var beforeStop metricsResponse
	doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &beforeStop)
	if beforeStop.Merged.Tuples != 7 || beforeStop.Len != 7 || len(beforeStop.PerShard) != 1 {
		t.Errorf("metrics before shutdown = %+v", beforeStop)
	}

	// SIGTERM-equivalent shutdown: stop accepting, drain, snapshot, close —
	// the same sequence serve() runs on a signal.
	ts.Close()
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the state directory: tuple count and metrics survive.
	s2, ts2 := startServer(t, gamelogConfig(1, stateDir))
	defer s2.close()
	if got := s2.db().Len(); got != 7 {
		t.Fatalf("restored Len = %d, want 7", got)
	}
	var restored metricsResponse
	doJSON(t, "GET", ts2.URL+"/v1/metrics", nil, &restored)
	if restored.Merged != beforeStop.Merged {
		t.Errorf("restored merged metrics = %+v, want %+v", restored.Merged, beforeStop.Merged)
	}
	if restored.Len != 7 {
		t.Errorf("restored len = %d, want 7", restored.Len)
	}

	// The restored stream continues: deleting the Wesley arrival works.
	req2, _ := http.NewRequest("DELETE", ts2.URL+"/v1/tuples/0:6", nil)
	resp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE after restore: status %d, want 204", resp.StatusCode)
	}
}

func TestServerBatchDeleteAndErrors(t *testing.T) {
	_, ts := startServer(t, gamelogConfig(3, ""))

	var batch batchResponse
	req := batchRequest{Rows: append(append([]situfact.Row{}, table1...), wesley), Top: 2}
	if resp := doJSON(t, "POST", ts.URL+"/v1/tuples:batch", req, &batch); resp.StatusCode != 200 {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(batch.Arrivals) != 7 {
		t.Fatalf("got %d arrivals, want 7", len(batch.Arrivals))
	}
	for i, arr := range batch.Arrivals {
		if want := fmt.Sprintf("%d:%d", arr.Shard, arr.TupleID); arr.ID != want {
			t.Errorf("arrival %d id = %q, want %q", i, arr.ID, want)
		}
		if len(arr.Facts) > 2 {
			t.Errorf("arrival %d returned %d facts, want ≤ 2 (top=2)", i, len(arr.Facts))
		}
	}

	// Rows of one team share a shard: the three Celtics home rows agree.
	if batch.Arrivals[2].Shard != batch.Arrivals[3].Shard ||
		batch.Arrivals[3].Shard != batch.Arrivals[4].Shard {
		t.Errorf("Celtics rows scattered: shards %d/%d/%d",
			batch.Arrivals[2].Shard, batch.Arrivals[3].Shard, batch.Arrivals[4].Shard)
	}

	var schema schemaResponse
	doJSON(t, "GET", ts.URL+"/v1/schema", nil, &schema)
	if schema.ShardDim != "team" || schema.Shards != 3 || len(schema.Dimensions) != 5 ||
		len(schema.Measures) != 3 || schema.Algorithm == "" {
		t.Errorf("schema = %+v", schema)
	}

	del := func(id string) int {
		r, _ := http.NewRequest("DELETE", ts.URL+"/v1/tuples/"+id, nil)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	target := batch.Arrivals[0].ID
	if got := del(target); got != http.StatusNoContent {
		t.Errorf("DELETE %s: status %d, want 204", target, got)
	}
	if got := del(target); got != http.StatusConflict {
		t.Errorf("double DELETE %s: status %d, want 409", target, got)
	}
	if got := del("9:0"); got != http.StatusNotFound {
		t.Errorf("DELETE unknown shard: status %d, want 404", got)
	}
	if got := del("0:999"); got != http.StatusNotFound {
		t.Errorf("DELETE unknown tuple: status %d, want 404", got)
	}
	if got := del("bogus"); got != http.StatusBadRequest {
		t.Errorf("DELETE malformed id: status %d, want 400", got)
	}
	// A bare id is ambiguous on a multi-shard pool — it must not silently
	// target shard 0.
	if got := del("1"); got != http.StatusBadRequest {
		t.Errorf("DELETE bare id on 3 shards: status %d, want 400", got)
	}

	// Malformed appends are rejected before touching the pool.
	if resp := doJSON(t, "POST", ts.URL+"/v1/tuples",
		reqOf(situfact.Row{Dims: []string{"only", "two"}, Measures: []float64{1, 2, 3}}), nil); resp.StatusCode != 400 {
		t.Errorf("short row: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/tuples:batch", batchRequest{}, nil); resp.StatusCode != 400 {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

// TestServerTopFacts pins GET /v1/facts/top: one shape (queryFactWire
// entries), best first, exactly the ranking an
// in-process pool fed the same history computes — a delete included — with
// k defaulted, clamped like /v1/facts' limit, validated, and nothing else
// read from the query string.
func TestServerTopFacts(t *testing.T) {
	cfg := gamelogConfig(2, "")
	cfg.readCacheTTL = time.Hour // fills are counted below; nothing expires mid-test
	s, ts := startServer(t, cfg)
	ref, err := situfact.NewPool(s.schema, situfact.PoolOptions{Shards: 2, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, row := range append(append([]situfact.Row{}, table1...), wesley) {
		if resp := doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != 200 {
			t.Fatalf("ingest rejected: status %d", resp.StatusCode)
		}
		if _, err := ref.Append(row.Dims, row.Measures); err != nil {
			t.Fatal(err)
		}
	}
	// check compares a response with the reference pool's TopFacts(k),
	// entry for entry as the wire renders them.
	check := func(query string, k int) topFactsResponse {
		t.Helper()
		status, body := getBody(t, ts.URL+"/v1/facts/top"+query)
		if status != http.StatusOK {
			t.Fatalf("GET /v1/facts/top%s: status %d: %s", query, status, body)
		}
		var top topFactsResponse
		if err := json.Unmarshal(body, &top); err != nil {
			t.Fatal(err)
		}
		want, err := ref.TopFacts(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(top.Facts) != len(want) {
			t.Fatalf("top%s: %d facts, want %d", query, len(top.Facts), len(want))
		}
		for i := range want {
			// Wire renderings of plain structs: Marshal cannot fail.
			got, _ := json.Marshal(top.Facts[i])
			if w, _ := json.Marshal(toQueryFactWire(&want[i])); !bytes.Equal(got, w) {
				t.Fatalf("top%s entry %d:\n daemon %+v\n pool   %+v", query, i, top.Facts[i], want[i])
			}
			if i > 0 && top.Facts[i].Prominence > top.Facts[i-1].Prominence {
				t.Errorf("top%s out of order at %d: %g > %g", query, i, top.Facts[i].Prominence, top.Facts[i-1].Prominence)
			}
		}
		return top
	}
	top := check("?k=5", 5)
	if len(top.Facts) != 5 {
		t.Fatalf("got %d entries, want 5", len(top.Facts))
	}
	// The wire shape is /v1/facts' fact, not an arrival's.
	var raw struct {
		Facts []map[string]json.RawMessage `json:"facts"`
	}
	_, body := getBody(t, ts.URL+"/v1/facts/top?k=5")
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"shard", "measures", "context_size", "skyline_size", "prominence", "tuple_ids", "text"} {
		if _, ok := raw.Facts[0][key]; !ok {
			t.Errorf("top entry lacks %q: %s", key, body)
		}
	}
	for _, key := range []string{"id", "fact"} {
		if _, ok := raw.Facts[0][key]; ok {
			t.Errorf("top entry carries the arrival-board key %q: %s", key, body)
		}
	}

	check("", 10) // default k
	all, err := ref.TopFacts(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= factsMaxLimit {
		t.Fatalf("only %d fact groups: the clamp at %d needs more", len(all), factsMaxLimit)
	}
	clamped := check("?k=9999", factsMaxLimit)
	if len(clamped.Facts) != factsMaxLimit {
		t.Fatalf("k=9999 returned %d entries, want the cap %d", len(clamped.Facts), factsMaxLimit)
	}
	before := getMetrics(t, ts.URL).ReadCache
	check("?k=1000000000", factsMaxLimit)
	check("?k=500", factsMaxLimit)
	if after := getMetrics(t, ts.URL).ReadCache; after.Misses != before.Misses || after.Hits != before.Hits+2 {
		t.Errorf("k=1000000000 and k=500 after k=9999: cache hits %d -> %d, misses %d -> %d; every k past the cap must share one fill",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if got := check("?k=0", 0); len(got.Facts) != 0 {
		t.Errorf("k=0 returned %d entries", len(got.Facts))
	}
	// source is not a parameter any more: whatever it says, same body.
	_, plain := getBody(t, ts.URL+"/v1/facts/top?k=7")
	for _, q := range []string{"?k=7&source=live", "?k=7&source=board", "?k=7&source=bogus"} {
		if _, got := getBody(t, ts.URL+"/v1/facts/top"+q); !bytes.Equal(got, plain) {
			t.Errorf("top%s differs from ?k=7:\n%s\n%s", q, got, plain)
		}
	}
	for _, q := range []string{"?k=-1", "?k=ten", "?k=1e3", "?k=99999999999999999999"} {
		if status, _ := getBody(t, ts.URL+"/v1/facts/top"+q); status != http.StatusBadRequest {
			t.Errorf("top%s: status %d, want 400", q, status)
		}
	}

	// The ranking is of the live fact set: retract the tuple behind the
	// best fact and no entry of the next fill names it.
	shard, victim := top.Facts[0].Shard, top.Facts[0].TupleIDs[0]
	url := fmt.Sprintf("%s/v1/tuples/%d:%d", ts.URL, shard, victim)
	if resp := doJSON(t, "DELETE", url, nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE %s: status %d", url, resp.StatusCode)
	}
	if err := ref.Delete(shard, victim); err != nil {
		t.Fatal(err)
	}
	s.cache.Clear()
	for _, f := range check("?k=500", factsMaxLimit).Facts {
		if f.Shard == shard && slices.Contains(f.TupleIDs, victim) {
			t.Fatalf("deleted tuple %d:%d still ranks: %+v", shard, victim, f)
		}
	}
}

// TestParseTupleID pins the one "<shard>:<tuple_id>" resolver, and that
// DELETE and GET /v1/tuples/{id} both answer a bare id on a multi-shard
// pool with its 400.
func TestParseTupleID(t *testing.T) {
	const ambiguous = `bare tuple id "5" is ambiguous with 3 shards: use <shard>:<tuple_id>`
	for _, tc := range []struct {
		in           string
		bare, shards int // the shard a bare id names (AllShards: none), the pool's shards
		shard        int
		tuple        int64
		wantErr      string
	}{
		{"2:17", situfact.AllShards, 3, 2, 17, ""},
		{"0:0", situfact.AllShards, 1, 0, 0, ""},
		{"5", situfact.AllShards, 1, 0, 5, ""}, // single shard: shard 0
		{"5", 2, 3, 2, 5, ""},                  // shard= names it
		{"5", situfact.AllShards, 3, 0, 0, ambiguous},
		{"a:b", situfact.AllShards, 1, 0, 0, `bad tuple id "a:b"`},
		{"1:", situfact.AllShards, 1, 0, 0, `bad tuple id "1:"`},
		{"", situfact.AllShards, 1, 0, 0, `bad tuple id ""`},
		{"x", 1, 3, 0, 0, `bad tuple id "x"`},
	} {
		shard, tuple, err := parseTupleID(tc.in, tc.bare, tc.shards)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseTupleID(%q, %d, %d) err = %v, want %q", tc.in, tc.bare, tc.shards, err, tc.wantErr)
			}
			continue
		}
		if err != nil || shard != tc.shard || tuple != tc.tuple {
			t.Errorf("parseTupleID(%q, %d, %d) = %d,%d,%v, want %d,%d", tc.in, tc.bare, tc.shards, shard, tuple, err, tc.shard, tc.tuple)
		}
	}

	_, ts := startServer(t, gamelogConfig(3, ""))
	for _, method := range []string{http.MethodDelete, http.MethodGet} {
		req, err := http.NewRequest(method, ts.URL+"/v1/tuples/5", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error != ambiguous {
			t.Errorf("%s /v1/tuples/5 on 3 shards: %d %q, want 400 %q", method, resp.StatusCode, e.Error, ambiguous)
		}
	}
}

// TestServerStateDirValidation: a corrupt manifest must fail startup, not
// silently start empty.
func TestServerStateDirValidation(t *testing.T) {
	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, "pool.manifest"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := gamelogConfig(1, corrupt)
	if _, err := newServer(cfg); err == nil {
		t.Error("corrupt manifest accepted as fresh start")
	}

	cfg.stateDir = ""
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.checkpoint(); err != nil {
		t.Errorf("checkpoint without state-dir must be a no-op, got %v", err)
	}
}

// TestServerRefusesTopDownFamily: reads report a stored cell as a contextual
// skyline, which a TopDown cell is not (Invariant 2: a tuple sits at its
// maximal skyline constraints only), so the daemon refuses the family at
// startup — asked for by -algo, or pinned by a state dir holding a snapshot
// a TopDown pool wrote — with the sentence NewPool and the restore give,
// naming the algorithm and what chose it.
func TestServerRefusesTopDownFamily(t *testing.T) {
	const sentence = "queries require bottomup or sbottomup over the in-memory store: " +
		"only BottomUp's Invariant 1 makes a stored cell the contextual skyline a read reports"
	for _, algo := range []string{"topdown", "stopdown"} {
		cfg := gamelogConfig(2, "")
		cfg.algo = algo
		if _, err := newServer(cfg); err == nil || !strings.Contains(err.Error(), sentence) ||
			!strings.Contains(err.Error(), "-algo "+algo) || !strings.Contains(err.Error(), "(engine runs "+algo+")") {
			t.Errorf("-algo %s: newServer error = %v", algo, err)
		}
	}

	stateDir := t.TempDir()
	snap, err := os.ReadFile(filepath.Join("..", "..", "testdata", "v2_topdown.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, persist.ShardSnapshotName(0, 1)), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	schema, _, err := buildSchema(gamelogConfig(1, stateDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteManifest(stateDir, persist.Manifest{
		SchemaSig: schema.String(), ShardDim: "team", Shards: 1, Generation: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(gamelogConfig(1, stateDir)); err == nil || !strings.Contains(err.Error(), sentence) ||
		!strings.Contains(err.Error(), "the snapshot in "+stateDir) || !strings.Contains(err.Error(), "(engine runs topdown)") {
		t.Errorf("state dir snapshotted under topdown: newServer error = %v", err)
	}
}

// TestServerRefusesTrailingData: an ingest body is exactly one JSON value.
// Anything after it — a second row, a stray brace or bracket — is refused
// with 400 before the pool sees the first value; whitespace is not data.
func TestServerRefusesTrailingData(t *testing.T) {
	s, ts := startServer(t, gamelogConfig(2, ""))
	row, err := json.Marshal(reqOf(table1[0]))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(batchRequest{Rows: table1[:2]})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/tuples", string(row) + " " + string(row)},
		{"/v1/tuples", string(row) + "}"},
		{"/v1/tuples", string(row) + "]"},
		{"/v1/tuples", string(row) + " x"},
		{"/v1/tuples:batch", string(batch) + string(batch)},
		{"/v1/tuples:batch", string(batch) + "\n}"},
		{"/v1/tuples:batch", string(batch) + "]"},
	} {
		if status, msg := post(tc.path, tc.body); status != http.StatusBadRequest || !strings.Contains(msg, "trailing data") {
			t.Errorf("POST %s %q: status %d %q, want 400 naming the trailing data", tc.path, tc.body, status, msg)
		}
	}
	if n := s.db().Len(); n != 0 {
		t.Fatalf("refused bodies applied %d rows", n)
	}
	if status, msg := post("/v1/tuples", string(row)+" \n\t"); status != http.StatusOK {
		t.Errorf("a row followed by whitespace: status %d %q, want 200", status, msg)
	}
	if status, msg := post("/v1/tuples:batch", string(batch)+"\n"); status != http.StatusOK {
		t.Errorf("a batch followed by a newline: status %d %q, want 200", status, msg)
	}
}

// TestServerTopTable: top is one cap on both ingest endpoints. A negative
// top is refused with 400 naming it, before the pool sees the row; 0 asks a
// single row for all its facts and a batch for counts only; a positive top
// carries at most that many. fact_count always counts every fact.
func TestServerTopTable(t *testing.T) {
	for _, tc := range []struct {
		path   string
		top    int
		status int
		msg    string // the error, or the facts Wesley's arrival carries of its 195
	}{
		{"/v1/tuples", -1, 400, "top must be >= 0, got -1"},
		{"/v1/tuples:batch", -1, 400, "top must be >= 0, got -1"},
		{"/v1/tuples", -7, 400, "top must be >= 0, got -7"},
		{"/v1/tuples:batch", -7, 400, "top must be >= 0, got -7"},
		{"/v1/tuples", 0, 200, "195 of 195 facts"},
		{"/v1/tuples:batch", 0, 200, "0 of 195 facts"},
		{"/v1/tuples", 3, 200, "3 of 195 facts"},
		{"/v1/tuples:batch", 3, 200, "3 of 195 facts"},
		{"/v1/tuples:batch", 500, 200, "195 of 195 facts"},
	} {
		s, ts := startServer(t, gamelogConfig(1, ""))
		if resp := doJSON(t, "POST", ts.URL+"/v1/tuples:batch", batchRequest{Rows: table1}, nil); resp.StatusCode != 200 {
			t.Fatalf("Table I: status %d", resp.StatusCode)
		}
		batch := strings.HasSuffix(tc.path, ":batch")
		var body any = tupleRequest{Row: wesley, Top: tc.top}
		if batch {
			body = batchRequest{Rows: []situfact.Row{wesley}, Top: tc.top}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		status, msg := postBody(t, ts.URL+tc.path, raw)
		if status == http.StatusOK {
			var arr arrivalResponse
			if batch {
				var br batchResponse
				json.Unmarshal([]byte(msg), &br)
				arr = *br.Arrivals[0]
			} else {
				json.Unmarshal([]byte(msg), &arr)
			}
			msg = fmt.Sprintf("%d of %d facts", len(arr.Facts), arr.FactCount)
		} else {
			var e errorResponse
			json.Unmarshal([]byte(msg), &e)
			msg = e.Error
		}
		if status != tc.status || msg != tc.msg {
			t.Errorf("POST %s top=%d: status %d %q, want %d %q", tc.path, tc.top, status, msg, tc.status, tc.msg)
		}
		if n := s.db().Len(); n != len(table1)+1 && status == http.StatusOK || n != len(table1) && status != http.StatusOK {
			t.Errorf("POST %s top=%d: status %d with %d rows applied", tc.path, tc.top, status, n)
		}
		s.close()
	}
}

// postBody posts a JSON body and returns the status and the response body.
func postBody(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// walConfig enables the journal on a gamelog config.
func walConfig(shards int, stateDir string) config {
	cfg := gamelogConfig(shards, stateDir)
	cfg.wal = true
	return cfg
}

// TestServerIgnoresLeaderboardSidecar: daemons that kept an arrival-history
// board persisted it as a "leaderboard" sidecar in the snapshot manifest. A
// state dir that still carries one restores cleanly, and what the sidecar
// remembers is not served: the leaderboard is the restored state's ranking.
func TestServerIgnoresLeaderboardSidecar(t *testing.T) {
	stateDir := t.TempDir()
	s, ts := startServer(t, gamelogConfig(2, stateDir))
	for _, row := range append(append([]situfact.Row{}, table1...), wesley) {
		doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil)
	}
	_, want := getBody(t, ts.URL+"/v1/facts/top?k=20")
	ts.Close()
	// The board's own format, ranking a fact no tuple supports.
	const board = `[{"id":"0:1","prominence":99,"fact":{"conditions":[],"measures":["points"],"prominence":99,"text":"remembered"}}]`
	if _, err := s.db().Checkpoint(stateDir, func() (map[string][]byte, error) {
		return map[string][]byte{"leaderboard": []byte(board)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	pool, sidecars, err := situfact.RestorePool(s.schema, stateDir)
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if string(sidecars["leaderboard"]) != board {
		t.Fatalf("manifest sidecars = %q: the state dir does not carry the board", sidecars)
	}

	s2, ts2 := startServer(t, gamelogConfig(2, stateDir))
	defer s2.close()
	_, got := getBody(t, ts2.URL+"/v1/facts/top?k=20")
	if !bytes.Equal(got, want) || bytes.Contains(got, []byte("remembered")) {
		t.Errorf("leaderboard after restoring a state dir with a board sidecar:\n got %s\nwant %s", got, want)
	}
}

// TestServerWALVerify drives -wal-verify's offline scan over a log a daemon
// wrote: exit 0 with "ok: N segments, M records" on the clean log, exit 1
// naming the damage once a record of a sealed segment fails its CRC.
func TestServerWALVerify(t *testing.T) {
	cfg := walConfig(2, t.TempDir())
	cfg.walSegBytes = 256 // several segments from seven rows
	s, ts := startServer(t, cfg)
	for i, row := range append(append([]situfact.Row{}, table1...), wesley) {
		if resp := doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("row %d: status %d", i, resp.StatusCode)
		}
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(cfg.stateDir, "wal")
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("the log has %d segments (%v): the damage below needs a sealed one", len(segs), err)
	}
	var out, errOut bytes.Buffer
	if code := runWALVerify(dir, &out, &errOut); code != 0 || errOut.Len() != 0 ||
		!strings.HasSuffix(out.String(), fmt.Sprintf("ok: %d segments, 7 records\n", len(segs))) {
		t.Fatalf("clean log: exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}

	seg, err := os.ReadFile(segs[0]) // sealed: the glob sorts by base LSN
	if err != nil {
		t.Fatal(err)
	}
	seg[len(seg)-2] ^= 0xff // inside the last record's payload
	if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := runWALVerify(dir, &out, &errOut); code != 1 || strings.Contains(out.String(), "ok:") ||
		!strings.Contains(errOut.String(), "wal-verify "+dir) {
		t.Fatalf("damaged log: exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}
}

// TestServerLifecycle: newServer starts every background loop the daemon
// runs — a leader's checkpoint ticker, WAL repair loop and shedder
// sampler, a follower's tail loop — and close stops them all, so the
// goroutine count comes back to where it was before either server existed.
func TestServerLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := walConfig(2, t.TempDir())
	cfg.snapInterval = 20 * time.Millisecond
	leader, lts := startServer(t, cfg)
	if leader.shedder == nil {
		t.Fatal("the default -shed-window started no shedder")
	}
	for i, row := range table1 {
		if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("row %d: status %d", i, resp.StatusCode)
		}
	}
	// Before the follower, whose bootstrap checkpoints too: only the ticker
	// can have written this generation.
	for deadline := time.Now().Add(10 * time.Second); getMetrics(t, lts.URL).Snapshot.Generation < 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint 10s into a -snapshot-interval 20ms leader")
		}
	}

	fcfg := gamelogConfig(2, t.TempDir())
	fcfg.follow, fcfg.followPoll = lts.URL, 20*time.Millisecond
	follower, fts := startServer(t, fcfg)
	if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(wesley), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("wesley: status %d", resp.StatusCode)
	}
	waitApplied(t, fts.URL, uint64(len(table1))+1)

	fts.Close()
	if err := follower.close(); err != nil {
		t.Fatal(err)
	}
	lts.Close()
	if err := leader.close(); err != nil {
		t.Fatal(err)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after close, %d before the servers:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}
