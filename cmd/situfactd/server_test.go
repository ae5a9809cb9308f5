package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	situfact "repro"
	"repro/internal/persist"
)

// table1 is the paper's Table I mini-world, identical to the root
// package's example_test.go: after the first six rows, David Wesley's
// 12/13/5 game must yield 195 facts, topped by
// "month=Feb | {assists} (prominence 5 = 5/1)".
var table1 = []rowWire{
	{Dims: []string{"Bogues", "Feb", "1991-92", "Hornets", "Hawks"}, Measures: []float64{4, 12, 5}},
	{Dims: []string{"Seikaly", "Feb", "1991-92", "Heat", "Hawks"}, Measures: []float64{24, 5, 15}},
	{Dims: []string{"Sherman", "Dec", "1993-94", "Celtics", "Nets"}, Measures: []float64{13, 13, 5}},
	{Dims: []string{"Wesley", "Feb", "1994-95", "Celtics", "Nets"}, Measures: []float64{2, 5, 2}},
	{Dims: []string{"Wesley", "Feb", "1994-95", "Celtics", "Timberwolves"}, Measures: []float64{3, 5, 3}},
	{Dims: []string{"Strickland", "Jan", "1995-96", "Blazers", "Celtics"}, Measures: []float64{27, 18, 8}},
}

var wesley = rowWire{
	Dims:     []string{"Wesley", "Feb", "1995-96", "Celtics", "Nets"},
	Measures: []float64{12, 13, 5},
}

func reqOf(r rowWire) tupleRequest { return tupleRequest{Dims: r.Dims, Measures: r.Measures} }

func gamelogConfig(shards int, stateDir string) config {
	return config{
		relation: "gamelog",
		dims:     "player,month,season,team,opp_team",
		measures: "points,assists,rebounds",
		shards:   shards,
		shardDim: "team",
		stateDir: stateDir,
	}
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
		Dims: wesley.Dims, Measures: wesley.Measures,
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
	if err := s.saveState(); err != nil {
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
	req := batchRequest{Rows: append(append([]rowWire{}, table1...), wesley), Top: 2}
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
		tupleRequest{Dims: []string{"only", "two"}, Measures: []float64{1, 2, 3}}, nil); resp.StatusCode != 400 {
		t.Errorf("short row: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/tuples:batch", batchRequest{}, nil); resp.StatusCode != 400 {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

// TestServerTopFacts pins GET /v1/facts/top: one shape (queryFactWire
// entries, source live), best first, exactly the ranking an
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
	for _, row := range append(append([]rowWire{}, table1...), wesley) {
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
		if top.Source != "live" || len(top.Facts) != len(want) {
			t.Fatalf("top%s: source %q with %d facts, want \"live\" with %d", query, top.Source, len(top.Facts), len(want))
		}
		for i := range want {
			if !sameJSON(t, top.Facts[i], toQueryFactWire(&want[i])) {
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
	s.cache.InvalidateFunc(func(string) bool { return true })
	for _, f := range check("?k=500", factsMaxLimit).Facts {
		if f.Shard == shard && slices.Contains(f.TupleIDs, victim) {
			t.Fatalf("deleted tuple %d:%d still ranks: %+v", shard, victim, f)
		}
	}
}

func TestParseTupleID(t *testing.T) {
	for _, tc := range []struct {
		in      string
		shard   int
		tuple   int64
		wantErr bool
	}{
		{"2:17", 2, 17, false},
		{"0:0", 0, 0, false},
		{"5", 0, 5, false}, // bare id = shard 0
		{"a:b", 0, 0, true},
		{"1:", 0, 0, true},
		{"", 0, 0, true},
	} {
		shard, tuple, err := parseTupleID(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseTupleID(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && (shard != tc.shard || tuple != tc.tuple) {
			t.Errorf("parseTupleID(%q) = %d,%d, want %d,%d", tc.in, shard, tuple, tc.shard, tc.tuple)
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
	if err := s.saveState(); err != nil {
		t.Errorf("saveState without state-dir must be a no-op, got %v", err)
	}
}

// TestServerRefusesTopDownFamily: reads report a stored cell as a contextual
// skyline, which a TopDown cell is not (Invariant 2: a tuple sits at its
// maximal skyline constraints only), so the daemon refuses the family at
// startup — asked for by -algo or pinned by a state dir's snapshot — with
// the sentence the read path itself uses.
func TestServerRefusesTopDownFamily(t *testing.T) {
	const sentence = "queries require bottomup or sbottomup over the in-memory store: " +
		"only BottomUp's Invariant 1 makes a stored cell the contextual skyline a read reports"
	for _, algo := range []string{"topdown", "stopdown"} {
		cfg := gamelogConfig(2, "")
		cfg.algo = algo
		if _, err := newServer(cfg); err == nil || !strings.Contains(err.Error(), sentence) ||
			!strings.Contains(err.Error(), "-algo "+algo) {
			t.Errorf("-algo %s: newServer error = %v", algo, err)
		}

		stateDir := t.TempDir()
		schema, _, err := buildSchema(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := situfact.NewPool(schema, situfact.PoolOptions{
			Shards: 2, ShardDim: "team", Engine: situfact.Options{Algorithm: situfact.Algorithm(algo)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Append(table1[0].Dims, table1[0].Measures); err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Checkpoint(stateDir, nil); err != nil {
			t.Fatal(err)
		}
		pool.Close()
		if _, err := newServer(gamelogConfig(2, stateDir)); err == nil || !strings.Contains(err.Error(), sentence) ||
			!strings.Contains(err.Error(), "the snapshot in "+stateDir) {
			t.Errorf("state dir snapshotted under %s: newServer error = %v", algo, err)
		}
	}
}

// walConfig enables the journal on a gamelog config.
func walConfig(shards int, stateDir string) config {
	cfg := gamelogConfig(shards, stateDir)
	cfg.wal = true
	return cfg
}

// TestServerWALCrashRecovery simulates a kill -9 in-process: feed a
// daemon with -wal, never save a snapshot, abandon it, and start a fresh
// one over the same state dir. Replay alone must rebuild the relation,
// the metrics and the leaderboard.
func TestServerWALCrashRecovery(t *testing.T) {
	stateDir := t.TempDir()
	_, ts := startServer(t, walConfig(2, stateDir))

	rows := append(append([]rowWire{}, table1...), wesley)
	for i, row := range rows {
		if resp := doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != 200 {
			t.Fatalf("row %d: status %d", i, resp.StatusCode)
		}
	}
	var beforeMetrics metricsResponse
	doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &beforeMetrics)
	if !beforeMetrics.WAL.Enabled || beforeMetrics.WAL.LastLSN != uint64(len(rows)) {
		t.Fatalf("wal metrics before crash = %+v, want enabled with last_lsn %d", beforeMetrics.WAL, len(rows))
	}
	if beforeMetrics.WAL.LagRecords != 0 {
		t.Errorf("lag_records = %d after synchronous acks, want 0", beforeMetrics.WAL.LagRecords)
	}
	if n := beforeMetrics.WAL.Syncs; n < 1 || n > uint64(len(rows)) {
		t.Errorf("syncs = %d after %d synchronously acked rows, want 1..%d", n, len(rows), len(rows))
	}
	if !beforeMetrics.Snapshot.Enabled || beforeMetrics.Snapshot.SecondsSinceLast != -1 {
		t.Errorf("snapshot metrics before any checkpoint = %+v, want enabled with seconds_since_last -1", beforeMetrics.Snapshot)
	}
	var beforeTop topFactsResponse
	doJSON(t, "GET", ts.URL+"/v1/facts/top?k=50", nil, &beforeTop)
	if len(beforeTop.Facts) == 0 {
		t.Fatal("no leaderboard entries before crash")
	}

	// Crash: no saveState, no graceful close. (The WAL fsynced every
	// acknowledged append, so abandoning the server loses nothing.)
	ts.Close()

	s2, ts2 := startServer(t, walConfig(2, stateDir))
	defer s2.close()
	if got := s2.db().Len(); got != len(rows) {
		t.Fatalf("recovered Len = %d, want %d", got, len(rows))
	}
	var afterMetrics metricsResponse
	doJSON(t, "GET", ts2.URL+"/v1/metrics", nil, &afterMetrics)
	if afterMetrics.Merged != beforeMetrics.Merged {
		t.Errorf("recovered merged metrics = %+v, want %+v", afterMetrics.Merged, beforeMetrics.Merged)
	}
	var afterTop topFactsResponse
	doJSON(t, "GET", ts2.URL+"/v1/facts/top?k=50", nil, &afterTop)
	if !reflect.DeepEqual(afterTop, beforeTop) {
		t.Errorf("recovered leaderboard diverged:\n got %+v\nwant %+v", afterTop, beforeTop)
	}
}

// TestServerCheckpointPlusWALTail: a mid-stream checkpoint plus the WAL
// tail after it must recover the same state as never stopping — and
// truncate covered segments.
func TestServerCheckpointPlusWALTail(t *testing.T) {
	stateDir := t.TempDir()
	cfg := walConfig(1, stateDir)
	cfg.walSegBytes = 256 // force rotation so truncation has segments to reclaim
	s, ts := startServer(t, cfg)

	for _, row := range table1[:4] {
		doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, row := range append(append([]rowWire{}, table1[4:]...), wesley) {
		doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil)
	}
	var before metricsResponse
	doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &before)
	if !before.Snapshot.Enabled || before.Snapshot.Generation != 1 || before.Snapshot.SecondsSinceLast < 0 {
		t.Errorf("snapshot metrics after checkpoint = %+v", before.Snapshot)
	}
	// What the checkpoint cost: the bytes are those of the generation's
	// shard files, and a lock hold is part of the whole.
	var onDisk int64
	for i := 0; i < s.db().Shards(); i++ {
		st, err := os.Stat(filepath.Join(cfg.stateDir, persist.ShardSnapshotName(i, 1)))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += st.Size()
	}
	if sn := before.Snapshot; sn.LastBytes != onDisk || sn.LastMS <= 0 || sn.LastHoldMS <= 0 || sn.LastHoldMS > sn.LastMS {
		t.Errorf("snapshot cost metrics = %+v, want last_bytes %d and 0 < last_hold_ms <= last_ms", sn, onDisk)
	}
	var beforeTop topFactsResponse
	doJSON(t, "GET", ts.URL+"/v1/facts/top?k=50", nil, &beforeTop)

	ts.Close() // crash

	s2, ts2 := startServer(t, cfg)
	defer s2.close()
	var after metricsResponse
	doJSON(t, "GET", ts2.URL+"/v1/metrics", nil, &after)
	if after.Merged != before.Merged || after.Len != before.Len {
		t.Errorf("recovered metrics = %+v/%d, want %+v/%d", after.Merged, after.Len, before.Merged, before.Len)
	}
	var afterTop topFactsResponse
	doJSON(t, "GET", ts2.URL+"/v1/facts/top?k=50", nil, &afterTop)
	if !reflect.DeepEqual(afterTop, beforeTop) {
		t.Errorf("recovered leaderboard diverged:\n got %+v\nwant %+v", afterTop, beforeTop)
	}

	// The David Wesley arrival survived via the WAL tail; deleting it
	// proves the recovered stream continues normally.
	req, _ := http.NewRequest("DELETE", ts2.URL+"/v1/tuples/0:6", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE after recovery: status %d, want 204", resp.StatusCode)
	}
}

// TestServerIgnoresLeaderboardSidecar: daemons that kept an arrival-history
// board persisted it as a "leaderboard" sidecar in the snapshot manifest. A
// state dir that still carries one restores cleanly, and what the sidecar
// remembers is not served: the leaderboard is the restored state's ranking.
func TestServerIgnoresLeaderboardSidecar(t *testing.T) {
	stateDir := t.TempDir()
	s, ts := startServer(t, gamelogConfig(2, stateDir))
	for _, row := range append(append([]rowWire{}, table1...), wesley) {
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

// TestServerWALFlagValidation: -wal without -state-dir is refused.
func TestServerWALFlagValidation(t *testing.T) {
	cfg := gamelogConfig(1, "")
	cfg.wal = true
	if _, err := newServer(cfg); err == nil {
		t.Error("-wal without -state-dir accepted")
	}
}

// TestServerConcurrentIngestAndCheckpoint: many writers (singles and
// batches) race repeated checkpoints, leaderboard fills and metrics reads.
// Run under -race in CI; afterwards, crash-recovery must still rebuild the
// exact state.
func TestServerConcurrentIngestAndCheckpoint(t *testing.T) {
	stateDir := t.TempDir()
	cfg := walConfig(3, stateDir)
	cfg.walSegBytes = 1024
	s, ts := startServer(t, cfg)

	const writers, perWriter = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := rowWire{
					Dims:     []string{fmt.Sprintf("p%d-%d", w, i), "Feb", "1991-92", fmt.Sprintf("team-%d", i%5), "Hawks"},
					Measures: []float64{float64(i), float64(w), 1},
				}
				if w%2 == 0 {
					doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil)
				} else {
					doJSON(t, "POST", ts.URL+"/v1/tuples:batch", batchRequest{Rows: []rowWire{row}}, nil)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := s.checkpoint(); err != nil {
				t.Errorf("checkpoint under load: %v", err)
				return
			}
			var m metricsResponse
			doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &m)
			if status, body := getBody(t, ts.URL+"/v1/facts/top?k=64"); status != http.StatusOK {
				t.Errorf("leaderboard under load: status %d: %s", status, body)
				return
			}
		}
	}()
	wg.Wait()

	var before metricsResponse
	doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &before)
	if before.Len != writers*perWriter {
		t.Fatalf("len = %d, want %d", before.Len, writers*perWriter)
	}
	_, beforeTop := getBody(t, ts.URL+"/v1/facts/top?k=500")

	ts.Close() // crash

	s2, ts2 := startServer(t, cfg)
	defer s2.close()
	var after metricsResponse
	doJSON(t, "GET", ts2.URL+"/v1/metrics", nil, &after)
	if after.Merged != before.Merged || after.Len != before.Len {
		t.Errorf("recovered metrics = %+v/%d, want %+v/%d", after.Merged, after.Len, before.Merged, before.Len)
	}
	// The ranking is a function of the recovered state — per-shard apply
	// order is journal order, whatever the writers' interleaving was — so
	// the recovered leaderboard is the same bytes, ties included.
	if _, afterTop := getBody(t, ts2.URL+"/v1/facts/top?k=500"); !bytes.Equal(afterTop, beforeTop) {
		t.Errorf("recovered leaderboard diverged:\n got %s\nwant %s", afterTop, beforeTop)
	}
}
