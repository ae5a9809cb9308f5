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
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	situfact "repro"
	"repro/internal/persist"
)

// followerOf starts an in-process read-only follower of the given leader
// URL with a fast poll, sharing the leader's schema shape.
func followerOf(t *testing.T, leaderURL string, shards int) (*server, *httptest.Server) {
	t.Helper()
	cfg := gamelogConfig(shards, t.TempDir())
	cfg.follow = leaderURL
	cfg.followPoll = 20 * time.Millisecond
	return startServer(t, cfg)
}

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

// TestFollowerServesIdenticalFacts is the core replication acceptance
// test: a follower bootstrapped from a leader snapshot and tailing its
// WAL must serve byte-identical query results — after the bootstrap,
// and again after further appends and a delete — while rejecting writes
// and staying healthy.
func TestFollowerServesIdenticalFacts(t *testing.T) {
	cfg := gamelogConfig(2, t.TempDir())
	cfg.wal = true
	leader, lts := startServer(t, cfg)
	for i, row := range table1 {
		if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("leader: row %d: status %d", i, resp.StatusCode)
		}
	}

	follower, fts := followerOf(t, lts.URL, 2)
	waitApplied(t, fts.URL, uint64(len(table1)))
	assertSameReads(t, lts.URL, fts.URL, gamelogQueries)

	// Followers are read-only: every write verb is refused.
	if resp := doJSON(t, "POST", fts.URL+"/v1/tuples", reqOf(wesley), nil); resp.StatusCode != http.StatusForbidden {
		t.Errorf("follower accepted POST /v1/tuples: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", fts.URL+"/v1/tuples:batch", batchRequest{Rows: table1[:1]}, nil); resp.StatusCode != http.StatusForbidden {
		t.Errorf("follower accepted POST /v1/tuples:batch: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "DELETE", fts.URL+"/v1/tuples/0:0", nil, nil); resp.StatusCode != http.StatusForbidden {
		t.Errorf("follower accepted DELETE: status %d", resp.StatusCode)
	}

	// A caught-up follower with no lag bound is healthy.
	if status, body := getBody(t, fts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("follower /healthz = %d: %s", status, body)
	}
	fm := getMetrics(t, fts.URL)
	if fm.Replication == nil || !fm.Replication.Follower || fm.Replication.Epoch == "" {
		t.Fatalf("follower metrics missing replication state: %+v", fm.Replication)
	}
	if fm.Replication.AppliedLSN != uint64(len(table1)) {
		t.Errorf("follower applied LSN %d, want %d", fm.Replication.AppliedLSN, len(table1))
	}

	// Mutate the leader — another append plus a delete — and require
	// convergence again. The leaderboard ranks the live fact set, so the
	// deleted tuple leaves it on both nodes.
	if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(wesley), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader: wesley rejected: status %d", resp.StatusCode)
	}
	celtics := leader.db().ShardFor("Celtics")
	ranks := func(base string) bool {
		var top topFactsResponse
		doJSON(t, "GET", base+"/v1/facts/top?k=500", nil, &top)
		return slices.ContainsFunc(top.Facts, func(f queryFactWire) bool {
			return f.Shard == celtics && slices.Contains(f.TupleIDs, 0)
		})
	}
	if !ranks(lts.URL) {
		t.Fatalf("tuple %d:0 ranks nowhere on the leader before its deletion", celtics)
	}
	if resp := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/tuples/%d:0", lts.URL, celtics), nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("leader: delete rejected: status %d", resp.StatusCode)
	}
	waitApplied(t, fts.URL, uint64(len(table1))+2)
	assertSameReads(t, lts.URL, fts.URL, gamelogQueries)
	if ranks(lts.URL) || ranks(fts.URL) {
		t.Errorf("deleted tuple %d:0 still on a leaderboard: leader %v, follower %v", celtics, ranks(lts.URL), ranks(fts.URL))
	}

	lm, fm2 := getMetrics(t, lts.URL), getMetrics(t, fts.URL)
	if lm.Merged != fm2.Merged {
		t.Errorf("merged metrics diverged:\nleader   %+v\nfollower %+v", lm.Merged, fm2.Merged)
	}
	if !reflect.DeepEqual(lm.PerShard, fm2.PerShard) {
		t.Errorf("per-shard metrics diverged:\nleader   %+v\nfollower %+v", lm.PerShard, fm2.PerShard)
	}

	// Same LSN, same bytes: a snapshot has no map order in it and a restore
	// numbers the constraints as the writer had them, so the follower —
	// restored from the leader's files, then fed its tail — checkpoints to
	// the shard files the leader writes.
	ldir, fdir := t.TempDir(), t.TempDir()
	if _, err := leader.db().Checkpoint(ldir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.db().Checkpoint(fdir, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		name := persist.ShardSnapshotName(i, 1)
		lf, err := os.ReadFile(filepath.Join(ldir, name))
		if err != nil {
			t.Fatal(err)
		}
		ff, err := os.ReadFile(filepath.Join(fdir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lf, ff) {
			t.Errorf("%s: leader wrote %d bytes, follower %d, and they differ", name, len(lf), len(ff))
		}
	}
}

// TestFollowerIndexedReadsIdentical pins the read path the fleet runs:
// leader and follower, both serving from the incremental fact index, must
// stay byte-identical across appends and a delete — and identical to an
// in-process Pool fed the same history directly, whose index was only
// ever grown by live appends: never rebuilt by a snapshot restore, never
// maintained through ApplyTail.
func TestFollowerIndexedReadsIdentical(t *testing.T) {
	cfg := gamelogConfig(2, t.TempDir())
	cfg.wal = true
	leader, lts := startServer(t, cfg)
	ref, err := situfact.NewPool(leader.schema, situfact.PoolOptions{Shards: 2, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i, row := range table1 {
		if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("leader: row %d: status %d", i, resp.StatusCode)
		}
		if _, err := ref.Append(row.Dims, row.Measures); err != nil {
			t.Fatal(err)
		}
	}

	_, its := followerOf(t, lts.URL, 2)

	// Mutate past the bootstrap so the follower exercises ApplyTail's
	// index maintenance, not just the restore-time rebuild.
	if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(wesley), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader: wesley rejected: status %d", resp.StatusCode)
	}
	celtics := leader.db().ShardFor("Celtics")
	if resp := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/tuples/%d:0", lts.URL, celtics), nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("leader: delete rejected: status %d", resp.StatusCode)
	}
	if _, err := ref.Append(wesley.Dims, wesley.Measures); err != nil {
		t.Fatal(err)
	}
	if err := ref.Delete(celtics, 0); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, its.URL, uint64(len(table1))+2)

	assertSameReads(t, lts.URL, its.URL, gamelogQueries)
	// The reference pool is served by a bare server: same handlers, no
	// daemon around it.
	var bare server
	bare.poolv.Store(ref)
	rts := httptest.NewServer(bare.handler())
	defer rts.Close()
	for _, q := range gamelogQueries {
		fp, rp := factsPages(t, its.URL, q, 3), factsPages(t, rts.URL, q, 3)
		if len(fp) != len(rp) {
			t.Fatalf("query %q: follower returned %d pages, reference pool %d", q, len(fp), len(rp))
		}
		for i := range fp {
			if !bytes.Equal(fp[i], rp[i]) {
				t.Errorf("query %q page %d diverged:\nfollower  %s\nreference %s", q, i, fp[i], rp[i])
			}
		}
	}

	lm, fm := getMetrics(t, lts.URL), getMetrics(t, its.URL)
	if lm.Index.Entries == 0 || lm.Index.Entries != fm.Index.Entries {
		t.Errorf("index entries diverged: leader %d follower %d", lm.Index.Entries, fm.Index.Entries)
	}
	if got := ref.IndexStats().Entries; got != lm.Index.Entries {
		t.Errorf("reference pool's index holds %d entries, leader's %d", got, lm.Index.Entries)
	}

	// The leaderboard ranks current cells, so it sees the delete the same
	// way on every node.
	_, ltop := getBody(t, lts.URL+"/v1/facts/top?k=16")
	_, itop := getBody(t, its.URL+"/v1/facts/top?k=16")
	_, rtop := getBody(t, rts.URL+"/v1/facts/top?k=16")
	if !bytes.Equal(ltop, itop) || !bytes.Equal(ltop, rtop) {
		t.Errorf("leaderboard diverged:\nleader    %s\nfollower  %s\nreference %s", ltop, itop, rtop)
	}
}

// TestInvalidatorFor pins the per-shard eviction predicate: keys scoped
// to an advanced shard die, keys scoped to a quiet shard survive, and
// cross-shard keys die whenever anything moved.
func TestInvalidatorFor(t *testing.T) {
	pred := invalidatorFor([]uint64{5, 7, 9}, []uint64{5, 8, 9})
	cases := []struct {
		key  string
		want bool
	}{
		{"facts|0|where|...", false}, // shard 0 did not move
		{"facts|1|where|...", true},  // shard 1 advanced
		{"facts|2|where|...", false},
		{"facts|-1|all-shards", true}, // cross-shard page
		{"top|10", true},              // leaderboard
	}
	for _, c := range cases {
		if got := pred(c.key); got != c.want {
			t.Errorf("pred(%q) = %v, want %v", c.key, got, c.want)
		}
	}
	if quiet := invalidatorFor([]uint64{5, 7}, []uint64{5, 7}); quiet("top|10") || quiet("facts|-1|x") {
		t.Error("nothing moved but cross-shard keys were evicted")
	}
	// A follower that grew shards mid-flight (bootstrap) treats the new
	// shard as moved.
	if grown := invalidatorFor([]uint64{5}, []uint64{5, 1}); !grown("facts|1|x") {
		t.Error("newly appeared shard not treated as moved")
	}
}

// TestFollowerPerShardCacheInvalidation drives the selective eviction end
// to end: with the read cache on, a tail batch touching only one shard
// must leave the other shard's cached page serving hits.
func TestFollowerPerShardCacheInvalidation(t *testing.T) {
	cfg := gamelogConfig(2, t.TempDir())
	cfg.wal = true
	leader, lts := startServer(t, cfg)
	for i, row := range table1 {
		if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("leader: row %d: status %d", i, resp.StatusCode)
		}
	}
	fcfg := gamelogConfig(2, t.TempDir())
	fcfg.follow = lts.URL
	fcfg.followPoll = 20 * time.Millisecond
	fcfg.readCacheTTL = time.Minute
	follower, fts := startServer(t, fcfg)
	waitApplied(t, fts.URL, uint64(len(table1)))

	hot := leader.db().ShardFor(wesley.Dims[3]) // shard the next append lands on
	cold := 1 - hot
	// limit=500 keeps each shard's fact set on one page, so the hot
	// shard's body is guaranteed to change when the append lands.
	hotURL := fmt.Sprintf("%s/v1/facts?shard=%d&limit=500", fts.URL, hot)
	coldURL := fmt.Sprintf("%s/v1/facts?shard=%d&limit=500", fts.URL, cold)
	_, hotBefore := getBody(t, hotURL) // warm both cache entries
	_, coldBefore := getBody(t, coldURL)

	if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(wesley), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader: wesley rejected: status %d", resp.StatusCode)
	}
	waitApplied(t, fts.URL, uint64(len(table1))+1)

	st := follower.cache.Stats()
	_, hotAfter := getBody(t, hotURL)
	_, coldAfter := getBody(t, coldURL)
	if bytes.Equal(hotBefore, hotAfter) {
		t.Errorf("shard %d page unchanged after an append routed to it", hot)
	}
	if !bytes.Equal(coldBefore, coldAfter) {
		t.Errorf("shard %d page changed by an append routed to shard %d:\nbefore %s\nafter  %s", cold, hot, coldBefore, coldAfter)
	}
	st2 := follower.cache.Stats()
	if gotMisses := st2.Misses - st.Misses; gotMisses != 1 {
		t.Errorf("re-reading both shards after a one-shard advance refilled %d entries, want 1 (the advanced shard)", gotMisses)
	}
	if gotHits := st2.Hits - st.Hits; gotHits != 1 {
		t.Errorf("quiet shard's cached page served %d hits, want 1", gotHits)
	}
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

// TestFollowerConvergesAcrossLeaderCrash runs the full read-path story
// against a real leader binary: the leader is SIGKILLed mid-ingest and
// restarted over the same state dir and address; the follower — which
// never restarts — must ride through the outage (transient poll errors,
// not fatal ones) and converge to byte-identical reads once the resumed
// stream finishes. Segments are oversized so the restarted leader cannot
// truncate records the follower still needs.
func TestFollowerConvergesAcrossLeaderCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemon processes")
	}
	bin := buildDaemon(t)
	rows := crashRows(300)
	leaderDir := t.TempDir()
	addr := freeAddr(t)
	segFlag := []string{"-wal-segment-bytes", "1048576"}

	d := startDaemonAt(t, bin, leaderDir, addr, segFlag...)
	_, fts := startServer(t, flagConfig("-dims", "team,player", "-measures", "points,rebounds",
		"-state-dir", t.TempDir(), "-follow", d.url, "-follow-poll", "20ms"))

	acked := make(chan int, 1)
	go func() {
		n := 0
		for _, r := range rows {
			if !postRow(d.url, r) {
				break
			}
			n++
		}
		acked <- n
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m, err := tryMetrics(d.url); err == nil && m.Merged.Tuples >= int64(len(rows)/3) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
	nAcked := <-acked
	if nAcked >= len(rows) {
		t.Fatalf("leader survived the whole stream (%d rows) — the kill was not mid-ingest", nAcked)
	}

	// While the leader is down the follower must degrade to transient
	// poll errors, not a fatal stop.
	if m, err := tryMetrics(fts.URL); err == nil && m.Replication != nil && m.Replication.Fatal != "" {
		t.Fatalf("follower went fatal during the leader outage: %s", m.Replication.Fatal)
	}

	d2 := startDaemonAt(t, bin, leaderDir, addr, segFlag...)
	defer d2.stop()
	applied := int(getMetrics(t, d2.url).Merged.Tuples)
	if applied < nAcked {
		t.Fatalf("recovered leader lost acknowledged rows: %d applied < %d acked", applied, nAcked)
	}
	for i, r := range rows[applied:] {
		if !postRow(d2.url, r) {
			t.Fatalf("resumed feed: row %d rejected", applied+i)
		}
	}

	// Every row is one WAL record and LSNs are dense, so the final head
	// is exactly len(rows).
	waitApplied(t, fts.URL, uint64(len(rows)))
	if status, body := getBody(t, fts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("follower /healthz after convergence = %d: %s", status, body)
	}
	assertSameReads(t, d2.url, fts.URL, []string{
		"",
		"shard=2",
		"where=team=team-0",
		"where=team=team-0&measures=points",
	})
	lm, fm := getMetrics(t, d2.url), getMetrics(t, fts.URL)
	if lm.Merged != fm.Merged {
		t.Errorf("merged metrics diverged:\nleader   %+v\nfollower %+v", lm.Merged, fm.Merged)
	}
}

// TestFollowerMaxLagHealth: a follower that knows its leader is more than
// -follow-max-lag records ahead answers /healthz 503 naming the bound, and
// 200 again once it has caught up. A stub in front of the leader withholds
// the tail's records, not its head LSN, until it lets them through.
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
	_, fts := startServer(t, fcfg)
	waitApplied(t, fts.URL, 1)
	if status, h := healthStatus(t, fts.URL); status != http.StatusOK {
		t.Fatalf("caught-up follower /healthz = %d %+v", status, h)
	}

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

	withhold.Store(false)
	waitApplied(t, fts.URL, 5)
	if status, h := healthStatus(t, fts.URL); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("follower caught up again: /healthz %d %+v, want 200 ok", status, h)
	}
}

// TestServerWALTailPage pins one GET /v1/wal page byte for byte: each
// record is a situfact.TailRecord in its JSON form — an append with its
// row, an LSN a WAL repair burned as a bare noop, a delete with its tuple.
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
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if wal := getMetrics(t, ts.URL).WAL; wal.Repairs >= 1 && !wal.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the repair loop never healed the torn log")
		}
	}
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/tuples/0:1", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE 0:1: status %d", resp.StatusCode)
	}
	want := `{"epoch":"` + s.wal.Epoch() + `","last_lsn":4,"records":[` +
		`{"lsn":1,"op":"append","shard":0,"dims":["Bogues","Feb","1991-92","Hornets","Hawks"],"measures":[4,12,5]},` +
		`{"lsn":2,"op":"append","shard":0,"dims":["Seikaly","Feb","1991-92","Heat","Hawks"],"measures":[24,5,15]},` +
		`{"lsn":3,"op":"noop","shard":0},` +
		`{"lsn":4,"op":"delete","shard":0,"tuple_id":1}],"more":false}` + "\n"
	if status, got := getBody(t, ts.URL+"/v1/wal?from_lsn=1"); status != http.StatusOK || string(got) != want {
		t.Errorf("GET /v1/wal: %d\n got %s\nwant %s", status, got, want)
	}
}
