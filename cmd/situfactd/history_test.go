package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	situfact "repro"
	"repro/internal/persist"
)

// The daemon tier of the history checker. The root package's TestHistory
// holds the Pool to the contextual-skyline oracle in every configuration;
// this tier holds the daemon to that Pool. A seeded generator drives an
// in-process leader — a WAL of 512-byte segments, the ingest pipeline, and
// the admission stack at limits no history reaches — over HTTP through the
// root checker's op mix (appends and batches at every top, deletes of
// live, tombstoned, never-assigned and malformed ids, filtered reads walked
// by cursor, checkpoints, crashes, followers) plus a fault armed under the
// WAL. Every answer must be byte-equal to the one serverFor's handlers give
// over a reference Pool fed the same ops inline, without a WAL or an
// admission layer, and the daemon's own counters must account for what it
// did. A failure names the seed (subtest), the step and the op.

// TestDaemonHistory runs one seeded history per setup (one under -short).
func TestDaemonHistory(t *testing.T) {
	setups := []struct {
		name   string
		shards int
		args   []string
	}{
		{"sbottomup", 1, nil},
		{"bottomup", 3, []string{"-algo", "bottomup"}},
		{"sbottomup-dhat2-mhat2", 2, []string{"-dhat", "2", "-mhat", "2"}},
	}
	if testing.Short() {
		setups = setups[:1]
	}
	for seed, setup := range setups {
		t.Run(fmt.Sprintf("seed=%d/%s/shards=%d", seed, setup.name, setup.shards), func(t *testing.T) {
			t.Parallel()
			runDaemonHistory(t, int64(seed), setup.shards, setup.args, 60)
		})
	}
}

type daemonHistory struct {
	t      *testing.T
	rng    *rand.Rand
	cfg    config
	shards int
	s      *server
	ts     *httptest.Server
	ref    http.Handler // serverFor's handlers over the reference pool
	f      *server      // a follower of s, once a follow step started one
	fts    *httptest.Server
	ids    []string // every handle assigned, in order
	step   int
	op     string
	gen    uint64 // the state dir's newest snapshot generation
	lsn    uint64 // the records journaled, one per op the daemon applied or failed
	// Since the daemon last started: the ops its pipeline accepted, the
	// ones acknowledged after an fsync, and whether it checkpointed.
	enqueued, synced uint64
	ckpt             bool
}

func (h *daemonHistory) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d (%s): %s", h.step, h.op, fmt.Sprintf(format, args...))
}

func runDaemonHistory(t *testing.T, seed int64, shards int, args []string, steps int) {
	args = append([]string{"-dims", "team,player,month", "-measures", "points,assists,-fouls",
		"-shards", strconv.Itoa(shards), "-shard-dim", "team"}, args...)
	cfg := flagConfig(slices.Concat(args, []string{"-state-dir", t.TempDir(),
		"-wal", "-wal-segment-bytes", "512", "-fault-plan", "fsync:from=999999", // armed by fault steps
		"-log-requests", "-rate-limit", "1e6", "-rate-burst", "1000000", "-max-inflight", "1048576",
		"-request-timeout", "1m", "-shed-window", "10s"})...)
	// The reference runs no admission layer at all: the daemon's, at
	// limits it never reaches, must be invisible.
	refCfg := flagConfig(append(args, "-shed-window", "0")...)
	schema, wires, err := buildSchema(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := situfact.NewPool(schema, situfact.PoolOptions{Shards: shards, ShardDim: "team", Engine: situfact.Options{
		Algorithm: situfact.Algorithm(cfg.algo), MaxBoundDims: cfg.dhat, MaxMeasureDims: cfg.mhat}})
	if err != nil {
		t.Fatal(err)
	}
	h := &daemonHistory{t: t, rng: rand.New(rand.NewSource(seed)), cfg: cfg, shards: shards,
		ref: serverFor(refCfg, schema, wires, pool).handler()}
	h.start()
	t.Cleanup(func() {
		h.unfollow()
		h.ts.Close()
		h.s.close()
		pool.Close()
	})
	for ; h.step < steps; h.step++ {
		switch k := h.rng.Intn(20); {
		case k < 7:
			h.op = "append"
			h.write("POST", "/v1/tuples", h.appendBody(), 1)
		case k < 10:
			h.op = "batch"
			rows := make([]string, 2+h.rng.Intn(5))
			for i := range rows {
				rows[i] = "{" + h.row() + "}"
			}
			h.write("POST", "/v1/tuples:batch", `{"rows":[`+strings.Join(rows, ",")+"]"+h.top()+"}", len(rows))
		case k < 12:
			h.op = "delete"
			id := h.someID()
			ops := 0 // a malformed id or an unknown shard is refused before the queue
			if shard, _, err := parseTupleID(id, situfact.AllShards, shards); err == nil && shard < shards {
				ops = 1
			}
			h.write("DELETE", "/v1/tuples/"+id, "", ops)
		case k < 14:
			h.op = "read"
			h.read(h.ts.URL)
		case k < 15:
			h.op = "checkpoint"
			h.checkpoint()
		case k < 16:
			h.op = "crash"
			h.unfollow()
			h.ts.Close()
			if err := h.s.close(); err != nil {
				h.fatalf("close: %v", err)
			}
			h.start()
			h.read(h.ts.URL)
		case k < 18:
			h.op = "follow"
			h.follow()
		default:
			h.op = "fault"
			h.fault()
		}
		h.checkLeader()
	}
}

// start runs a daemon over the state dir: a first start, or a restart
// after a crash, which recovers from the newest checkpoint and the WAL.
func (h *daemonHistory) start() {
	s, err := newServer(h.cfg)
	if err != nil {
		h.fatalf("newServer: %v", err)
	}
	h.s, h.ts = s, httptest.NewServer(s.handler())
	h.enqueued, h.synced, h.ckpt = 0, 0, false
}

// row draws a row's JSON fields from small domains, so rows share contexts
// and skylines.
func (h *daemonHistory) row() string {
	return fmt.Sprintf(`"dims":[%q,%q,%q],"measures":[%d,%d,%d]`,
		h.value(0), h.value(1), h.value(2), h.rng.Intn(12), h.rng.Intn(8), h.rng.Intn(5))
}

var historyDims = []string{"team", "player", "month"}

func (h *daemonHistory) value(d int) string {
	if d == 2 {
		return []string{"Jan", "Feb", "Mar"}[h.rng.Intn(3)]
	}
	return fmt.Sprintf("%s-%d", historyDims[d], h.rng.Intn(5+d))
}

// top draws an ingest request's top: 0, 1 or 5 given, or omitted.
func (h *daemonHistory) top() string {
	return []string{`,"top":0`, `,"top":1`, `,"top":5`, ""}[h.rng.Intn(4)]
}

// appendBody draws a POST /v1/tuples body, narrated one time in four.
func (h *daemonHistory) appendBody() string {
	body := "{" + h.row() + h.top()
	if h.rng.Intn(4) == 0 {
		body += `,"narrate":{"subject":"the player"}`
	}
	return body + "}"
}

// someID draws a tuple handle: an assigned one (live or deleted) three
// times in four, else one never assigned, of an unknown shard, malformed,
// or bare — ambiguous on more than one shard.
func (h *daemonHistory) someID() string {
	if len(h.ids) > 0 && h.rng.Intn(4) > 0 {
		return h.ids[h.rng.Intn(len(h.ids))]
	}
	unassigned := fmt.Sprintf("%d:%d", h.rng.Intn(h.shards), 1000+h.rng.Intn(9))
	return []string{unassigned, "9:0", "bogus", "1:", "3"}[h.rng.Intn(5)]
}

// ackedID matches the handle of an arrival in an ingest ack.
var ackedID = regexp.MustCompile(`"id":"([0-9]+:[0-9]+)"`)

// call sends one request to the daemon (leader or follower) at base.
func (h *daemonHistory) call(base, method, path, body string) (status int, retryAfter string, got []byte) {
	h.t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		h.fatalf("%v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		got, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		h.fatalf("%s %s: %v", method, path, err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), got
}

// refCall answers a request with the reference's handlers.
func (h *daemonHistory) refCall(method, path, body string) (int, []byte) {
	w := httptest.NewRecorder()
	h.ref.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// same sends a request to the daemon at base and requires the reference's
// answer to it.
func (h *daemonHistory) same(base, method, path, body string) []byte {
	h.t.Helper()
	status, _, got := h.call(base, method, path, body)
	return h.agree(method, path, body, status, got)
}

// agree requires the reference to answer a request as the daemon did, byte
// for byte.
func (h *daemonHistory) agree(method, path, body string, status int, got []byte) []byte {
	h.t.Helper()
	if want, wantBody := h.refCall(method, path, body); status != want || !bytes.Equal(got, wantBody) {
		h.fatalf("%s %s %s: %d %s\nthe reference answers %d %s", method, path, body, status, got, want, wantBody)
	}
	return got
}

// record notes the handles an ingest ack assigned.
func (h *daemonHistory) record(ack []byte) {
	for _, m := range ackedID.FindAllSubmatch(ack, -1) {
		h.ids = append(h.ids, string(m[1]))
	}
}

// write sends an ingest request the pipeline accepts as ops operations and
// records the handles it assigns. The log is healthy, so each op is
// acknowledged after an fsync.
func (h *daemonHistory) write(method, path, body string, ops int) {
	h.t.Helper()
	h.record(h.same(h.ts.URL, method, path, body))
	h.enqueued += uint64(ops)
	h.synced += uint64(ops)
	h.lsn += uint64(ops)
}

// read walks a random /v1/facts filter at a random page size by its
// cursors, then asks for the leaderboard, a tuple and the schema, all
// from the daemon at base and answered as the reference answers.
func (h *daemonHistory) read(base string) {
	h.t.Helper()
	q := url.Values{}
	for range h.rng.Intn(3) {
		d := h.rng.Intn(len(historyDims))
		q.Add("where", historyDims[d]+"="+h.value(d))
	}
	if h.rng.Intn(3) == 0 {
		q.Set("measures", []string{"points", "fouls", "assists,points", "fouls,assists,points", "bogus"}[h.rng.Intn(5)])
	}
	if h.rng.Intn(4) == 0 {
		q.Set("tuple", h.someID())
	}
	q.Set("limit", strconv.Itoa([]int{17, 100, 500}[h.rng.Intn(3)]))
	for {
		var page factsResponse
		if json.Unmarshal(h.same(base, "GET", "/v1/facts?"+q.Encode(), ""), &page); page.NextCursor == "" {
			break
		}
		q.Set("cursor", page.NextCursor)
	}
	h.same(base, "GET", "/v1/facts/top"+[]string{"", "?k=0", "?k=1", "?k=7", "?k=9999"}[h.rng.Intn(5)], "")
	h.same(base, "GET", "/v1/tuples/"+h.someID(), "")
	h.same(base, "GET", "/v1/schema", "")
}

// sameMetrics requires the daemon at base to count the reference's work,
// shard by shard, and to index its fact groups, and returns its metrics.
func (h *daemonHistory) sameMetrics(base string) metricsResponse {
	h.t.Helper()
	got := getMetrics(h.t, base)
	var want metricsResponse
	_, body := h.refCall("GET", "/v1/metrics", "")
	json.Unmarshal(body, &want)
	if got.Merged != want.Merged || got.Len != want.Len || !reflect.DeepEqual(got.PerShard, want.PerShard) || got.Index.Entries != want.Index.Entries {
		h.fatalf("%s/v1/metrics: merged %+v, len %d, %d index entries, per shard %+v\nthe reference: %+v, %d, %d, %+v",
			base, got.Merged, got.Len, got.Index.Entries, got.PerShard, want.Merged, want.Len, want.Index.Entries, want.PerShard)
	}
	return got
}

// checkLeader runs after every step: the leader's metrics agree with the
// reference's; its pipeline accepted and drained every op since it started,
// each shard and batch counted; its log holds exactly the records of the
// ops it applied or failed, every one synced, in at least one fsync and at
// most one per op; and it reports a checkpoint exactly when this process
// took one.
func (h *daemonHistory) checkLeader() {
	m := h.sameMetrics(h.ts.URL)
	in, shardOps, hist := m.Ingest, uint64(0), uint64(0)
	for _, st := range in.PerShard {
		shardOps += st.Enqueued
	}
	for _, n := range in.BatchHist {
		hist += n
	}
	switch sn, w := m.Snapshot, m.WAL; {
	case !in.Pipeline || in.Enqueued != h.enqueued || in.QueueDepth != 0 || len(in.PerShard) != h.shards ||
		shardOps != in.Enqueued || hist != in.Batches || in.Enqueued > 0 && in.MeanBatch <= 0:
		h.fatalf("ingest %+v, yet the pipeline accepted %d ops since the daemon started", in, h.enqueued)
	case !w.Enabled || w.Degraded || w.LastLSN != h.lsn || w.LagRecords != 0 || w.Syncs > h.enqueued || h.synced > 0 && w.Syncs == 0:
		h.fatalf("wal %+v; %d records journaled, %d ops accepted since the start, %d of them acknowledged after an fsync", w, h.lsn, h.enqueued, h.synced)
	case !sn.Enabled, h.ckpt && (sn.SecondsSinceLast < 0 || sn.Generation != h.gen), !h.ckpt && sn.SecondsSinceLast != -1:
		h.fatalf("snapshot %+v; checkpointed since the start: %v, newest generation %d", sn, h.ckpt, h.gen)
	}
	h.same(h.ts.URL, "GET", "/healthz", "")
}

// checkpoint checkpoints the leader and truncates its log: the metrics
// report the generation's shard files' bytes, and a longest shard-lock
// hold inside the checkpoint's time.
func (h *daemonHistory) checkpoint() {
	if h.f != nil {
		// Its truncation must not outrun the follower, which would then
		// re-bootstrap — another checkpoint.
		waitApplied(h.t, h.fts.URL, getMetrics(h.t, h.ts.URL).WAL.LastLSN)
	}
	if err := h.s.checkpoint(); err != nil {
		h.fatalf("checkpoint: %v", err)
	}
	h.gen, h.ckpt = h.gen+1, true
	_, onDisk := h.shardFiles(h.cfg.stateDir, h.gen)
	if sn := getMetrics(h.t, h.ts.URL).Snapshot; sn.LastBytes != onDisk || sn.LastMS <= 0 || sn.LastHoldMS <= 0 || sn.LastHoldMS > sn.LastMS {
		h.fatalf("snapshot %+v, want last_bytes %d and 0 < last_hold_ms <= last_ms", sn, onDisk)
	}
}

// follow bootstraps a follower of the leader over HTTP, or keeps the one
// an earlier step bootstrapped, and waits until it has applied the leader's
// log: it serves every read the reference's way, counts the leader's work,
// refuses the three write verbs, is healthy, and checkpoints to the
// leader's shard files byte for byte.
func (h *daemonHistory) follow() {
	if h.f == nil {
		cfg := h.cfg
		cfg.follow, cfg.wal, cfg.faultPlan, cfg.stateDir, cfg.followPoll = h.ts.URL, false, "", h.t.TempDir(), 20*time.Millisecond
		f, err := newServer(cfg)
		if err != nil {
			h.fatalf("follower: %v", err)
		}
		h.f, h.fts = f, httptest.NewServer(f.handler())
		h.gen, h.ckpt = h.gen+1, true // the leader checkpointed to ship the bootstrap
	}
	waitApplied(h.t, h.fts.URL, getMetrics(h.t, h.ts.URL).WAL.LastLSN)
	h.read(h.fts.URL)
	if r := h.sameMetrics(h.fts.URL).Replication; r == nil || !r.Follower || r.Epoch == "" || r.Fatal != "" || r.Rebootstraps != 0 {
		h.fatalf("follower replication %+v, want it tailing its one bootstrap", r)
	}
	for _, c := range []struct {
		method, path string
		want         int
	}{{"POST", "/v1/tuples", 403}, {"POST", "/v1/tuples:batch", 403}, {"DELETE", "/v1/tuples/0:0", 403}, {"GET", "/healthz", 200}} {
		if status, _, body := h.call(h.fts.URL, c.method, c.path, "{}"); status != c.want {
			h.fatalf("follower: %s %s = %d %s, want %d", c.method, c.path, status, body, c.want)
		}
	}
	var files [2][][]byte
	for i, s := range []*server{h.s, h.f} {
		dir := h.t.TempDir()
		if _, err := s.db().Checkpoint(dir, nil); err != nil {
			h.fatalf("%v", err)
		}
		files[i], _ = h.shardFiles(dir, 1)
	}
	if !reflect.DeepEqual(files[0], files[1]) {
		h.fatalf("at the same LSN, the follower's shard files differ from the leader's")
	}
}

// shardFiles reads a snapshot generation's shard files in dir.
func (h *daemonHistory) shardFiles(dir string, gen uint64) (files [][]byte, size int64) {
	for i := range h.shards {
		b, err := os.ReadFile(filepath.Join(dir, persist.ShardSnapshotName(i, gen)))
		if err != nil {
			h.fatalf("%v", err)
		}
		files, size = append(files, b), size+int64(len(b))
	}
	return files, size
}

// unfollow stops the follower, if any: its leader is about to go away.
func (h *daemonHistory) unfollow() {
	if h.f != nil {
		h.fts.Close()
		h.f.close()
		h.f, h.fts = nil, nil
	}
}

// fault arms one of the WAL write path's four fault classes, as
// TestWALRepairKeepsHandles runs them on a bare pool, and appends until it
// strikes. The struck append and every write after it answer 503 +
// Retry-After, and /healthz says degraded while reads still serve the
// reference's answers, until the repair loop has healed the log — which a
// one-shot fault allows at once, and the others only once the step clears
// the plan.
func (h *daemonHistory) fault() {
	plan := []string{"fsync:nth=3", "fsync:from=2", "write:enospc-after=600", "write:short-at=2"}[h.rng.Intn(4)]
	h.op = "fault " + plan
	repairs := getMetrics(h.t, h.ts.URL).WAL.Repairs
	if err := h.s.faults.Program(plan); err != nil {
		h.fatalf("%v", err)
	}
	for n := 0; h.faultedAppend(); n++ {
		if n == 64 {
			h.fatalf("64 appends under the plan, none refused")
		}
	}
	healthy := h.faultedAppend()
	status, health := healthStatus(h.t, h.ts.URL)
	wal := getMetrics(h.t, h.ts.URL).WAL
	if status != http.StatusOK || health.Status == "degraded" && (health.Reason == "" || wal.Degraded && wal.DegradedReason == "") {
		h.fatalf("/healthz %d %+v, wal %+v, want 200, and a reason for any degradation", status, health, wal)
	}
	// Only a repair may have cleared the failure.
	if (healthy || health.Status != "degraded" || !wal.Degraded) && !healed(h.ts.URL, repairs) {
		h.fatalf("the daemon reports the log healthy under the fault, yet the repair loop has not healed it")
	}
	h.read(h.ts.URL)
	if h.s.faults.Clear(); !healed(h.ts.URL, repairs) {
		h.fatalf("the fault is cleared, yet the repair loop has not healed the log: %+v", getMetrics(h.t, h.ts.URL).WAL)
	}
}

// faultedAppend posts one row while a fault may hold and reports whether
// it was acknowledged, as the reference acknowledges it. A refusal must be
// the journal's 503 + Retry-After, and the reference applies the row too
// exactly when the daemon did: a write fault strikes after the apply.
func (h *daemonHistory) faultedAppend() bool {
	tuples, body := getMetrics(h.t, h.ts.URL).Merged.Tuples, h.appendBody()
	status, retryAfter, got := h.call(h.ts.URL, "POST", "/v1/tuples", body)
	h.enqueued++
	if status == http.StatusOK {
		h.record(h.agree("POST", "/v1/tuples", body, status, got))
		h.synced++
		h.lsn++
		return true
	}
	if status != http.StatusServiceUnavailable || retryAfter != "1" || !bytes.Contains(got, []byte("wal failure")) {
		h.fatalf("POST /v1/tuples under the fault: %d (Retry-After %q) %s, want 503 naming the wal failure, Retry-After 1", status, retryAfter, got)
	}
	if getMetrics(h.t, h.ts.URL).Merged.Tuples != tuples {
		// Journaled and applied; only its write or fsync failed.
		_, ack := h.refCall("POST", "/v1/tuples", body)
		h.record(ack)
		h.lsn++
	}
	return false
}
