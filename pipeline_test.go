package situfact

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// newPipelinedPool builds a pool with the ingest pipeline running.
func newPipelinedPool(t *testing.T, shards int, depth int) *Pool {
	t.Helper()
	p, err := NewPool(poolSchema(t), PoolOptions{Shards: shards, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StartPipeline(PipelineOptions{QueueDepth: depth}); err != nil {
		p.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestPipelineEquivalence is the pipeline's acceptance property: the
// write path called from the per-shard batching writers yields, for
// every arrival, facts bit-identical to the same function called inline
// over the same substream, and the same final metrics — via Append,
// AppendBatch, and interleaved Deletes.
func TestPipelineEquivalence(t *testing.T) {
	rows := poolRows(200)
	inline, err := NewPool(poolSchema(t), PoolOptions{Shards: 3, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer inline.Close()
	piped := newPipelinedPool(t, 3, 0)

	for i, r := range rows {
		want, err := inline.Append(r.Dims, r.Measures)
		if err != nil {
			t.Fatal(err)
		}
		got, err := piped.Append(r.Dims, r.Measures)
		if err != nil {
			t.Fatal(err)
		}
		if got.Shard != want.Shard {
			t.Fatalf("row %d routed to shard %d, inline pool routed to %d", i, got.Shard, want.Shard)
		}
		factsEqual(t, fmt.Sprintf("row %d (pipelined Append)", i), want, got)
		// Interleave deletes so the queue carries both op types in order.
		if i%17 == 3 {
			if err := inline.Delete(want.Shard, want.TupleID); err != nil {
				t.Fatal(err)
			}
			if err := piped.Delete(got.Shard, got.TupleID); err != nil {
				t.Fatalf("pipelined delete of %d:%d: %v", got.Shard, got.TupleID, err)
			}
		}
	}
	if dm, pm := inline.Metrics(), piped.Metrics(); dm != pm {
		t.Errorf("pipelined metrics %+v != inline %+v", pm, dm)
	}
	if inline.Len() != piped.Len() {
		t.Errorf("pipelined Len %d != inline %d", piped.Len(), inline.Len())
	}

	// AppendBatch through the pipeline, against the same inline reference.
	inlineB, err := NewPool(poolSchema(t), PoolOptions{Shards: 3, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer inlineB.Close()
	pipedB := newPipelinedPool(t, 3, 8) // small queue: batches must split
	var wantArrs, gotArrs []*Arrival
	for lo := 0; lo < len(rows); lo += 32 {
		hi := min(lo+32, len(rows))
		w, err := inlineB.AppendBatch(rows[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		g, err := pipedB.AppendBatch(rows[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		wantArrs = append(wantArrs, w...)
		gotArrs = append(gotArrs, g...)
	}
	for i := range wantArrs {
		factsEqual(t, fmt.Sprintf("row %d (pipelined AppendBatch)", i), wantArrs[i], gotArrs[i])
	}
	if dm, pm := inlineB.Metrics(), pipedB.Metrics(); dm != pm {
		t.Errorf("pipelined batch metrics %+v != inline %+v", pm, dm)
	}
}

// TestPipelineAdaptiveEquivalence is TestPipelineEquivalence with
// adaptive queue depths on. Facts and metrics must stay bit-identical
// both to inline execution over the same engines and to a fixed-depth
// pipeline — queue-capacity movement is pure mechanics, invisible to
// discovery.
func TestPipelineAdaptiveEquivalence(t *testing.T) {
	newP := func(pipelined, adaptive bool) *Pool {
		p, err := NewPool(poolSchema(t), PoolOptions{Shards: 3, ShardDim: "team"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		if pipelined {
			if err := p.StartPipeline(PipelineOptions{QueueDepth: 64, AdaptiveQueue: adaptive}); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	inline, fixed, adaptive := newP(false, false), newP(true, false), newP(true, true)
	for i, r := range poolRows(180) {
		want, err := inline.Append(r.Dims, r.Measures)
		if err != nil {
			t.Fatal(err)
		}
		gf, err := fixed.Append(r.Dims, r.Measures)
		if err != nil {
			t.Fatal(err)
		}
		ga, err := adaptive.Append(r.Dims, r.Measures)
		if err != nil {
			t.Fatal(err)
		}
		factsEqual(t, fmt.Sprintf("row %d (fixed-depth)", i), want, gf)
		factsEqual(t, fmt.Sprintf("row %d (adaptive-depth)", i), want, ga)
		if i%13 == 5 {
			for name, p := range map[string]*Pool{"inline": inline, "fixed": fixed, "adaptive": adaptive} {
				if err := p.Delete(want.Shard, want.TupleID); err != nil {
					t.Fatalf("row %d: %s delete: %v", i, name, err)
				}
			}
		}
	}
	dm := inline.Metrics()
	if fm := fixed.Metrics(); fm != dm {
		t.Errorf("fixed-depth metrics %+v != inline %+v", fm, dm)
	}
	if am := adaptive.Metrics(); am != dm {
		t.Errorf("adaptive-depth metrics %+v != inline %+v", am, dm)
	}
	if inline.Len() != fixed.Len() || inline.Len() != adaptive.Len() {
		t.Errorf("Len: inline %d, fixed %d, adaptive %d", inline.Len(), fixed.Len(), adaptive.Len())
	}
	// The adaptive writers must report capacities inside [floor, ceiling];
	// the fixed ones must sit exactly at the configured depth.
	for i, st := range adaptive.PipelineStats() {
		if st.Cap < 16 || st.Cap > 64 {
			t.Errorf("adaptive shard %d cap = %d, want within [16, 64]", i, st.Cap)
		}
	}
	for i, st := range fixed.PipelineStats() {
		if st.Cap != 64 || st.Resizes != 0 {
			t.Errorf("fixed shard %d cap = %d resizes = %d, want 64 and 0", i, st.Cap, st.Resizes)
		}
	}
	if sum := adaptive.IngestSummary(); !sum.Pipeline || sum.Enqueued == 0 || sum.QueueCap < 3*16 {
		t.Errorf("adaptive IngestSummary = %+v, want a live pipeline with summed caps", sum)
	}
}

// TestFailedDeleteInlineVsQueued pins the one reachable journaled-then-
// failed op: a Delete of a tombstoned or unknown tuple is journaled before
// its validity is known, fails at apply, and must (a) return the same
// error whether the write path ran inline or from a writer queue and (b)
// re-fail at replay, counted Failed, leaving recovered state untouched.
func TestFailedDeleteInlineVsQueued(t *testing.T) {
	rows := poolRows(6)
	errs := map[string][]string{}
	for _, mode := range []string{"inline", "queued"} {
		dir := t.TempDir()
		p, err := NewPool(poolSchema(t), PoolOptions{Shards: 2, ShardDim: "team"})
		if err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(p, dir, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AttachWAL(w); err != nil {
			t.Fatal(err)
		}
		if mode == "queued" {
			if err := p.StartPipeline(PipelineOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		var first *Arrival
		for _, r := range rows {
			arr, err := p.Append(r.Dims, r.Measures)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = arr
			}
		}
		if err := p.Delete(first.Shard, first.TupleID); err != nil {
			t.Fatal(err)
		}
		again := p.Delete(first.Shard, first.TupleID)
		unknown := p.Delete(first.Shard, 999)
		if !errors.Is(again, ErrAlreadyDeleted) || !errors.Is(unknown, ErrNotFound) {
			t.Fatalf("%s: repeated delete = %v, unknown delete = %v", mode, again, unknown)
		}
		errs[mode] = []string{again.Error(), unknown.Error()}
		wantMetrics, wantLen := p.Metrics(), p.Len()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := NewPool(poolSchema(t), PoolOptions{Shards: 2, ShardDim: "team"})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		w2, err := OpenWAL(r, dir, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		stats, err := r.ReplayWAL(w2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Records != len(rows)+3 || stats.Applied != len(rows)+1 || stats.Failed != 2 {
			t.Errorf("%s: replay stats %+v, want %d records, %d applied, 2 failed", mode, stats, len(rows)+3, len(rows)+1)
		}
		if r.Metrics() != wantMetrics || r.Len() != wantLen {
			t.Errorf("%s: replayed len %d metrics %+v, want %d %+v", mode, r.Len(), r.Metrics(), wantLen, wantMetrics)
		}
	}
	if !reflect.DeepEqual(errs["inline"], errs["queued"]) {
		t.Errorf("failed deletes report differently:\n inline %q\n queued %q", errs["inline"], errs["queued"])
	}
}

// TestPipelineCompletionStress hammers a journaled adaptive pipeline
// from many goroutines while the pipeline is stopped and restarted
// mid-flight: every acknowledged op must be applied exactly once, and
// shutdown must complete every handed-off future (a lost wg.Done here
// deadlocks the test). Run under -race in CI with -count=3.
func TestPipelineCompletionStress(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPool(poolSchema(t), PoolOptions{Shards: 4, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w, err := OpenWAL(p, dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	start := func() {
		// Tiny ceiling: queues fill constantly, so grows, full-wait blocks
		// and many small commit groups all happen under the race detector.
		if err := p.StartPipeline(PipelineOptions{QueueDepth: 8, AdaptiveQueue: true}); err != nil {
			t.Error(err)
		}
	}
	start()
	const workers, perWorker = 8, 50
	rows := poolRows(workers * perWorker)
	var appended, deleted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, r := range rows[g*perWorker : (g+1)*perWorker] {
				arr, err := p.Append(r.Dims, r.Measures)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				appended++
				mu.Unlock()
				if i%7 == 2 {
					if err := p.Delete(arr.Shard, arr.TupleID); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					deleted++
					mu.Unlock()
				}
			}
		}(g)
	}
	// Bounce the pipeline mid-flight: racing ops run inline, and the
	// restart races new enqueues against fresh writers.
	for i := 0; i < 3; i++ {
		p.StopPipeline()
		start()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if want := int(appended - deleted); p.Len() != want {
		t.Errorf("Len = %d, want %d (appended %d − deleted %d)", p.Len(), want, appended, deleted)
	}
	p.StopPipeline()
	if st := w.Stats(); st.LastLSN != st.SyncedLSN {
		t.Errorf("wal last LSN %d != synced %d after stop", st.LastLSN, st.SyncedLSN)
	}
}

// TestPipelineWALReplay journals a pipelined stream (appends + deletes),
// then replays the log into a fresh pool: recovered metrics and length
// must equal the original — the batched journal pass preserves
// journal-order-equals-apply-order per shard.
func TestPipelineWALReplay(t *testing.T) {
	rows := poolRows(120)
	dir := t.TempDir()
	p, err := NewPool(poolSchema(t), PoolOptions{Shards: 3, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(p, dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if err := p.StartPipeline(PipelineOptions{}); err != nil {
		t.Fatal(err)
	}
	var arrs []*Arrival
	for _, r := range rows {
		arr, err := p.Append(r.Dims, r.Measures)
		if err != nil {
			t.Fatal(err)
		}
		arrs = append(arrs, arr)
	}
	for i := 0; i < len(arrs); i += 13 {
		if err := p.Delete(arrs[i].Shard, arrs[i].TupleID); err != nil {
			t.Fatal(err)
		}
	}
	wantMetrics, wantLen := p.Metrics(), p.Len()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewPool(poolSchema(t), PoolOptions{Shards: 3, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w2, err := OpenWAL(r, dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	stats, err := r.ReplayWAL(w2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed > 0 {
		t.Errorf("replay re-failed %d records of a clean stream", stats.Failed)
	}
	if got := r.Metrics(); got != wantMetrics {
		t.Errorf("replayed metrics %+v, want %+v", got, wantMetrics)
	}
	if r.Len() != wantLen {
		t.Errorf("replayed Len %d, want %d", r.Len(), wantLen)
	}
}

// TestPipelineCheckpointTail checkpoints mid-stream with the pipeline
// running, keeps ingesting, and recovers snapshot + tail: the per-shard
// LSN watermarks captured under the shard lock must stay exact even
// though journaling is batched.
func TestPipelineCheckpointTail(t *testing.T) {
	rows := poolRows(160)
	dir := t.TempDir()
	snapDir := t.TempDir()
	p, err := NewPool(poolSchema(t), PoolOptions{Shards: 3, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(p, dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if err := p.StartPipeline(PipelineOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[:100] {
		if _, err := p.Append(r.Dims, r.Measures); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Checkpoint(snapDir, nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[100:] {
		if _, err := p.Append(r.Dims, r.Measures); err != nil {
			t.Fatal(err)
		}
	}
	wantMetrics, wantLen := p.Metrics(), p.Len()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, _, err := RestorePool(poolSchema(t), snapDir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w2, err := OpenWAL(r, dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	stats, err := r.ReplayWAL(w2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped == 0 {
		t.Error("replay skipped nothing; the checkpoint's watermarks were lost")
	}
	if got := r.Metrics(); got != wantMetrics {
		t.Errorf("recovered metrics %+v, want %+v", got, wantMetrics)
	}
	if r.Len() != wantLen {
		t.Errorf("recovered Len %d, want %d", r.Len(), wantLen)
	}
}

// TestPipelineStress hammers one pipelined pool from many goroutines —
// mixed Append, AppendBatch and Delete, with a WAL attached and a small
// queue so backpressure engages. Run under -race (CI does); the
// assertions are conservation properties: every acknowledged row is
// either live or deleted, and the stats counters account for every op.
func TestPipelineStress(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPool(poolSchema(t), PoolOptions{Shards: 4, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w, err := OpenWAL(p, dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if err := p.StartPipeline(PipelineOptions{QueueDepth: 16}); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 60
	rows := poolRows(workers * perWorker)
	var appended, deleted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := rows[g*perWorker : (g+1)*perWorker]
			for i := 0; i < len(mine); {
				if g%3 == 0 && i+8 <= len(mine) { // every third worker batches
					arrs, err := p.AppendBatch(mine[i : i+8])
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					appended += int64(len(arrs))
					mu.Unlock()
					i += 8
					continue
				}
				arr, err := p.Append(mine[i].Dims, mine[i].Measures)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				appended++
				mu.Unlock()
				if i%9 == 4 { // delete my own acked row: per-shard FIFO orders it after the append
					if err := p.Delete(arr.Shard, arr.TupleID); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					deleted++
					mu.Unlock()
				}
				i++
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if want := int(appended - deleted); p.Len() != want {
		t.Errorf("Len = %d, want %d (appended %d − deleted %d)", p.Len(), want, appended, deleted)
	}
	var enq uint64
	for _, st := range p.PipelineStats() {
		enq += st.Enqueued
		var hist uint64
		for _, c := range st.BatchHist {
			hist += c
		}
		if hist != st.Batches {
			t.Errorf("shard histogram sums to %d, want %d batches", hist, st.Batches)
		}
	}
	if want := uint64(appended + deleted); enq != want {
		t.Errorf("writers enqueued %d ops, want %d", enq, want)
	}
	// The log must carry exactly one record per acknowledged op.
	if st := w.Stats(); st.LastLSN != uint64(appended+deleted) {
		t.Errorf("wal holds %d records, want %d", st.LastLSN, appended+deleted)
	}
}

// TestPipelineLifecycle pins start/stop semantics: double start errors,
// stop reverts to inline execution, and both ways of calling ingest
// correctly.
func TestPipelineLifecycle(t *testing.T) {
	p, err := NewPool(poolSchema(t), PoolOptions{Shards: 2, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.StartPipeline(PipelineOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.StartPipeline(PipelineOptions{}); err == nil {
		t.Fatal("second StartPipeline succeeded")
	} else if !strings.Contains(err.Error(), "already has an ingest pipeline") {
		t.Fatalf("second StartPipeline error = %v", err)
	}
	if p.PipelineStats() == nil {
		t.Fatal("PipelineStats = nil while running")
	}
	rows := poolRows(10)
	if _, err := p.Append(rows[0].Dims, rows[0].Measures); err != nil {
		t.Fatal(err)
	}
	p.StopPipeline()
	if p.PipelineStats() != nil {
		t.Fatal("PipelineStats non-nil after stop")
	}
	if _, err := p.Append(rows[1].Dims, rows[1].Measures); err != nil {
		t.Fatalf("inline append after StopPipeline: %v", err)
	}
	p.StopPipeline() // idempotent
	if err := p.StartPipeline(PipelineOptions{}); err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
	if _, err := p.Append(rows[2].Dims, rows[2].Measures); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
}

// TestPipelineRejectsBadRows pins the pre-queue validation: malformed
// and oversized rows fail synchronously, are never journaled, and never
// reach the writers.
func TestPipelineRejectsBadRows(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPool(poolSchema(t), PoolOptions{Shards: 2, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w, err := OpenWAL(p, dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if err := p.StartPipeline(PipelineOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append([]string{"only-one"}, []float64{1, 2}); err == nil {
		t.Error("short row accepted")
	}
	huge := strings.Repeat("x", 17<<20)
	if _, err := p.Append([]string{huge, "p", "Jan"}, []float64{1, 2}); !errors.Is(err, ErrRowTooLarge) {
		t.Errorf("oversized row error = %v, want ErrRowTooLarge", err)
	}
	if _, err := p.AppendBatch([]Row{{Dims: []string{huge, "p", "Jan"}, Measures: []float64{1, 2}}}); !errors.Is(err, ErrRowTooLarge) {
		t.Errorf("oversized batch row error = %v, want ErrRowTooLarge", err)
	}
	if st := w.Stats(); st.LastLSN != 0 {
		t.Errorf("rejected rows left %d WAL records", st.LastLSN)
	}
	for _, st := range p.PipelineStats() {
		if st.Enqueued != 0 {
			t.Errorf("rejected rows reached a writer queue (enqueued %d)", st.Enqueued)
		}
	}
	// Unsupported deletes are rejected before the queue and the journal.
	tp, err := NewPool(poolSchema(t), PoolOptions{Shards: 2, ShardDim: "team",
		Engine: Options{Algorithm: AlgoSTopDown}})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if err := tp.StartPipeline(PipelineOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := tp.Delete(0, 0); !errors.Is(err, ErrDeleteUnsupported) {
		t.Errorf("TopDown pipelined delete error = %v, want ErrDeleteUnsupported", err)
	}
	for _, st := range tp.PipelineStats() {
		if st.Enqueued != 0 {
			t.Errorf("unsupported delete reached a writer queue")
		}
	}
}
