package situfact

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

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
	for _, st := range p.IngestSummary().PerShard {
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
	if sum := p.IngestSummary(); !sum.Pipeline || len(sum.PerShard) != 2 {
		t.Fatalf("IngestSummary while running = %+v, want the pipeline and 2 shards", sum)
	}
	rows := poolRows(10)
	if _, err := p.Append(rows[0].Dims, rows[0].Measures); err != nil {
		t.Fatal(err)
	}
	p.StopPipeline()
	if sum := p.IngestSummary(); sum.Pipeline || sum.PerShard != nil {
		t.Fatalf("IngestSummary after stop = %+v, want the zero summary", sum)
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
	for _, st := range p.IngestSummary().PerShard {
		if st.Enqueued != 0 {
			t.Errorf("rejected rows reached a writer queue (enqueued %d)", st.Enqueued)
		}
	}
}
