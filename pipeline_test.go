package situfact

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestPipelineCompletionStress hammers a journaled pool from many
// goroutines while StartPipeline resizes the shard queues mid-flight: every
// acknowledged op must be applied exactly once, and Close must complete
// every handed-off future (a lost wg.Done here deadlocks the test). Run
// under -race in CI with -count=3.
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
	resize := func(depth int) {
		if err := p.StartPipeline(PipelineOptions{QueueDepth: depth}); err != nil {
			t.Error(err)
		}
	}
	// Tiny queues fill constantly, so full-wait blocks and many small
	// commit groups happen under the race detector.
	resize(8)
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
	// Resize the queues mid-flight: producers parked on a full queue
	// re-check against each new capacity.
	for _, depth := range []int{1, 3, 8} {
		resize(depth)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if want := int(appended - deleted); p.Len() != want {
		t.Errorf("Len = %d, want %d (appended %d − deleted %d)", p.Len(), want, appended, deleted)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.LastLSN != st.SyncedLSN {
		t.Errorf("wal last LSN %d != synced %d after Close", st.LastLSN, st.SyncedLSN)
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

// TestPipelineLifecycle pins the writers' lifecycle: they run from NewPool
// to Close at the default capacity, StartPipeline sets the capacity,
// StopPipeline changes nothing, and a write after Close fails naming the
// closed pool — neither journaled nor applied — while reads keep serving.
func TestPipelineLifecycle(t *testing.T) {
	p, err := NewPool(poolSchema(t), PoolOptions{Shards: 2, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w, err := OpenWAL(p, t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	caps := func(want int) {
		t.Helper()
		sum := p.IngestSummary()
		if len(sum.PerShard) != 2 || sum.QueueCap != 2*want {
			t.Fatalf("IngestSummary = %+v, want 2 writers of capacity %d", sum, want)
		}
	}
	caps(256)
	rows := poolRows(4)
	if _, err := p.Append(rows[0].Dims, rows[0].Measures); err != nil {
		t.Fatal(err)
	}
	if err := p.StartPipeline(PipelineOptions{QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	caps(8)
	p.StopPipeline()
	caps(8)
	if _, err := p.Append(rows[1].Dims, rows[1].Measures); err != nil {
		t.Fatalf("append after StopPipeline: %v", err)
	}
	if err := p.StartPipeline(PipelineOptions{}); err != nil {
		t.Fatal(err)
	}
	caps(256)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	lsn := w.Stats().LastLSN
	for name, write := range map[string]func() error{
		"Append":      func() error { _, err := p.Append(rows[2].Dims, rows[2].Measures); return err },
		"AppendBatch": func() error { _, err := p.AppendBatch(rows[2:]); return err },
		"Delete":      func() error { return p.Delete(0, 0) },
	} {
		if err := write(); err == nil || !strings.Contains(err.Error(), "closed pool") {
			t.Errorf("%s after Close = %v, want an error naming the closed pool", name, err)
		}
	}
	if p.Len() != 2 || w.Stats().LastLSN != lsn {
		t.Errorf("writes after Close moved the pool: Len %d, LastLSN %d → %d; want 2 and no record", p.Len(), lsn, w.Stats().LastLSN)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
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

// TestPipelineRefusesEndedContext pins the one acceptance point: a write
// whose context has already ended is refused before it is queued. Append,
// AppendBatch and Delete each fail with context.Canceled, and neither the
// pool nor the journal moves, also once StartPipeline has sized the shard
// queues.
func TestPipelineRefusesEndedContext(t *testing.T) {
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	rows := poolRows(5)
	t.Run("pipelined", func(t *testing.T) {
		p, err := NewPool(poolSchema(t), PoolOptions{Shards: 2, ShardDim: "team"})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		w, err := OpenWAL(p, t.TempDir(), WALOptions{})
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
		arr, err := p.Append(rows[0].Dims, rows[0].Measures)
		if err != nil {
			t.Fatal(err)
		}
		len0, m0, lsn0 := p.Len(), p.Metrics(), w.Stats().LastLSN
		unmoved := func(op string) {
			t.Helper()
			if p.Len() != len0 || p.Metrics() != m0 || w.Stats().LastLSN != lsn0 {
				t.Errorf("%s under an ended context moved the pool: Len %d → %d, LastLSN %d → %d",
					op, len0, p.Len(), lsn0, w.Stats().LastLSN)
			}
		}
		if got, err := p.AppendContext(ended, rows[1].Dims, rows[1].Measures, 5); got != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("AppendContext = %v, %v; want nil, context.Canceled", got, err)
		}
		unmoved("Append")
		arrs, err := p.AppendBatchContext(ended, rows[1:], 5)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("AppendBatchContext error = %v, want context.Canceled", err)
		}
		if errs, _ := err.(interface{ Unwrap() []error }); errs == nil || len(errs.Unwrap()) != len(rows)-1 {
			t.Errorf("AppendBatchContext error = %v, want one per row", err)
		}
		for i, a := range arrs {
			if a != nil {
				t.Errorf("row %d of a refused batch has an arrival", i)
			}
		}
		unmoved("AppendBatch")
		if err := p.DeleteContext(ended, arr.Shard, arr.TupleID); !errors.Is(err, context.Canceled) {
			t.Errorf("DeleteContext = %v, want context.Canceled", err)
		}
		unmoved("Delete")
	})
}
