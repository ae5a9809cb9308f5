package situfact

import (
	"context"
	"errors"
	"strings"
	"testing"
)

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
