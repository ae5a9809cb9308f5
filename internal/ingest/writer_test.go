package ingest

import (
	"context"
	"testing"
	"time"
)

// enqueue is EnqueueContext under a context that never ends, reporting
// whether the writer accepted op.
func enqueue[T any](w *Writer[T], op T) bool {
	return w.EnqueueContext(context.Background(), op) == nil
}

// TestWriterClose pins the shutdown contract: Close drains the queue,
// EnqueueContext afterwards reports false, and a second Close is a no-op.
func TestWriterClose(t *testing.T) {
	var n int
	w := NewWriter(16, func(batch []int) { n += len(batch) })
	for i := 0; i < 10; i++ {
		enqueue(w, i)
	}
	w.Close()
	if n != 10 {
		t.Fatalf("Close drained %d ops, want 10", n)
	}
	if enqueue(w, 99) {
		t.Error("EnqueueContext accepted an op after Close")
	}
	w.Close() // must not hang or panic
	if st := w.Stats(); st.Depth != 0 || st.Enqueued != 10 {
		t.Errorf("stats after close = %+v, want depth 0, enqueued 10", st)
	}
}

// TestWriterCapacity pins that a writer keeps the capacity it was built
// with under backpressure, that SetCap changes it for parked producers, and
// that a capacity <= 0 selects 256.
func TestWriterCapacity(t *testing.T) {
	gate := make(chan struct{})
	w := NewWriter(2, func(batch []int) { <-gate })
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			enqueue(w, i)
		}
		close(done)
	}()
	for producing := true; producing; {
		select {
		case gate <- struct{}{}:
			if st := w.Stats(); st.Depth > 2 {
				t.Fatalf("queue depth %d past the capacity 2", st.Depth)
			}
		case <-done:
			producing = false
		}
	}
	close(gate)
	w.Close()
	if st := w.Stats(); st.Cap != 2 || st.FullWaits == 0 {
		t.Errorf("Cap = %d, FullWaits = %d; want 2 and a producer blocked on the full queue", st.Cap, st.FullWaits)
	}

	// A producer parked on a full queue is admitted once SetCap grows it.
	release := make(chan struct{})
	w = NewWriter(1, func([]int) { <-release })
	enqueue(w, 1) // drained into the blocked process call
	enqueue(w, 2) // fills the queue
	parked := w.Stats().FullWaits
	admitted := make(chan bool)
	go func() { admitted <- enqueue(w, 3) }()
	for w.Stats().FullWaits == parked {
		time.Sleep(time.Millisecond)
	}
	w.SetCap(2)
	if !<-admitted {
		t.Error("the parked producer was refused")
	}
	if st := w.Stats(); st.Cap != 2 || st.Depth != 2 {
		t.Errorf("after SetCap(2): Cap = %d, Depth = %d; want 2 and 2", st.Cap, st.Depth)
	}
	w.SetCap(0)
	close(release)
	w.Close()
	if st := w.Stats(); st.Cap != 256 {
		t.Errorf("SetCap(0) Cap = %d, want 256", st.Cap)
	}
	w = NewWriter(0, func([]int) {})
	defer w.Close()
	if st := w.Stats(); st.Cap != 256 {
		t.Errorf("NewWriter(0) Cap = %d, want 256", st.Cap)
	}
}

// TestWriterBatchLimit pins the bound on one process call: a queue four
// times batchLimit deep drains in calls of at most batchLimit ops, in
// enqueue order, and MaxBatch reports the bound.
func TestWriterBatchLimit(t *testing.T) {
	const n = 4 * batchLimit
	started, release := make(chan struct{}), make(chan struct{})
	var sizes []int
	var got []int
	w := NewWriter(n, func(batch []int) {
		if len(got) == 0 {
			close(started)
			<-release // hold the writer so the rest of the ops pile up
		}
		sizes = append(sizes, len(batch))
		got = append(got, batch...)
	})
	enqueue(w, 0)
	<-started
	for i := 1; i <= n; i++ {
		enqueue(w, i)
	}
	close(release)
	w.Close()
	for i, size := range sizes {
		if size > batchLimit {
			t.Errorf("batch %d has %d ops, past the bound %d", i, size, batchLimit)
		}
	}
	if len(got) != n+1 {
		t.Fatalf("processed %d ops, want %d", len(got), n+1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("op %d processed at position %d: FIFO violated", v, i)
		}
	}
	if st := w.Stats(); st.MaxBatch != batchLimit || st.Batches != uint64(len(sizes)) {
		t.Errorf("MaxBatch = %d, Batches = %d; want %d and %d", st.MaxBatch, st.Batches, batchLimit, len(sizes))
	}
}

// TestHistBucket pins the power-of-two bucket mapping.
func TestHistBucket(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 256: 8, 1 << 20: batchHistBuckets - 1}
	for n, want := range cases {
		if got := histBucket(n); got != want {
			t.Errorf("histBucket(%d) = %d, want %d", n, got, want)
		}
	}
}
