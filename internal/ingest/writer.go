// Package ingest provides the batching half of a pool's write path: a
// long-lived writer goroutine fed by a bounded queue, draining what has
// accumulated since its last wakeup into batches of up to 64 ops.
//
// The package is deliberately generic and dependency-free — it knows
// nothing about rows, journals or shards. The pool builds one Writer per
// shard and supplies a process function that journals, applies and
// completes the drained operations; Writer contributes the queueing
// discipline (FIFO per writer, bounded, blocking on overflow, a bounded
// batch) and the monitoring counters (queue depth, drained-batch-size
// histogram, backpressure waits) that /v1/metrics reports.
package ingest

import (
	"context"
	"errors"
	"math/bits"
	"sync"
)

// ErrClosed is EnqueueContext's refusal once the writer is closed: the op
// was not accepted and will never be processed.
var ErrClosed = errors.New("ingest: writer closed")

// defaultCap is the queue capacity a capacity <= 0 selects.
const defaultCap = 256

// batchLimit is the most ops one process call receives. Whatever queued
// past it stays queued for the next call, so a process function that
// holds a lock across its batch holds it for at most this many ops.
const batchLimit = 64

// batchHistBuckets is the number of power-of-two drained-batch-size
// buckets: bucket i counts batches of size in (2^(i-1), 2^i], so bucket 0
// is single-op batches (no batching win) and the top bucket is everything
// past 2^(batchHistBuckets-2). Batches stop at batchLimit, so the top two
// buckets stay empty; they stay in the histogram /v1/metrics reports.
const batchHistBuckets = 9

// Writer is one batching queue/goroutine pair. EnqueueContext is safe for any
// number of producers; the single consumer goroutine drains the queue
// into batches of up to batchLimit ops and hands each to the process
// function, so per-op costs the function can amortise (locks, journal
// passes, fsyncs) are paid once per batch under load and once per op when
// idle.
type Writer[T any] struct {
	mu      sync.Mutex
	notFull sync.Cond // waits: producers blocked on a full queue
	wake    sync.Cond // waits: the consumer, on an empty queue
	queue   []T       // pending ops, FIFO
	spare   []T       // drained buffer recycled between wakeups
	cap     int       // the queue's capacity (SetCap)
	closed  bool
	done    chan struct{}

	// Monitoring counters, maintained under mu.
	enqueued  uint64
	batches   uint64
	maxBatch  int
	fullWaits uint64 // producer blocks on a full queue (backpressure)
	canceled  uint64 // producers refused because their context had ended
	hist      [batchHistBuckets]uint64
}

// Stats is a monitoring snapshot of one Writer.
type Stats struct {
	// Depth is the current queue depth (ops accepted, not yet drained).
	Depth int `json:"queue_depth"`
	// Cap is the queue's capacity.
	Cap int `json:"queue_cap"`
	// Enqueued is the total ops accepted since start.
	Enqueued uint64 `json:"enqueued"`
	// Batches is the number of drain wakeups; Enqueued/Batches is the
	// mean drained-batch size.
	Batches uint64 `json:"batches"`
	// MaxBatch is the largest batch drained in one wakeup.
	MaxBatch int `json:"max_batch"`
	// FullWaits counts producer blocks on a full queue — each is one
	// backpressure event where ingest outran the writer.
	FullWaits uint64 `json:"full_waits"`
	// Canceled counts producers whose context had ended, before the call
	// or while parked on a full queue: the op was never accepted, never
	// journaled and never acknowledged (EnqueueContext).
	Canceled uint64 `json:"canceled"`
	// BatchHist is a power-of-two histogram of drained batch sizes:
	// bucket i counts batches of size (2^(i-1), 2^i], the last bucket
	// counts everything larger. Monitoring shows the pool-wide merge only.
	BatchHist [batchHistBuckets]uint64 `json:"-"`
}

// NewWriter starts a writer whose queue holds at most capacity ops
// (<= 0 selects 256). process receives each drained batch, at most
// batchLimit ops in enqueue order, on the writer goroutine; it must not
// call back into this Writer.
func NewWriter[T any](capacity int, process func(batch []T)) *Writer[T] {
	w := &Writer[T]{cap: capOf(capacity), done: make(chan struct{})}
	w.notFull.L = &w.mu
	w.wake.L = &w.mu
	go w.run(process)
	return w
}

// EnqueueContext appends op to the queue, blocking while the queue is
// full. Acceptance is the op's one cancellation point: a ctx that has
// ended — before the call, or while the producer is parked — refuses the
// op under the writer's lock and EnqueueContext returns ctx's error. The
// op was never accepted, so nothing will be journaled or acknowledged for
// it (counted in Stats.Canceled). Once the op is in the queue it
// completes normally. A closed writer refuses every op with ErrClosed.
func (w *Writer[T]) EnqueueContext(ctx context.Context, op T) error {
	w.mu.Lock()
	for !w.closed {
		if err := ctx.Err(); err != nil {
			w.canceled++
			w.mu.Unlock()
			return err
		}
		if len(w.queue) < w.cap {
			w.queue = append(w.queue, op)
			w.enqueued++
			w.mu.Unlock()
			w.wake.Signal()
			return nil
		}
		w.fullWaits++
		// The cond has no cancellable wait, so a ctx that can end arranges
		// a Broadcast for when it does; taking mu in the callback
		// guarantees the waiter is parked (or already past the check) when
		// the wakeup fires.
		stop := func() bool { return false }
		if ctx.Done() != nil {
			stop = context.AfterFunc(ctx, func() {
				w.mu.Lock()
				w.notFull.Broadcast()
				w.mu.Unlock()
			})
		}
		w.notFull.Wait()
		stop()
	}
	w.mu.Unlock()
	return ErrClosed
}

// SetCap changes the queue's capacity (<= 0 selects 256). Producers parked
// on a full queue re-check against the new capacity; ops already queued
// past a smaller one stay queued.
func (w *Writer[T]) SetCap(capacity int) {
	w.mu.Lock()
	w.cap = capOf(capacity)
	w.mu.Unlock()
	w.notFull.Broadcast()
}

func capOf(capacity int) int {
	if capacity <= 0 {
		return defaultCap
	}
	return capacity
}

// run is the writer goroutine: take up to batchLimit queued ops, process
// them as one batch, repeat until closed and empty.
func (w *Writer[T]) run(process func([]T)) {
	defer close(w.done)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.wake.Wait()
		}
		if len(w.queue) == 0 { // closed and drained
			w.mu.Unlock()
			return
		}
		// The batch is copied out so producers refill w.queue while it is
		// processed outside the lock.
		batch := append(w.spare[:0], w.queue[:min(len(w.queue), batchLimit)]...)
		rest := copy(w.queue, w.queue[len(batch):])
		clear(w.queue[rest:])
		w.queue = w.queue[:rest]
		w.batches++
		if len(batch) > w.maxBatch {
			w.maxBatch = len(batch)
		}
		w.hist[histBucket(len(batch))]++
		w.mu.Unlock()
		w.notFull.Broadcast()

		process(batch)

		clear(batch) // drop op references so pooled ops are collectable
		w.spare = batch
	}
}

// histBucket maps a batch size to its power-of-two bucket.
func histBucket(n int) int {
	b := bits.Len(uint(n - 1)) // ceil(log2 n); 0 for n == 1
	if b >= batchHistBuckets {
		b = batchHistBuckets - 1
	}
	return b
}

// Close stops accepting ops, waits for the queue to drain and the writer
// goroutine to exit. Safe to call twice; EnqueueContext returns ErrClosed
// afterwards.
func (w *Writer[T]) Close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		w.wake.Signal()
		w.notFull.Broadcast()
	}
	w.mu.Unlock()
	<-w.done
}

// Stats returns a monitoring snapshot.
func (w *Writer[T]) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Depth:     len(w.queue),
		Cap:       w.cap,
		Enqueued:  w.enqueued,
		Batches:   w.batches,
		MaxBatch:  w.maxBatch,
		FullWaits: w.fullWaits,
		Canceled:  w.canceled,
		BatchHist: w.hist,
	}
}
