// Package ingest provides the batching half of the pipelined ingest
// path: a long-lived writer goroutine fed by a bounded queue, draining
// whatever has accumulated since its last wakeup into one batch.
//
// The package is deliberately generic and dependency-free — it knows
// nothing about rows, journals or shards. The pool builds one Writer per
// shard and supplies a process function that journals, applies and
// completes the drained operations; Writer contributes the queueing
// discipline (FIFO per writer, bounded, blocking on overflow) and the
// monitoring counters (queue depth, drained-batch-size histogram,
// backpressure waits) that /v1/metrics reports.
package ingest

import (
	"context"
	"math/bits"
	"sync"
)

// batchHistBuckets is the number of power-of-two drained-batch-size
// buckets: bucket i counts batches of size in (2^(i-1), 2^i], so bucket 0
// is single-op batches (no batching win) and the top bucket is everything
// past 2^(batchHistBuckets-2).
const batchHistBuckets = 9

// Adaptive-capacity tuning (NewAdaptiveWriter). The queue capacity floats
// between a floor and a ceiling, driven by the two signals the writer
// already collects: producer blocks on a full queue (backpressure — the
// queue is too small for the arrival rate) and drained batch sizes (a
// batch much smaller than the capacity means the queue is oversized and
// only adds worst-case latency and memory).
const (
	// shrinkWindow is the number of consecutive calm drains — no full
	// waits, batch at most cap/shrinkFactor — before the capacity halves.
	shrinkWindow = 32
	// shrinkFactor is the headroom a calm drain must leave: only batches
	// ≤ cap/shrinkFactor count toward shrinking, so capacity settles at
	// two doublings above the observed batch size, not flush against it.
	shrinkFactor = 4
)

// Writer is one batching queue/goroutine pair. EnqueueContext is safe for any
// number of producers; the single consumer goroutine drains the queue
// into maximal batches and hands each to the process function, so per-op
// costs the function can amortise (locks, journal passes, fsyncs) are
// paid once per batch under load and once per op when idle.
type Writer[T any] struct {
	mu      sync.Mutex
	notFull sync.Cond // waits: producers blocked on a full queue
	wake    sync.Cond // waits: the consumer, on an empty queue
	queue   []T       // pending ops, FIFO
	spare   []T       // drained buffer recycled between wakeups
	cap     int       // current capacity; floats in [floor, ceil]
	floor   int       // adaptive lower bound; floor == ceil means fixed
	ceil    int       // adaptive upper bound (the configured depth)
	closed  bool
	done    chan struct{}

	// Monitoring counters, maintained under mu.
	enqueued  uint64
	batches   uint64
	maxBatch  int
	fullWaits uint64 // producer blocks on a full queue (backpressure)
	canceled  uint64 // producers that gave up while parked on a full queue
	resizes   uint64 // adaptive capacity changes (grow + shrink)
	hist      [batchHistBuckets]uint64

	// Adaptation state, maintained under mu (see adapt).
	fullSinceDrain uint64 // full waits observed since the last drain
	calmDrains     int    // consecutive drains qualifying for a shrink
}

// Stats is a monitoring snapshot of one Writer.
type Stats struct {
	// Depth is the current queue depth (ops accepted, not yet drained).
	Depth int
	// Cap is the current queue capacity. Fixed writers report their
	// configured depth; adaptive writers report where in [floor, ceiling]
	// the capacity currently sits.
	Cap int
	// Resizes counts adaptive capacity changes (grows and shrinks); 0 for
	// a fixed writer.
	Resizes uint64
	// Enqueued is the total ops accepted since start.
	Enqueued uint64
	// Batches is the number of drain wakeups; Enqueued/Batches is the
	// mean drained-batch size.
	Batches uint64
	// MaxBatch is the largest batch drained in one wakeup.
	MaxBatch int
	// FullWaits counts producer blocks on a full queue — each is one
	// backpressure event where ingest outran the writer.
	FullWaits uint64
	// Canceled counts producers whose context ended while they were
	// parked on a full queue: the op was never accepted, never journaled
	// and never acknowledged (EnqueueContext).
	Canceled uint64
	// BatchHist is a power-of-two histogram of drained batch sizes:
	// bucket i counts batches of size (2^(i-1), 2^i], the last bucket
	// counts everything larger.
	BatchHist [batchHistBuckets]uint64
}

// NewWriter starts a writer whose queue holds at most capacity ops
// (<= 0 selects 256). process receives each drained batch on the writer
// goroutine; it must not call back into this Writer.
func NewWriter[T any](capacity int, process func(batch []T)) *Writer[T] {
	if capacity <= 0 {
		capacity = 256
	}
	return startWriter(capacity, capacity, process)
}

// NewAdaptiveWriter starts a writer whose queue capacity floats between
// floor and ceil (each <= 0 selects a default: ceiling 256, floor
// ceiling/16 but at least 16), beginning at the floor. Backpressure since
// the last drain doubles the capacity toward the ceiling; shrinkWindow
// consecutive calm drains halve it toward the floor — so an idle or
// lightly loaded shard holds a small queue (small worst-case batch, small
// ack latency, small memory) and a hot shard earns the configured depth.
// Stats.Cap and Stats.Resizes expose the current state.
func NewAdaptiveWriter[T any](floor, ceil int, process func(batch []T)) *Writer[T] {
	if ceil <= 0 {
		ceil = 256
	}
	if floor <= 0 {
		floor = ceil / 16
		if floor < 16 {
			floor = 16
		}
	}
	if floor > ceil {
		floor = ceil
	}
	return startWriter(floor, ceil, process)
}

func startWriter[T any](floor, ceil int, process func(batch []T)) *Writer[T] {
	w := &Writer[T]{cap: floor, floor: floor, ceil: ceil, done: make(chan struct{})}
	w.notFull.L = &w.mu
	w.wake.L = &w.mu
	go w.run(process)
	return w
}

// EnqueueContext appends op to the queue, blocking while the queue is
// full. A producer whose ctx ends while parked gives up its slot and
// returns ctx's error — the op was never accepted, so nothing will be
// journaled or acknowledged for it (counted in Stats.Canceled). Once the
// op is in the queue the cancellation point has passed and the op
// completes normally. ok is false with a nil error when the writer is
// closed: the op was not accepted, and the caller processes it itself.
func (w *Writer[T]) EnqueueContext(ctx context.Context, op T) (ok bool, err error) {
	w.mu.Lock()
	for len(w.queue) >= w.cap && !w.closed {
		if ctx.Err() != nil {
			w.canceled++
			w.mu.Unlock()
			return false, ctx.Err()
		}
		w.fullWaits++
		w.fullSinceDrain++
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
	if w.closed {
		w.mu.Unlock()
		return false, nil
	}
	w.queue = append(w.queue, op)
	w.enqueued++
	w.mu.Unlock()
	w.wake.Signal()
	return true, nil
}

// run is the writer goroutine: drain everything queued, process it as
// one batch, repeat until closed and empty.
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
		// Swap buffers so producers refill w.queue while this batch is
		// processed outside the lock.
		batch := w.queue
		w.queue = w.spare[:0]
		w.batches++
		if len(batch) > w.maxBatch {
			w.maxBatch = len(batch)
		}
		w.hist[histBucket(len(batch))]++
		w.adapt(len(batch))
		w.mu.Unlock()
		// Broadcast covers both the freed queue space and any capacity
		// grow adapt just applied.
		w.notFull.Broadcast()

		process(batch)

		clear(batch) // drop op references so pooled ops are collectable
		w.spare = batch
	}
}

// adapt applies the capacity policy at drain time (caller holds mu; the
// drained batch's size is batchLen). The state machine has three moves:
//
//	grow:   any producer blocked on the full queue since the last drain →
//	        double toward the ceiling, reset the calm streak;
//	calm:   no backpressure and the batch left shrinkFactor× headroom →
//	        extend the streak; shrinkWindow in a row halve toward the
//	        floor and restart the streak;
//	steady: no backpressure but a substantial batch → restart the streak,
//	        keep the capacity.
//
// Shrinking never evicts queued ops: EnqueueContext blocks while len(queue) ≥
// cap, and the next drain always takes the whole queue, so a shrink only
// delays producers until the writer catches up.
func (w *Writer[T]) adapt(batchLen int) {
	if w.floor == w.ceil {
		return // fixed-capacity writer
	}
	full := w.fullSinceDrain
	w.fullSinceDrain = 0
	switch {
	case full > 0:
		w.calmDrains = 0
		if w.cap < w.ceil {
			w.cap *= 2
			if w.cap > w.ceil {
				w.cap = w.ceil
			}
			w.resizes++
		}
	case w.cap > w.floor && batchLen*shrinkFactor <= w.cap:
		w.calmDrains++
		if w.calmDrains >= shrinkWindow {
			w.calmDrains = 0
			w.cap /= 2
			if w.cap < w.floor {
				w.cap = w.floor
			}
			w.resizes++
		}
	default:
		w.calmDrains = 0
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
// goroutine to exit. Safe to call twice; EnqueueContext reports false
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
		Resizes:   w.resizes,
		Enqueued:  w.enqueued,
		Batches:   w.batches,
		MaxBatch:  w.maxBatch,
		FullWaits: w.fullWaits,
		Canceled:  w.canceled,
		BatchHist: w.hist,
	}
}
