package situfact

import (
	"fmt"

	"repro/internal/ingest"
)

// Pipelined ingest: StartPipeline gives every shard a long-lived writer
// goroutine fed by a bounded queue, decoupling accept → journal → apply
// → respond. Append/AppendBatch/Delete keep their synchronous APIs —
// the caller still returns only after its operation is applied and (with
// a WAL) durable — but instead of calling applyShard themselves with a
// batch of one, they enqueue the op and wait on its future. The writer
// hands applyShard whatever has queued since its last wakeup, so the
// per-row overheads are paid once per batch: one WAL append pass, one
// shard-lock acquisition covering journal + apply, and one
// group-committed fsync. Under load, batches grow and per-row cost
// amortises toward the engine's own apply time; when idle, batches are
// single ops. The path of one op is handler → shard writer → committer →
// handler.
//
// Queued or inline, applyShard's invariants are the same:
//   - journal-before-apply, under the owning shard's lock, so each
//     shard's journal order equals its apply order;
//   - acknowledgement only after the record's group-committed fsync
//     (ack-after-fsync);
//   - per-shard FIFO: operations racing for one shard are applied in
//     enqueue order, and one caller's ordered operations stay ordered.
//
// Lifecycle: start the pipeline after recovery (ReplayWAL + AttachWAL)
// and before serving traffic; stop it after in-flight operations have
// drained. Stopping while calls are in flight is a lifecycle race like
// AttachWAL's — in-flight operations still complete correctly (they run
// inline), but ordering with the draining writers is no longer
// guaranteed.

// PipelineOptions configures Pool.StartPipeline.
type PipelineOptions struct {
	// QueueDepth is each shard's queue capacity; a full queue blocks
	// producers until the writer drains (backpressure, counted in
	// IngestStats.FullWaits). <= 0 selects 256.
	QueueDepth int
	// AdaptiveQueue is ignored: every shard's queue holds QueueDepth.
	//
	// Deprecated: kept only so existing callers compile; it will be removed.
	AdaptiveQueue bool
}

// IngestStats is one shard writer's monitoring snapshot: the shard it
// serves, its queue depth, drained-batch-size histogram, and backpressure
// counters.
type IngestStats struct {
	Shard int `json:"shard"`
	ingest.Stats
}

// IngestSummary is the pool-wide merge of the shard writers' snapshots —
// the one place the derived figures (sums, mean batch size, merged
// histogram) are computed, so every consumer (the daemon's /v1/metrics,
// bench reports) agrees on the derivation instead of re-deriving per
// scrape.
type IngestSummary struct {
	// Pipeline reports whether a pipeline is running; false means the
	// remaining fields are zero.
	Pipeline bool `json:"pipeline"`
	// QueueDepth and QueueCap sum the shards' pending operations and
	// queue capacities.
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Enqueued   uint64 `json:"enqueued"`
	Batches    uint64 `json:"batches"`
	// MeanBatch is Enqueued/Batches (0 before the first drain).
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int     `json:"max_batch"`
	FullWaits uint64  `json:"full_waits"`
	// Canceled sums producers refused because their context had ended:
	// their ops were never accepted, journaled or acknowledged.
	Canceled uint64 `json:"canceled"`
	// BatchHist is the merged drained-batch-size histogram.
	BatchHist []uint64 `json:"batch_hist,omitempty"`
	// PerShard holds the underlying snapshots, index = shard.
	PerShard []IngestStats `json:"per_shard,omitempty"`
}

// IngestSummary returns the merged monitoring view of the running
// pipeline (the zero summary when none is running).
func (p *Pool) IngestSummary() IngestSummary {
	pipe := p.pipe.Load()
	if pipe == nil {
		return IngestSummary{}
	}
	out := IngestSummary{
		Pipeline:  true,
		BatchHist: make([]uint64, len(ingest.Stats{}.BatchHist)),
		PerShard:  make([]IngestStats, len(pipe.writers)),
	}
	for i, w := range pipe.writers {
		st := w.Stats()
		out.PerShard[i] = IngestStats{Shard: i, Stats: st}
		out.QueueDepth += st.Depth
		out.QueueCap += st.Cap
		out.Enqueued += st.Enqueued
		out.Batches += st.Batches
		out.FullWaits += st.FullWaits
		out.Canceled += st.Canceled
		out.MaxBatch = max(out.MaxBatch, st.MaxBatch)
		for b, c := range st.BatchHist {
			out.BatchHist[b] += c
		}
	}
	if out.Batches > 0 {
		out.MeanBatch = float64(out.Enqueued) / float64(out.Batches)
	}
	return out
}

// pipeline is the running per-shard writer set plus the shared
// group-committer; Pool.pipe holds it.
type pipeline struct {
	writers []*ingest.Writer[*ingestOp]
	// commits feeds journaled-and-applied batches to the committer
	// goroutine, which coalesces their durability waits into shared
	// fsyncs and completes the futures. Writers hand a batch off here
	// instead of blocking on its fsync themselves, so a shard keeps
	// journaling and applying its next batch while the previous one is
	// being made durable — the fsync rate self-paces to the device
	// (one fsync in flight, everything queued meanwhile joins the next)
	// instead of tracking the batch rate.
	commits    chan commitGroup
	commitDone chan struct{}
}

// commitGroup is one drained batch awaiting durability: every op is
// journaled (≤ lsn) and applied, none are acknowledged yet.
type commitGroup struct {
	lsn uint64
	ops []*ingestOp
}

// StartPipeline starts one batching writer per shard and routes every
// subsequent Append/AppendBatch/Delete through it. Call after recovery
// (ReplayWAL/AttachWAL), before serving traffic. A pool accepts one
// pipeline at a time; StopPipeline (or Close) tears it down.
func (p *Pool) StartPipeline(opt PipelineOptions) error {
	pipe := &pipeline{
		writers: make([]*ingest.Writer[*ingestOp], len(p.shards)),
		// Room for a few batches per shard, so a writer rarely blocks on
		// the hand-off while one fsync is in flight.
		commits:    make(chan commitGroup, 4*len(p.shards)),
		commitDone: make(chan struct{}),
	}
	for i := range pipe.writers {
		shard := i
		process := func(batch []*ingestOp) {
			lsn := p.applyShard(shard, batch)
			if lsn == 0 {
				settle(batch, nil) // nothing to wait for: no WAL, or the journal pass failed
				return
			}
			// The ops are copied out because the writer recycles its batch
			// slice as soon as this returns.
			pipe.commits <- commitGroup{lsn: lsn, ops: append([]*ingestOp(nil), batch...)}
		}
		pipe.writers[i] = ingest.NewWriter(opt.QueueDepth, process)
	}
	go p.commitLoop(pipe)
	if !p.pipe.CompareAndSwap(nil, pipe) {
		for _, w := range pipe.writers {
			w.Close()
		}
		close(pipe.commits)
		<-pipe.commitDone
		return fmt.Errorf("situfact: pool already has an ingest pipeline")
	}
	return nil
}

// StopPipeline detaches the pipeline, drains every shard's queue, stops
// the writers and the committer; callers run the write path inline
// again. A no-op when no pipeline is running.
func (p *Pool) StopPipeline() {
	pipe := p.pipe.Swap(nil)
	if pipe == nil {
		return
	}
	for _, w := range pipe.writers {
		w.Close()
	}
	// Writers are drained and stopped; nothing feeds the committer now.
	close(pipe.commits)
	<-pipe.commitDone
}

// commitLoop is the pipeline's durability stage: it gathers every batch
// the writers have handed off, waits out ONE fsync covering the highest
// LSN among them, and completes their futures. While that fsync is on
// disk more batches queue up and join the next pass — cross-shard group
// commit at the granularity of whole batches.
func (p *Pool) commitLoop(pipe *pipeline) {
	defer close(pipe.commitDone)
	var pending []commitGroup
	for {
		grp, ok := <-pipe.commits
		if !ok {
			return
		}
		pending = append(pending[:0], grp)
		closed := false
	gather:
		for {
			select {
			case g, ok := <-pipe.commits:
				if !ok {
					closed = true
					break gather
				}
				pending = append(pending, g)
			default:
				break gather
			}
		}
		var top uint64
		for _, g := range pending {
			top = max(top, g.lsn)
		}
		err := p.commit(top)
		for _, g := range pending {
			settle(g.ops, err)
		}
		if closed {
			return
		}
	}
}
