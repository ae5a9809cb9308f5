package situfact

import "repro/internal/ingest"

// The shard writers: every pool runs one long-lived writer goroutine per
// shard, fed by a bounded queue, from NewPool or RestorePool until Close.
// Every mutation of a shard is an ingestOp on its writer — a live
// Append/AppendBatch/Delete, and a record ReplayWAL or ApplyTail re-applies
// — and the writer hands applyShard whatever has queued since its last
// wakeup, at most 64 ops at a time. The per-op overheads are paid once per
// batch: one WAL append pass, one shard-lock acquisition covering journal +
// apply, and one group-committed fsync. Under load batches grow and per-op
// cost amortises toward the engine's own apply time; when idle, batches
// are single ops. The path of one live op is caller → shard writer →
// committer → caller, and the caller returns only after its op is applied
// and (with a WAL) durable.
//
// The invariants this gives every shard:
//   - journal-before-apply, under the owning shard's lock, so each
//     shard's journal order equals its apply order;
//   - acknowledgement only after the record's group-committed fsync
//     (ack-after-fsync);
//   - per-shard FIFO: operations racing for one shard are applied in
//     enqueue order, and one caller's ordered operations stay ordered;
//   - one applier per shard: applyShard runs only on the shard's writer.

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
	// QueueDepth and QueueCap sum the shards' pending operations and
	// queue capacities.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Enqueued counts the ops the writers accepted: live writes and the
	// records ReplayWAL and ApplyTail re-applied.
	Enqueued uint64 `json:"enqueued"`
	Batches  uint64 `json:"batches"`
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

// IngestSummary returns the merged monitoring view of the shard writers.
func (p *Pool) IngestSummary() IngestSummary {
	out := IngestSummary{
		BatchHist: make([]uint64, len(ingest.Stats{}.BatchHist)),
		PerShard:  make([]IngestStats, len(p.writers)),
	}
	for i, w := range p.writers {
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

// commitGroup is one drained batch awaiting durability: every op is
// journaled (≤ lsn) and applied, none are acknowledged yet.
type commitGroup struct {
	lsn uint64
	ops []*ingestOp
}

// startWriters starts one writer per shard, each queue holding 256 ops,
// and the committer they hand journaled batches to.
func (p *Pool) startWriters() {
	p.writers = make([]*ingest.Writer[*ingestOp], len(p.shards))
	// Room for a few batches per shard, so a writer rarely blocks on the
	// hand-off while one fsync is in flight.
	p.commits = make(chan commitGroup, 4*len(p.shards))
	p.commitDone = make(chan struct{})
	for shard := range p.writers {
		p.writers[shard] = ingest.NewWriter(0, func(batch []*ingestOp) {
			lsn := p.applyShard(shard, batch)
			if lsn == 0 {
				settle(batch, nil) // nothing to wait for: no WAL, a replay, or the journal pass failed
				return
			}
			// The ops are copied out because the writer recycles its batch
			// slice as soon as this returns.
			p.commits <- commitGroup{lsn: lsn, ops: append([]*ingestOp(nil), batch...)}
		})
	}
	go p.commitLoop()
}

// stopWriters drains every shard's queue, then stops the writers and the
// committer; a write afterwards fails naming the closed pool. Safe to call
// twice, and on a pool whose writers never started.
func (p *Pool) stopWriters() {
	p.stopOnce.Do(func() {
		if p.writers == nil {
			return
		}
		for _, w := range p.writers {
			w.Close()
		}
		// Writers are drained and stopped; nothing feeds the committer now.
		close(p.commits)
		<-p.commitDone
	})
}

// StartPipeline sets every shard writer's queue capacity to
// opt.QueueDepth (<= 0 selects 256). The writers themselves run from
// NewPool or RestorePool until Close, so it never fails.
func (p *Pool) StartPipeline(opt PipelineOptions) error {
	for _, w := range p.writers {
		w.SetCap(opt.QueueDepth)
	}
	return nil
}

// StopPipeline does nothing: the shard writers run until Close, which
// drains and stops them.
//
// Deprecated: kept only so existing callers compile; it will be removed.
func (p *Pool) StopPipeline() {}

// commitLoop is the durability stage: it gathers every batch the writers
// have handed off, waits out ONE fsync covering the highest LSN among
// them, and completes their futures. While that fsync is on disk more
// batches queue up and join the next pass — cross-shard group commit at
// the granularity of whole batches. Writers hand a batch off here instead
// of blocking on its fsync themselves, so a shard keeps journaling and
// applying its next batch while the previous one is being made durable:
// the fsync rate self-paces to the device instead of tracking the batch
// rate.
func (p *Pool) commitLoop() {
	defer close(p.commitDone)
	var pending []commitGroup
	for {
		grp, ok := <-p.commits
		if !ok {
			return
		}
		pending = append(pending[:0], grp)
		closed := false
	gather:
		for {
			select {
			case g, ok := <-p.commits:
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
