package situfact

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/faultfs"
	"repro/internal/persist"
)

// Write-ahead logging: with a WAL attached, a Pool journals every
// Append/AppendBatch/Delete before applying it, so a crash between
// snapshots loses nothing acknowledged. Recovery is snapshot + tail:
// restore the newest checkpoint (RestorePool), replay the log's uncovered
// records (Pool.ReplayWAL), then attach the WAL for live journaling
// (Pool.AttachWAL). Periodic Pool.Checkpoint calls bound the tail and let
// WAL.TruncateBefore reclaim covered segments.
//
// Durability contract: acked ⇒ durable. An operation returns only after
// its record is fsynced; concurrent operations group-commit into shared
// fsyncs. WALStats reports the records buffered but not yet synced.

// ErrWALFailed marks an ingest failure caused by the write-ahead log —
// a failed journal write or durability wait — rather than by the request
// itself. Callers mapping errors onto a wire protocol should report it
// as a server-side fault (retryable), not a request defect.
var ErrWALFailed = errors.New("wal failure")

// ErrRowTooLarge reports a row whose journaled encoding would exceed the
// WAL's per-record cap (16 MiB) — a request defect, not a log fault, so
// unlike ErrWALFailed it is not retryable. Only journaled ingest enforces
// the cap; pools without a WAL accept rows of any size.
var ErrRowTooLarge = errors.New("row too large to journal")

// WALOptions configures OpenWAL.
type WALOptions struct {
	// SegmentBytes is the log's segment size: a segment is sealed at the
	// first group commit past it. 0 = 64 MiB.
	SegmentBytes int64
	// FS is the filesystem seam segment I/O goes through; nil = the real
	// one. Fault tests inject a faultfs.Faulty here (see internal/faultfs).
	FS faultfs.FS
}

// WAL is an open write-ahead log, bound to one pool identity (schema and
// shard layout). It is safe for concurrent use.
type WAL struct {
	w    *persist.WAL
	meta string // the pool identity the log was opened under
}

// walMeta is the identity a log is bound to. Beyond the schema it covers
// the shard layout: RecDelete records name tuples by (shard, per-shard
// tuple id), coordinates that are only meaningful under the shard count
// and routing dimension that assigned them.
func (p *Pool) walMeta() string {
	return fmt.Sprintf("%s|shards=%d|shard-dim=%s",
		schemaSig(p.schema.rs), len(p.shards), p.ShardDim())
}

// OpenWAL opens (or creates) the log rooted at dir, repairing a torn
// final record left by a crash. The log is bound to the pool's identity —
// schema, shard count and shard dimension: reopening it under a different
// one fails rather than replaying rows into the wrong relation or deletes
// against the wrong shard coordinates.
func OpenWAL(pool *Pool, dir string, opt WALOptions) (*WAL, error) {
	if pool == nil {
		return nil, fmt.Errorf("situfact: nil pool")
	}
	meta := pool.walMeta()
	pw, err := persist.OpenWAL(dir, persist.WALOptions{
		SegmentBytes: opt.SegmentBytes,
		Meta:         meta,
		FS:           opt.FS,
	})
	if err != nil {
		return nil, fmt.Errorf("situfact: %w", err)
	}
	return &WAL{w: pw, meta: meta}, nil
}

// Sync forces every journaled record to disk.
func (w *WAL) Sync() error { return w.w.Sync() }

// Err returns the log's sticky failure (a failed write or fsync), or nil
// while healthy. A non-nil Err means every ingest operation is failing
// with ErrWALFailed: the degraded state Repair (or a restart) clears.
func (w *WAL) Err() error { return w.w.Err() }

// Repair attempts to clear a sticky log failure in place: cut the log back
// to its last fsync, write again the records the fault left unsynced — the
// pool applied their ops, though none was acknowledged — and resume
// journaling, so replay and followers see exactly the ops the pool
// applied, under the tuple ids it assigned. It returns how many records
// were written again, or an error when the fault still holds (retry
// later) or the log is corrupt. See persist.WAL.Repair.
func (w *WAL) Repair() (rewritten uint64, err error) { return w.w.Repair() }

// WALStats is a monitoring snapshot of the log; see persist.WALStats.
type WALStats = persist.WALStats

// Stats returns a monitoring snapshot: last and synced LSN (their
// difference is the unsynced-record lag) and the live segment count.
func (w *WAL) Stats() WALStats { return w.w.Stats() }

// TruncateBefore removes log segments fully covered by a checkpoint —
// every record with LSN < lsn. Call it with CheckpointStats.TruncatableLSN+1
// after a successful Checkpoint.
func (w *WAL) TruncateBefore(lsn uint64) error { return w.w.TruncateBefore(lsn) }

// Close flushes and closes the log.
func (w *WAL) Close() error { return w.w.Close() }

// AttachWAL binds the pool to an open log: every subsequent
// Append/AppendBatch/Delete is journaled before it is applied. Attach
// after recovery (ReplayWAL) and before serving traffic; attaching while
// arrivals are in flight is a race, and a pool accepts only one WAL.
func (p *Pool) AttachWAL(w *WAL) error {
	if w == nil {
		return fmt.Errorf("situfact: nil WAL")
	}
	if p.wal != nil {
		return fmt.Errorf("situfact: pool already has a WAL attached")
	}
	if w.meta != p.walMeta() {
		return fmt.Errorf("situfact: WAL was opened under %q, not this pool's %q", w.meta, p.walMeta())
	}
	p.adoptWAL(w)
	p.wal = w
	return nil
}

// adoptWAL reconciles the pool's per-shard LSN watermarks with the log
// instance it is about to replay or journal into. Watermarks restored
// from a snapshot are only meaningful against the exact log they were
// captured from; against any other instance (the manifest predates the
// log, or the operator replaced the log) the new log's LSNs count from 1
// again, and a stale high watermark would silently skip them as "already
// covered". So on an epoch mismatch the watermarks are cleared — every
// record of the new log replays, which is exactly right for a log that
// started after the snapshot's state was already in place.
func (p *Pool) adoptWAL(w *WAL) {
	if p.walEpoch == w.w.Epoch() {
		return
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.lastLSN = 0
		s.mu.Unlock()
	}
	p.walEpoch = w.w.Epoch()
}

// ReplayStats reports what a ReplayWAL pass did.
type ReplayStats struct {
	// Records is the total number of journaled records read.
	Records int
	// Applied counts records applied to a shard (appends + deletes).
	Applied int
	// Skipped counts records already reflected in the restored snapshot.
	Skipped int
	// Failed counts records whose re-application failed exactly as the
	// original application did (e.g. a journaled delete of an unknown
	// tuple) — deterministic re-failures, not corruption.
	Failed int
	// LastLSN is the highest LSN observed.
	LastLSN uint64
}

// ReplayWAL applies the log's records that are not yet reflected in the
// pool — for a pool restored by RestorePool, exactly the tail after its
// checkpoint; for a fresh pool, the whole log. Records are validated and
// routed in journal order, and each shard's writer applies its own, in
// that order. onArrival, when non-nil, observes every replayed append's
// arrival with all its facts, in each shard's journal order; calls are
// serialised, never concurrent, and run on the shard's writer, so
// onArrival must not write to the pool. With a nil onArrival the arrivals
// carry none (counted, not ranked) and the recovered state is the same.
// Call before AttachWAL, before serving traffic.
//
// A record the log cannot hold stops the replay: the records before it
// are applied and counted, none after it. An apply that fails unlike its
// live original (drift) fails the call with the lowest such LSN, though
// other records may have applied past it. After any error the stats count
// what was applied, and the pool must be discarded.
func (p *Pool) ReplayWAL(w *WAL, onArrival func(*Arrival)) (ReplayStats, error) {
	if w == nil {
		return ReplayStats{}, fmt.Errorf("situfact: nil WAL")
	}
	if p.wal != nil {
		return ReplayStats{}, fmt.Errorf("situfact: replay after AttachWAL would re-journal the log into itself")
	}
	if w.meta != p.walMeta() {
		return ReplayStats{}, fmt.Errorf("situfact: WAL was opened under %q, not this pool's %q", w.meta, p.walMeta())
	}
	p.adoptWAL(w)
	r := &replayer{p: p, onArrival: onArrival}
	return r.finish(w.w.Replay(r.add))
}

// replayer re-applies journaled records: the one path behind ReplayWAL and
// ApplyTail. The reader validates each record and queues it on its shard's
// writer, so a replay holds at most a queue's worth of records a shard
// however long the tail is, and a shard's lock is held for at most one
// writer batch. As each record settles on its writer, in the shard's
// journal order, settled classifies its outcome under mu, which also
// serialises onArrival.
type replayer struct {
	p         *Pool
	onArrival func(*Arrival)
	wg        sync.WaitGroup // the records queued and not yet settled
	mu        sync.Mutex
	stats     ReplayStats // Records and LastLSN are the reader's; the rest is under mu
	drift     error       // the drift with the lowest LSN, driftLSN
	driftLSN  uint64
}

// add validates one record and queues it on its shard's writer. Its error —
// a record the journal cannot hold, or a closed pool — stops the replay.
func (r *replayer) add(rec persist.Record) error {
	if rec.LSN == 0 {
		// LSNs start at 1; every watermark would cover an unnumbered
		// record.
		return fmt.Errorf("situfact: wal replay: record without an LSN")
	}
	r.stats.Records++
	r.stats.LastLSN = rec.LSN
	switch rec.Type {
	case persist.RecAppend:
		// Every live append is count-checked before it is journaled, so a
		// record of the wrong shape is drift, not a re-failure.
		if len(rec.Dims) != r.p.schema.rs.NumDims() || len(rec.Measures) != r.p.schema.rs.NumMeasures() {
			return fmt.Errorf("situfact: wal replay: record %d has %d dimension values and %d measures for schema %s",
				rec.LSN, len(rec.Dims), len(rec.Measures), r.p.schema.rs)
		}
		rec.Shard = r.p.ShardFor(rec.Dims[r.p.shardDim])
	case persist.RecDelete:
		if rec.Shard < 0 || rec.Shard >= len(r.p.shards) {
			return fmt.Errorf("situfact: wal replay: record %d targets shard %d of %d",
				rec.LSN, rec.Shard, len(r.p.shards))
		}
	case persist.RecNoop:
		// An earlier build's repair filler over an LSN a write fault
		// destroyed: no operation, no shard, no watermark to advance.
		r.mu.Lock()
		r.stats.Skipped++
		r.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("situfact: wal replay: record %d has unknown type %d", rec.LSN, rec.Type)
	}
	op := getOp()
	op.rec, op.replay = rec, r
	if r.onArrival != nil {
		op.top = math.MaxInt
	}
	r.wg.Add(1)
	if err := r.p.enqueue(context.Background(), op); err != nil {
		r.wg.Done()
		putOp(op)
		return fmt.Errorf("situfact: wal replay: record %d: %w", rec.LSN, err)
	}
	return nil
}

// settled classifies one applied record's outcome as skipped, applied,
// re-failed or drift, on its shard's writer. r.mu is held across
// onArrival, whose calls the contract serialises; no shard lock is held by
// then.
func (r *replayer) settled(op *ingestOp) {
	r.mu.Lock()
	switch {
	case op.skipped:
		r.stats.Skipped++
	case op.err == nil:
		r.stats.Applied++
		if op.arr != nil && r.onArrival != nil { // an observed append
			r.onArrival(op.arr)
		}
	case op.rec.Type == persist.RecAppend,
		errors.Is(op.err, ErrNotFound), errors.Is(op.err, ErrAlreadyDeleted):
		// The original application failed the same deterministic way
		// (journaling precedes applying), so the record adds nothing to
		// recovered state.
		r.stats.Failed++
	case r.drift == nil || op.rec.LSN < r.driftLSN:
		// Pool.Delete rejects unsupported deletes before journaling, so
		// a RecDelete proves the writing pool applied (or could have
		// applied) it. ErrDeleteUnsupported here means the pool was
		// restarted under a non-deleting algorithm — real drift, like
		// any other unexpected failure.
		r.drift = fmt.Errorf("situfact: wal replay: record %d: %w", op.rec.LSN, op.err)
		r.driftLSN = op.rec.LSN
	}
	r.mu.Unlock()
	putOp(op)
	r.wg.Done()
}

// finish waits until every queued record has settled. The error is the
// drift with the lowest LSN, else the reader's err.
func (r *replayer) finish(err error) (ReplayStats, error) {
	r.wg.Wait()
	return r.stats, cmp.Or(r.drift, err)
}
