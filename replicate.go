package situfact

import (
	"errors"
	"fmt"

	"repro/internal/persist"
)

// Read-path replication: a leader ships its state as a snapshot (the
// Checkpoint directory's files) plus a WAL tail (ReadTail), and a
// read-only follower restores the snapshot (RestorePool) and then applies
// successive tails (ApplyTail) through exactly the replayer ReplayWAL
// uses for crash recovery. A follower therefore converges to the leader's
// state record by record — same routing, same per-shard watermarks, same
// deterministic re-failures — which is what the divergence tests assert.

// ErrEpochMismatch reports a tail from a different log instance than the
// one the pool's watermarks refer to: the leader's WAL was replaced (or
// the follower bootstrapped from an unrelated leader), so LSNs are not
// comparable and applying the tail would silently diverge. Test with
// errors.Is; a follower seeing this must re-bootstrap, not retry.
var ErrEpochMismatch = errors.New("wal epoch mismatch")

// Tail-record operations.
const (
	OpAppend = "append"
	OpDelete = "delete"
	// OpNoop ships a noop frame an earlier build's repair wrote (see
	// persist.RecNoop): it carries no operation, but followers must still
	// see it to keep their tail cursor dense.
	OpNoop = "noop"
)

// TailRecord is one journaled operation in shipping form — the wire
// mirror of a WAL record, typed for transport between a leader's ReadTail
// and a follower's ApplyTail. Its JSON form is a record of situfactd's
// GET /v1/wal.
type TailRecord struct {
	LSN uint64 `json:"lsn"`
	// Op is OpAppend, OpDelete or OpNoop.
	Op string `json:"op"`
	// Shard is the shard the leader applied the operation to. Deletes
	// target it; for appends it is informational — the applier re-routes
	// them by their shard-dimension value and ignores the field.
	Shard int `json:"shard"`
	// Dims and Measures are the appended row, in schema order (appends).
	Dims     []string  `json:"dims,omitempty"`
	Measures []float64 `json:"measures,omitempty"`
	// TupleID is the retracted tuple's per-shard id (deletes).
	TupleID int64 `json:"tuple_id,omitempty"`
}

// record converts the shipping form back to a journal record.
func (tr TailRecord) record() (persist.Record, error) {
	rec := persist.Record{LSN: tr.LSN, Shard: tr.Shard}
	switch tr.Op {
	case OpAppend:
		rec.Type = persist.RecAppend
		rec.Dims = tr.Dims
		rec.Measures = tr.Measures
	case OpDelete:
		rec.Type = persist.RecDelete
		rec.TupleID = tr.TupleID
	case OpNoop:
		rec.Type = persist.RecNoop
	default:
		return rec, fmt.Errorf("situfact: tail record %d has unknown op %q", tr.LSN, tr.Op)
	}
	return rec, nil
}

func toTailRecord(rec persist.Record) (TailRecord, error) {
	tr := TailRecord{LSN: rec.LSN, Shard: rec.Shard}
	switch rec.Type {
	case persist.RecAppend:
		tr.Op = OpAppend
		tr.Dims = rec.Dims
		tr.Measures = rec.Measures
	case persist.RecDelete:
		tr.Op = OpDelete
		tr.TupleID = rec.TupleID
	case persist.RecNoop:
		tr.Op = OpNoop
	default:
		return tr, fmt.Errorf("situfact: wal record %d has unknown type %d", rec.LSN, rec.Type)
	}
	return tr, nil
}

// Epoch returns the log instance's identity (see persist.WAL.Epoch): a
// follower pins it at bootstrap and refuses tails from any other.
func (w *WAL) Epoch() string { return w.w.Epoch() }

// ReadTail returns up to max journaled records with LSN >= from, in LSN
// order, plus the log's highest assigned LSN and whether more records
// remain past the returned ones. It is the leader side of follower
// catch-up; the follower detects a truncated gap by the first returned
// LSN being greater than from (LSNs are dense).
func (w *WAL) ReadTail(from uint64, max int) (recs []TailRecord, lastLSN uint64, more bool, err error) {
	raw, lastLSN, err := w.w.ReadFrom(from, max)
	if err != nil {
		return nil, 0, false, fmt.Errorf("situfact: %w", err)
	}
	recs = make([]TailRecord, 0, len(raw))
	for _, rec := range raw {
		tr, err := toTailRecord(rec)
		if err != nil {
			return nil, 0, false, err
		}
		recs = append(recs, tr)
	}
	more = len(recs) > 0 && recs[len(recs)-1].LSN < lastLSN
	return recs, lastLSN, more, nil
}

// WALEpoch returns the epoch of the log instance the pool's per-shard
// watermarks refer to: restored from the snapshot manifest, set by
// replay/attach, or pinned by the first ApplyTail. Empty = no log yet.
func (p *Pool) WALEpoch() string { return p.walEpoch }

// ShardLSNs returns each shard's last applied WAL LSN (0 = none), read
// under the shard locks.
func (p *Pool) ShardLSNs() []uint64 {
	out := make([]uint64, len(p.shards))
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		out[i] = s.lastLSN
		s.mu.RUnlock()
	}
	return out
}

// TailCursor returns the LSN a replica must fetch from to be sure of
// missing nothing: one past the LOWEST shard watermark. Records between
// it and a higher shard's watermark re-ship, and ApplyTail skips them
// per shard exactly as crash recovery does.
func (p *Pool) TailCursor() uint64 {
	lsns := p.ShardLSNs()
	low := lsns[0]
	for _, l := range lsns[1:] {
		if l < low {
			low = l
		}
	}
	return low + 1
}

// ApplyTail applies a leader-shipped WAL tail to a follower pool through
// the replayer ReplayWAL uses, with its order, onArrival and errors (after
// an error the follower re-bootstraps). A shard's write lock is held for
// one writer batch of up to 64 records, so a read of that shard can wait
// that many discovery steps while the follower catches up. epoch names the
// log instance the records came from: the first ApplyTail pins it (a pool
// restored from a leader snapshot already carries it from the manifest),
// and a different epoch later fails with ErrEpochMismatch.
//
// The pool must not itself be journaling: ApplyTail re-applies another
// log's records, and journaling them again would fork history.
func (p *Pool) ApplyTail(epoch string, recs []TailRecord, onArrival func(*Arrival)) (ReplayStats, error) {
	if epoch == "" {
		return ReplayStats{}, fmt.Errorf("situfact: apply tail: empty epoch")
	}
	if p.wal != nil {
		return ReplayStats{}, fmt.Errorf("situfact: apply tail: pool has its own WAL attached")
	}
	if p.walEpoch == "" {
		p.walEpoch = epoch
	} else if p.walEpoch != epoch {
		return ReplayStats{}, fmt.Errorf("situfact: apply tail: pool tracks epoch %s, tail is from %s: %w",
			p.walEpoch, epoch, ErrEpochMismatch)
	}
	r := &replayer{p: p, onArrival: onArrival}
	var err error
	for _, tr := range recs {
		var rec persist.Record
		if rec, err = tr.record(); err == nil {
			err = r.add(rec)
		}
		if err != nil {
			break
		}
	}
	return r.finish(err)
}
