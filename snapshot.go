package situfact

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/persist"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// Snapshot persistence: Pool.Checkpoint serialises every shard engine's
// full state (dictionary, tuples, tombstones, µ-store cells, prominence
// counters) so a stream can be resumed later with RestorePool — a
// production necessity the paper leaves implicit. This file is a thin
// wrapper translating engine/pool state to and from internal/persist,
// which owns the codec, the generational manifest, and the write-ahead
// log (see wal.go for journaling and recovery). Format v2 is written —
// the µ store's blocks, constraint by constraint, straight into the
// encoder — and v1 (gob) is still read. The engines are a pool's:
// bottomup or sbottomup over the in-memory store, whose cells and counts
// are the whole state.

func schemaSig(s *relation.Schema) string {
	return s.String()
}

// ErrNoSnapshot reports that a directory holds no pool snapshot at all —
// as opposed to holding a corrupt or mismatched one, which is a distinct
// error. Daemons restore-or-start-fresh with errors.Is(err, ErrNoSnapshot);
// any other RestorePool error should fail startup loudly rather than
// silently serving an empty relation over existing state.
var ErrNoSnapshot = errors.New("no pool snapshot")

// appendSnapshot appends the state of a pool's engine to buf in snapshot
// format v2: one pass over the tuple table and the µ store's blocks that
// mutates nothing, so a shard's read lock covers it.
func (e *Engine) appendSnapshot(buf []byte) ([]byte, error) {
	mem := e.mem
	met := e.Metrics()
	// Sized once, the buffer is not grown by doubling under the lock: the
	// tuple arenas, a key and two counts per constraint, a mask and a member
	// count per cell, two bytes for most member ids.
	d, m, in := e.schema.NumDims(), e.schema.NumMeasures(), mem.Interner()
	buf = slices.Grow(buf, e.table.Len()*(4*d+8*m)+in.Len()*(4*d+4)+int(met.Cells)*2+int(met.StoredTuples)*2)
	enc := persist.NewSnapshotEncoder(buf, persist.SnapshotHeader{
		SchemaSig: schemaSig(e.schema),
		Algorithm: string(e.algorithm),
		D:         d,
		M:         m,
		MaxBound:  e.maxBound,
		MaxMeas:   e.maxMeasure,

		Prominence: e.counter != nil,
		Counters: persist.SnapCounters{
			Tuples: met.Tuples, Comparisons: met.Comparisons,
			Traversed: met.Traversed, Facts: met.Facts,
			StoredTuples: met.StoredTuples, Cells: met.Cells,
			Reads: met.Reads, Writes: met.Writes,
		},
	})
	dict := make([][]string, d)
	for i := range dict {
		dict[i] = e.table.Dict().Values(i)
	}
	enc.Dict(dict)
	tuples := e.table.Tuples()
	enc.Tuples(len(tuples),
		func(i int) []int32 { return tuples[i].Dims },
		func(i int) []float64 { return tuples[i].Raw })
	deleted := make([]int64, 0, len(e.deleted))
	for id := range e.deleted {
		deleted = append(deleted, id)
	}
	slices.Sort(deleted)
	enc.Tombstones(deleted)

	// The blocks, in key order — the fact index's, which holds exactly the
	// constraints with cells. Constraint ids depend on history (a follower
	// interns a constraint that revives after its bootstrap last, where
	// the leader kept its old id), keys do not: equal states write equal
	// bytes, and a restore, which interns the keys in file order, writes
	// its file again.
	enc.BeginCells()
	writeCell := func(mask subspace.Mask, cell store.Cell) { enc.Cell(mask, cell.IDs()) }
	for it := e.fidx.Seek("", 0); it.Valid(); it.NextConstraint() {
		key, c := it.Constraint()
		cells := mem.Live(c)
		var count int64
		if e.counter != nil {
			if count = e.counter.SizeOf(c); count <= 0 {
				return nil, fmt.Errorf("situfact: snapshot: constraint %x has cells and no context count", key)
			}
		}
		enc.Constraint(key, count, cells)
		mem.EachCell(c, writeCell)
	}
	enc.EndCells()
	// The counts section holds the context counts of constraints without a
	// cell. Under Invariant 1 there are none: a live tuple of σ_C(R) puts
	// some tuple in a skyline of C.
	enc.Counts(nil)
	return enc.Bytes(), nil
}

// loadSnapshot reconstructs a pool's engine from one shard's snapshot, in
// format v2 or in the gob format v1 of earlier builds. The schema must match
// the one the snapshot was taken under, and the algorithm must be one a pool
// runs (checkPoolEngine). An error for bytes that are not an acceptable
// snapshot wraps persist.ErrCorruptSnapshot.
func loadSnapshot(schema *Schema, data []byte) (*Engine, error) {
	if schema == nil || schema.rs == nil {
		return nil, fmt.Errorf("situfact: nil schema")
	}
	sf, err := persist.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("situfact: %w", err)
	}
	if got := schemaSig(schema.rs); got != sf.SchemaSig {
		return nil, fmt.Errorf("situfact: snapshot schema %q does not match %q", sf.SchemaSig, got)
	}
	// The decoder checked the snapshot against its own d and m; they index
	// this schema's structures below. (A v1 file without tuples has no m,
	// and no cells either.)
	d, m := schema.rs.NumDims(), schema.rs.NumMeasures()
	if sf.D != d || sf.N > 0 && sf.M != m {
		return nil, fmt.Errorf("situfact: %w: header: %d dimensions and %d measures under a schema of %d and %d",
			persist.ErrCorruptSnapshot, sf.D, sf.M, d, m)
	}
	opt := Options{
		Algorithm:         Algorithm(sf.Algorithm),
		MaxBoundDims:      sf.MaxBound,
		MaxMeasureDims:    sf.MaxMeas,
		DisableProminence: !sf.Prominence,
	}
	if err := checkPoolEngine(opt); err != nil {
		return nil, err
	}
	if len(sf.ExtraCounts) > 0 {
		return nil, fmt.Errorf("situfact: %w: counts: %d constraints without a cell, which Invariant 1 never leaves",
			persist.ErrCorruptSnapshot, len(sf.ExtraCounts))
	}
	eng, err := New(schema, opt)
	if err != nil {
		return nil, err
	}
	mem, bu := eng.mem, eng.disc.(*core.BottomUp)
	// Rebuild the dictionary in code order, then the table.
	dict := eng.table.Dict()
	for dim, vals := range sf.Dict {
		for _, v := range vals {
			dict.Encode(dim, v)
		}
	}
	for i := 0; i < sf.N; i++ {
		if _, err := eng.table.AppendEncoded(sf.Dims[i*d:(i+1)*d], sf.Raw[i*m:(i+1)*m]); err != nil {
			return nil, fmt.Errorf("situfact: snapshot tuple: %w", err)
		}
	}
	// Cells store only tuple ids; the discoverer's registry must be able to
	// resolve restored ids to tuples and measure vectors (cell scans, delete
	// repair, SkylineSize) even though these tuples never went through
	// Process.
	for _, tu := range eng.table.Tuples() {
		bu.RegisterTuple(tu)
	}
	if len(sf.Deleted) > 0 {
		eng.deleted = make(map[int64]bool, len(sf.Deleted))
		for _, id := range sf.Deleted {
			eng.deleted[id] = true
		}
	}
	// One block per constraint, in file order: the store interns the keys as
	// they come, which is what makes the restored constraint ids — and with
	// them Walk order and the next snapshot's bytes — those of the writer.
	lists := 0
	for _, size := range sf.Sizes {
		if size >= 2 {
			lists++
		}
	}
	mem.Grow(len(sf.Live), lists)
	kl := sf.KeyLen()
	cell, member := 0, 0
	for i, live := range sf.Live {
		key := sf.Keys[i*kl : (i+1)*kl]
		id, used, err := mem.RestoreConstraint(lattice.Key(key), sf.Masks[cell:cell+int(live)], sf.Sizes[cell:cell+int(live)], sf.IDs[member:])
		if err != nil {
			return nil, fmt.Errorf("situfact: %w: cells: constraint %d: %v", persist.ErrCorruptSnapshot, i, err)
		}
		cell, member = cell+int(live), member+used
		if sf.Prominence {
			eng.counter.Set(id, sf.Counts[i])
		}
	}
	// Restoring the cells recomputed StoredTuples/Cells but counted itself
	// as I/O; overwrite all counters with the saved ones. Snapshots written
	// before Counters existed decode it as all-zero — leave the store stats
	// the restore derived in place for those rather than zeroing live gauges.
	if sf.Counters != (persist.SnapCounters{}) {
		bu.RestoreMetrics(core.Metrics{
			Tuples:      sf.Counters.Tuples,
			Comparisons: sf.Counters.Comparisons,
			Traversed:   sf.Counters.Traversed,
			Facts:       sf.Counters.Facts,
		})
		mem.RestoreStats(store.Stats{
			StoredTuples: sf.Counters.StoredTuples,
			Cells:        sf.Counters.Cells,
			Reads:        sf.Counters.Reads,
			Writes:       sf.Counters.Writes,
		})
	}
	return eng, nil
}

// CheckpointStats describes a committed pool checkpoint.
type CheckpointStats struct {
	// Generation numbers the committed snapshot.
	Generation uint64
	// TruncatableLSN is the lowest shard watermark the manifest pins:
	// records at or below it will never be replayed — by this pool's
	// recovery or by a follower restored from the snapshot — so
	// WAL.TruncateBefore(TruncatableLSN+1) is safe. Zero without a WAL.
	TruncatableLSN uint64
	// Bytes is the total size of the generation's shard files.
	Bytes int64
	// Elapsed is how long the checkpoint took, first shard to manifest.
	Elapsed time.Duration
	// LongestHold is the longest any one shard's lock was held: what the
	// checkpoint can have added to the latency of an append beside it.
	LongestHold time.Duration
}

// Checkpoint writes the pool's state into dir as a new snapshot
// generation: a manifest plus one engine snapshot per shard. Each shard is
// saved under its own lock; as shards are independent substreams,
// per-shard consistency is the meaningful unit and no cross-shard barrier
// is taken. When a WAL is attached, the manifest records the WAL position
// each shard reflects, so recovery replays exactly the uncovered tail.
// sidecars, when non-nil, is invoked after the shard files are written
// and before the manifest commits; the payloads it returns are committed
// atomically with the snapshot and handed back by RestorePool — a hook for
// a caller's derived state (the callback ordering lets it barrier against
// in-flight ingest first).
func (p *Pool) Checkpoint(dir string, sidecars func() (map[string][]byte, error)) (CheckpointStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return CheckpointStats{}, fmt.Errorf("situfact: pool snapshot: %w", err)
	}
	prev, havePrev, err := persist.ReadManifest(dir)
	if err != nil {
		return CheckpointStats{}, fmt.Errorf("situfact: pool snapshot: %w", err)
	}
	gen := uint64(1)
	if havePrev {
		gen = prev.Generation + 1
	}
	// New generation's shard files first; the manifest commit comes last.
	began := time.Now()
	stats := CheckpointStats{Generation: gen}
	lsns := make([]uint64, len(p.shards))
	var buf []byte // one encode buffer, reused shard after shard
	for i := range p.shards {
		s := &p.shards[i]
		// Only the encode holds the shard lock; the file write (two fsyncs
		// plus a rename) happens after, so a checkpoint stalls the shard's
		// ingest for the serialization time, not the disk time. The encode
		// mutates nothing, so it shares the lock with readers.
		s.mu.RLock()
		locked := time.Now()
		// Journal and apply are atomic under the write lock (applyShard), so
		// every WAL record ≤ the log's current head either succeeded on
		// this shard (inside the snapshot), failed deterministically
		// (droppable) or belongs to another shard. The head is therefore
		// this shard's watermark — typically well past its lastLSN for
		// shards the hash routes few rows to. Pinning lastLSN instead
		// would leave such a shard's watermark below the truncation point
		// derived from the heads, and a follower restored from this
		// snapshot would ask for records the leader no longer has.
		if p.wal != nil {
			lsns[i] = p.wal.w.LastLSN()
		}
		buf, err = s.eng.appendSnapshot(buf[:0])
		s.mu.RUnlock()
		stats.LongestHold = max(stats.LongestHold, time.Since(locked))
		if err == nil {
			err = persist.WriteFileAtomic(filepath.Join(dir, persist.ShardSnapshotName(i, gen)), func(w io.Writer) error {
				_, werr := w.Write(buf)
				return werr
			})
		}
		if err != nil {
			return CheckpointStats{}, fmt.Errorf("situfact: pool snapshot: shard %d: %w", i, err)
		}
		stats.Bytes += int64(len(buf))
	}
	// The manifest durably pins the captured LSNs, so every one of them
	// must be durable in the WAL first: a buffered-but-unsynced record
	// would be lost by a crash, its LSN reassigned to a NEW acknowledged
	// operation on restart, and a later recovery would skip that operation
	// as "already in the snapshot". A record is journaled before its
	// fsync, so the captured head can be ahead of the synced watermark.
	if top := slices.Max(lsns); top > 0 {
		if err := p.wal.w.WaitSync(top); err != nil {
			return CheckpointStats{}, fmt.Errorf("situfact: pool snapshot: wal sync: %w", err)
		}
	}
	var side map[string][]byte
	if sidecars != nil {
		if side, err = sidecars(); err != nil {
			return CheckpointStats{}, fmt.Errorf("situfact: pool snapshot: sidecars: %w", err)
		}
	}
	man := persist.Manifest{
		SchemaSig:  schemaSig(p.schema.rs),
		ShardDim:   p.ShardDim(),
		Shards:     len(p.shards),
		Generation: gen,
		Sidecars:   side,
	}
	if p.wal != nil {
		// Nil without a WAL, per the manifest contract: a WAL-less pool's
		// lastLSN values are either zero or restored from an earlier
		// WAL-era snapshot — re-pinning the latter would claim coverage of
		// a log this run never saw. The epoch names the exact log instance
		// the watermarks refer to.
		man.ShardLSNs = lsns
		man.WALEpoch = p.wal.w.Epoch()
	}
	if err := persist.WriteManifest(dir, man); err != nil {
		return CheckpointStats{}, fmt.Errorf("situfact: pool snapshot: manifest: %w", err)
	}
	// Committed; the superseded generation is garbage now.
	if havePrev {
		persist.RemoveGeneration(dir, prev.Shards, prev.Generation)
	}
	stats.TruncatableLSN = slices.Min(lsns)
	stats.Elapsed = time.Since(began)
	return stats, nil
}

// RestorePool reconstructs a pool from the newest generation Checkpoint
// committed in dir, and returns the sidecar payloads committed with it (nil
// when the snapshot carries none). The schema must match the one the
// snapshot was taken under; shard count, routing dimension, algorithm and
// caps are restored from the snapshot itself, and an algorithm NewPool
// refuses is refused here too.
func RestorePool(schema *Schema, dir string) (*Pool, map[string][]byte, error) {
	if schema == nil || schema.rs == nil {
		return nil, nil, fmt.Errorf("situfact: nil schema")
	}
	man, ok, err := persist.ReadManifest(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("situfact: pool snapshot: %w", err)
	}
	if !ok {
		return nil, nil, fmt.Errorf("situfact: %w in %s", ErrNoSnapshot, dir)
	}
	if got := schemaSig(schema.rs); got != man.SchemaSig {
		return nil, nil, fmt.Errorf("situfact: pool snapshot schema %q does not match %q", man.SchemaSig, got)
	}
	if man.Shards <= 0 {
		return nil, nil, fmt.Errorf("situfact: pool snapshot: manifest has %d shards", man.Shards)
	}
	if man.ShardLSNs != nil && len(man.ShardLSNs) != man.Shards {
		return nil, nil, fmt.Errorf("situfact: pool snapshot: %d shard LSNs for %d shards", len(man.ShardLSNs), man.Shards)
	}
	shardDim := schema.rs.DimIndex(man.ShardDim)
	if shardDim < 0 {
		return nil, nil, fmt.Errorf("situfact: pool snapshot shard dimension %q not in schema %s",
			man.ShardDim, schema.rs)
	}
	p := &Pool{schema: schema, shardDim: shardDim, shards: make([]poolShard, man.Shards)}
	for i := range p.shards {
		data, err := os.ReadFile(filepath.Join(dir, persist.ShardSnapshotName(i, man.Generation)))
		if err != nil {
			p.Close()
			return nil, nil, fmt.Errorf("situfact: pool snapshot: %w", err)
		}
		eng, err := loadSnapshot(schema, data)
		if err != nil {
			p.Close()
			return nil, nil, fmt.Errorf("situfact: pool snapshot: shard %d: %w", i, err)
		}
		p.shards[i].eng = eng
		if man.ShardLSNs != nil {
			p.shards[i].lastLSN = man.ShardLSNs[i]
		}
	}
	p.walEpoch = man.WALEpoch
	return p, man.Sidecars, nil
}
