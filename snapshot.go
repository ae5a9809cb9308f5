package situfact

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/persist"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// Snapshot persistence: SaveSnapshot serialises an in-memory engine's full
// state (dictionary, tuples, tombstones, µ-store cells, prominence
// counters) so a stream can be resumed later with LoadSnapshot — a
// production necessity the paper leaves implicit. This file is a thin
// wrapper translating engine/pool state to and from internal/persist,
// which owns the codec, the generational manifest, and the write-ahead
// log (see wal.go for journaling and recovery).
//
// Snapshots are supported for engines running the lattice algorithms
// (BottomUp/TopDown families) over the default in-memory store; engines
// with a StoreDir already keep their cells on disk, and baseline engines
// would need their private histories replayed instead.

func schemaSig(s *relation.Schema) string {
	return s.String()
}

// CanSnapshot reports whether SaveSnapshot supports this engine: a
// lattice algorithm (BottomUp/TopDown family) over the in-memory store.
func (e *Engine) CanSnapshot() bool { return e.mem != nil }

// CanSnapshot reports whether SaveSnapshot supports this pool's engines.
func (p *Pool) CanSnapshot() bool { return p.shards[0].eng.CanSnapshot() }

// ErrNoSnapshot reports that a directory holds no pool snapshot at all —
// as opposed to holding a corrupt or mismatched one, which is a distinct
// error. Daemons restore-or-start-fresh with errors.Is(err, ErrNoSnapshot);
// any other LoadPoolSnapshot error should fail startup loudly rather than
// silently serving an empty relation over existing state.
var ErrNoSnapshot = errors.New("no pool snapshot")

// SaveSnapshot writes the engine's state to w. See the package note above
// for which engines support it.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	mem := e.mem
	if mem == nil {
		return fmt.Errorf("situfact: snapshots require a lattice algorithm over the in-memory store (engine runs %s)", e.disc.Name())
	}
	sf := persist.EngineSnapshot{
		SchemaSig: schemaSig(e.schema),
		Algorithm: string(e.algorithm),
		MaxBound:  e.maxBound,
		MaxMeas:   e.maxMeasure,
	}
	d := e.table.Dict()
	sf.DictValues = make([][]string, e.schema.NumDims())
	for i := range sf.DictValues {
		vals := make([]string, d.Cardinality(i))
		for c := range vals {
			vals[c] = d.Decode(i, int32(c))
		}
		sf.DictValues[i] = vals
	}
	for _, tu := range e.table.Tuples() {
		sf.Tuples = append(sf.Tuples, persist.SnapTuple{Dims: tu.Dims, Raw: tu.Raw})
	}
	for id := range e.deleted {
		sf.Deleted = append(sf.Deleted, id)
	}
	if e.counter != nil {
		sf.Counts = e.counter.Snapshot()
	}
	met := e.Metrics()
	sf.Counters = persist.SnapCounters{
		Tuples: met.Tuples, Comparisons: met.Comparisons,
		Traversed: met.Traversed, Facts: met.Facts,
		StoredTuples: met.StoredTuples, Cells: met.Cells,
		Reads: met.Reads, Writes: met.Writes,
	}
	// Cells persist in logical key→tuple-id form: the wire format is
	// independent of the in-memory layout, so snapshots written before the
	// interned-id refactor restore identically. The store knows how many
	// there are; a list grown by append leaves several times its size to the
	// collector while the shard is locked.
	sf.Cells = make([]persist.SnapCell, 0, met.Cells)
	mem.Walk(func(k store.CellKey, c store.Cell) {
		sf.Cells = append(sf.Cells, persist.SnapCell{
			CKey: string(k.C),
			M:    uint32(k.M),
			IDs:  c.IDList(),
		})
	})
	return persist.EncodeEngine(w, &sf)
}

// LoadSnapshot reconstructs an engine from a snapshot written by
// SaveSnapshot. The schema must match the one the snapshot was taken
// under.
func LoadSnapshot(schema *Schema, r io.Reader) (*Engine, error) {
	if schema == nil || schema.rs == nil {
		return nil, fmt.Errorf("situfact: nil schema")
	}
	sf, err := persist.DecodeEngine(r)
	if err != nil {
		return nil, fmt.Errorf("situfact: %w", err)
	}
	if got := schemaSig(schema.rs); got != sf.SchemaSig {
		return nil, fmt.Errorf("situfact: snapshot schema %q does not match %q", sf.SchemaSig, got)
	}
	eng, err := New(schema, Options{
		Algorithm:         Algorithm(sf.Algorithm),
		MaxBoundDims:      sf.MaxBound,
		MaxMeasureDims:    sf.MaxMeas,
		DisableProminence: sf.Counts == nil,
	})
	if err != nil {
		return nil, err
	}
	mem := eng.mem
	if mem == nil {
		return nil, fmt.Errorf("situfact: snapshot algorithm %q has no in-memory store", sf.Algorithm)
	}
	// Rebuild the dictionary in code order, then the table.
	d := eng.table.Dict()
	for dim, vals := range sf.DictValues {
		for _, v := range vals {
			d.Encode(dim, v)
		}
	}
	for _, st := range sf.Tuples {
		if _, err := eng.table.AppendEncoded(st.Dims, st.Raw); err != nil {
			return nil, fmt.Errorf("situfact: snapshot tuple: %w", err)
		}
	}
	// Cells store only tuple ids; the discoverer's registry must be able to
	// resolve restored ids to tuples and measure vectors (cell scans,
	// TopDown re-homing, SkylineSize) even though these tuples never went
	// through Process.
	if rt, ok := eng.disc.(interface{ RegisterTuple(*relation.Tuple) }); ok {
		for _, tu := range eng.table.Tuples() {
			rt.RegisterTuple(tu)
		}
	}
	for _, id := range sf.Deleted {
		if eng.deleted == nil {
			eng.deleted = make(map[int64]bool)
		}
		eng.deleted[id] = true
	}
	if sf.Counts != nil {
		eng.counter.Restore(sf.Counts)
	}
	for _, cell := range sf.Cells {
		var c store.Cell
		for _, id := range cell.IDs {
			if id < 0 || id >= int64(eng.table.Len()) { // a tuple's id is its table position
				return nil, fmt.Errorf("situfact: snapshot cell references unknown tuple %d", id)
			}
			c.Append(id)
		}
		mem.SaveKey(store.CellKey{C: lattice.Key(cell.CKey), M: subspace.Mask(cell.M)}, c)
	}
	// Replaying the cells above recomputed StoredTuples/Cells but counted
	// the replay itself as I/O; overwrite all counters with the saved ones.
	// Snapshots written before Counters existed decode it as all-zero —
	// leave the replay-derived store stats in place for those rather than
	// zeroing live gauges.
	if sf.Counters != (persist.SnapCounters{}) {
		if rm, ok := eng.disc.(interface{ RestoreMetrics(core.Metrics) }); ok {
			rm.RestoreMetrics(core.Metrics{
				Tuples:      sf.Counters.Tuples,
				Comparisons: sf.Counters.Comparisons,
				Traversed:   sf.Counters.Traversed,
				Facts:       sf.Counters.Facts,
			})
		}
		mem.RestoreStats(store.Stats{
			StoredTuples: sf.Counters.StoredTuples,
			Cells:        sf.Counters.Cells,
			Reads:        sf.Counters.Reads,
			Writes:       sf.Counters.Writes,
		})
	}
	return eng, nil
}

// SaveSnapshot writes the pool's state into dir: a manifest plus one
// engine snapshot per shard. Each shard is saved under its own lock; as
// shards are independent substreams, per-shard consistency is the
// meaningful unit and no cross-shard barrier is taken. It requires the
// same engines Engine.SaveSnapshot does (lattice algorithms over the
// in-memory store). Checkpoint is the richer form used with a WAL.
func (p *Pool) SaveSnapshot(dir string) error {
	_, err := p.Checkpoint(dir, nil)
	return err
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
}

// Checkpoint writes the pool's state into dir as a new snapshot
// generation. When a WAL is attached, each shard file records the WAL
// position it reflects, so recovery replays exactly the uncovered tail.
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
	lsns := make([]uint64, len(p.shards))
	var buf bytes.Buffer
	for i := range p.shards {
		s := &p.shards[i]
		buf.Reset()
		// Only the encode holds the shard lock; the file write (two fsyncs
		// plus a rename) happens after, so a checkpoint stalls the shard's
		// ingest for the serialization time, not the disk time.
		s.mu.Lock()
		// Journal and apply are atomic under this lock (applyShard), so
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
		err := s.eng.SaveSnapshot(&buf)
		s.mu.Unlock()
		if err == nil {
			err = persist.WriteFileAtomic(filepath.Join(dir, persist.ShardSnapshotName(i, gen)), func(w io.Writer) error {
				_, werr := w.Write(buf.Bytes())
				return werr
			})
		}
		if err != nil {
			return CheckpointStats{}, fmt.Errorf("situfact: pool snapshot: shard %d: %w", i, err)
		}
	}
	// The manifest durably pins the captured LSNs, so every one of them
	// must be durable in the WAL first: a buffered-but-unsynced record
	// would be lost by a crash, its LSN reassigned to a NEW acknowledged
	// operation on restart, and a later recovery would skip that operation
	// as "already in the snapshot". This also holds in interval-sync mode,
	// where appends are acknowledged ahead of the fsync.
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
	return CheckpointStats{Generation: gen, TruncatableLSN: slices.Min(lsns)}, nil
}

// LoadPoolSnapshot reconstructs a pool from a directory written by
// Pool.SaveSnapshot. The schema must match the one the snapshot was taken
// under; shard count, routing dimension, algorithm and caps are restored
// from the snapshot itself. RestorePool additionally returns the sidecar
// payloads committed with the snapshot.
func LoadPoolSnapshot(schema *Schema, dir string) (*Pool, error) {
	p, _, err := RestorePool(schema, dir)
	return p, err
}

// RestorePool is LoadPoolSnapshot plus the snapshot's sidecar payloads
// (nil when the snapshot carries none).
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
		f, err := os.Open(filepath.Join(dir, persist.ShardSnapshotName(i, man.Generation)))
		if err != nil {
			p.Close()
			return nil, nil, fmt.Errorf("situfact: pool snapshot: %w", err)
		}
		eng, err := LoadSnapshot(schema, f)
		f.Close()
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

// memoryStoreOf extracts the in-memory µ store of a lattice discoverer, nil
// when there is none. Baselines embed an (unused) default store too, so the
// algorithm type is checked explicitly: only the BottomUp/TopDown families
// keep their whole state in the µ store.
func memoryStoreOf(d core.Discoverer) *store.Memory {
	switch d.(type) {
	case *core.BottomUp, *core.TopDown:
		mem, _ := d.(interface{ Store() store.Store }).Store().(*store.Memory)
		return mem
	}
	return nil
}
