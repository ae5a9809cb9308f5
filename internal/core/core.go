package core

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// MaxLatticeDims bounds the number of dimension attributes the discovery
// algorithms accept: per-tuple scratch state is sized 2^d. The paper uses
// d ≤ 8.
const MaxLatticeDims = 16

// Fact is one discovered situational fact: the arriving tuple is a
// contextual skyline tuple for (Constraint, Subspace).
type Fact struct {
	// Constraint is the context selector C. Its Vals are read-only: the
	// facts of one arrival over the same constraint share one backing
	// array, capped at its length so that an append copies. It is never
	// written again, however long the fact is kept.
	Constraint lattice.Constraint
	// Subspace is the measure subspace mask M.
	Subspace subspace.Mask
	// SkylineSize is |λ_M(σ_C(R))| including the arriving tuple, as the
	// BottomUp family finds it (under Invariant 1 the cell it appends the
	// tuple to is that skyline); 0 from every other algorithm.
	SkylineSize int32
}

// Metrics aggregates the work counters reported in the paper's Figure 11
// plus general bookkeeping. Store-level counters (stored tuples, file I/O)
// live in store.Stats.
type Metrics struct {
	// Tuples is the number of processed arrivals.
	Tuples int64
	// Comparisons counts pairwise tuple dominance tests (Fig 11a).
	Comparisons int64
	// Traversed counts visited lattice constraints, accumulated over all
	// measure subspaces (Fig 11b).
	Traversed int64
	// Facts is the cumulative number of discovered facts.
	Facts int64
}

// Discoverer is the common interface of all algorithms.
type Discoverer interface {
	// Name returns the paper's algorithm name (e.g. "TopDown").
	Name() string
	// Process discovers the facts pertinent to the arrival of t and folds
	// t into the internal state. Tuples must be presented in arrival order
	// with unique IDs. The returned slice is valid until the next Process
	// or Delete on the same discoverer, which may reuse its storage; the
	// facts copied out of it stay valid.
	Process(t *relation.Tuple) []Fact
	// Metrics returns a snapshot of the work counters.
	Metrics() Metrics
	// StoreStats returns the µ-store counters (zero value for algorithms
	// without a store).
	StoreStats() store.Stats
	// Close releases resources.
	Close() error
}

// Config parameterises an algorithm instance.
type Config struct {
	// Schema is the relation schema.
	Schema *relation.Schema
	// MaxBound is d̂, the maximum number of bound dimension attributes per
	// constraint; < 0 means no cap.
	MaxBound int
	// MaxMeasure is m̂, the maximum measure-subspace size; < 0 means no cap.
	MaxMeasure int
	// Store is the µ(C,M) store for the lattice algorithms; nil selects a
	// fresh in-memory store. Baselines ignore it.
	Store store.Store
}

func (c Config) validate() error {
	if c.Schema == nil {
		return fmt.Errorf("core: nil schema")
	}
	if c.Schema.NumDims() > MaxLatticeDims {
		return fmt.Errorf("core: %d dimension attributes exceed the lattice limit %d",
			c.Schema.NumDims(), MaxLatticeDims)
	}
	return nil
}

// base carries the precomputed lattice/subspace structure and scratch
// buffers shared by all algorithm implementations.
type base struct {
	schema *relation.Schema
	d, m   int
	dhat   int // effective d̂ (normalised: 0..d)
	mhat   int // effective m̂ (normalised: 1..m)

	ctMasks []lattice.Mask  // all constraint masks, Alg.1 order (parents first)
	bottoms []lattice.Mask  // minimal masks of the (possibly truncated) lattice
	subs    []subspace.Mask // all reported subspaces (|M| ≤ m̂), ascending mask
	fullM   subspace.Mask   // the full measure space 𝕄

	st store.Store
	in *store.Interner // st's intern table (cached to skip the interface call)

	// midx[s] lists the measure indices of subspace s — the dominance
	// kernel iterates this flat list instead of scanning mask bits.
	// Filled for every reported subspace plus 𝕄 at construction; indices
	// fits uint8 because masks are 32-bit.
	midx [][]uint8

	// reg resolves tuple ids back to tuples (reg[id], ids are arrival
	// positions). Cells store only ids; the rare paths that need dimension
	// values — TopDown re-homing, SkylineSize, the S* record passes —
	// resolve through here.
	reg []*relation.Tuple
	// vecs is the measure-vector arena the cell scans read: tuple id's
	// oriented vector is vecs[id·m : (id+1)·m], kept once per tuple however
	// many cells hold it. Flat and pointer-free — a scan's only memory
	// besides the cell's id list.
	vecs []float64

	met Metrics

	// Epoch-stamped per-mask scratch (avoids O(2^d) clearing per subspace).
	// queue is one pass's traversal order: a pass truncates it, appends each
	// mask at most once and walks it by index, so its storage — at most 2^d
	// masks — is allocated once per algorithm instance, not once per pass.
	epoch    uint32
	pruned   []uint32
	inQueue  []uint32
	inAnces  []uint32
	queue    []lattice.Mask
	keyStamp uint32
	keyEpoch []uint32
	cids     []store.ConstraintID
	freshAt  []uint32  // BottomUp's: c is fresh in this arrival iff freshAt[c] == keyStamp
	vals     []int32   // fact-constraint arena (see emit)
	factVals [][]int32 // this tuple's emitted constraint values, by mask
	valsSeen []uint32  // factVals[c] is current iff valsSeen[c] == keyStamp
	facts    []Fact    // the last arrival's facts; the next one reuses the storage

	// Scratch of the batched cell scans (kernel.go): member indices the
	// candidate dominates / is dominated by in the cell under scan, and
	// the evictees' tuple ids resolved before the cell is compacted.
	remIdx    []int
	domIdx    []int
	rehomeIDs []int64
}

// newFacts returns the previous arrival's facts slice, emptied: the storage
// grows to the largest arrival once and is then written in place (see
// Discoverer.Process for how long a result stays valid).
func (b *base) newFacts() []Fact { return b.facts[:0] }

// doneFacts keeps the arrival's facts slice for the next newFacts.
func (b *base) doneFacts(facts []Fact) []Fact {
	b.facts = facts
	return facts
}

func newBase(cfg Config) (*base, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d, m := cfg.Schema.NumDims(), cfg.Schema.NumMeasures()
	dhat := cfg.MaxBound
	if dhat < 0 || dhat > d {
		dhat = d
	}
	mhat := cfg.MaxMeasure
	if mhat < 0 || mhat > m {
		mhat = m
	}
	if mhat < 1 {
		return nil, fmt.Errorf("core: m̂ = %d leaves no measure subspace", mhat)
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMemory(m)
	} else if st.Width() != m {
		return nil, fmt.Errorf("core: store vector width %d does not match schema's %d measures", st.Width(), m)
	}
	subs := subspace.Enumerate(m, mhat)
	fullM := subspace.Full(m)
	midx := make([][]uint8, int(fullM)+1)
	fill := func(s subspace.Mask) {
		if s == 0 || midx[s] != nil {
			return
		}
		idx := make([]uint8, 0, subspace.Size(s))
		for i := 0; i < m; i++ {
			if s&(1<<uint(i)) != 0 {
				idx = append(idx, uint8(i))
			}
		}
		midx[s] = idx
	}
	for _, s := range subs {
		fill(s)
	}
	fill(fullM)
	size := 1 << uint(d)
	return &base{
		schema:   cfg.Schema,
		d:        d,
		m:        m,
		dhat:     dhat,
		mhat:     mhat,
		ctMasks:  lattice.CtMasks(d, dhat),
		bottoms:  lattice.BottomMasks(d, dhat),
		subs:     subs,
		fullM:    fullM,
		st:       st,
		in:       st.Interner(),
		midx:     midx,
		pruned:   make([]uint32, size),
		inQueue:  make([]uint32, size),
		inAnces:  make([]uint32, size),
		keyEpoch: make([]uint32, size),
		factVals: make([][]int32, size),
		valsSeen: make([]uint32, size),
		cids:     make([]store.ConstraintID, size),
	}, nil
}

// nextEpoch invalidates the pruned/inQueue/inAnces scratch marks.
func (b *base) nextEpoch() {
	b.epoch++
	if b.epoch == 0 { // wrapped: hard reset
		for i := range b.pruned {
			b.pruned[i], b.inQueue[i], b.inAnces[i] = 0, 0, 0
		}
		b.epoch = 1
	}
}

// newTupleScratch starts a fresh per-tuple generation: it registers the
// tuple in the id registry, clears the mark arrays (via a new epoch) and
// invalidates the cached constraint ids, which are per-tuple because they
// embed the tuple's dimension values.
func (b *base) newTupleScratch(t *relation.Tuple) {
	b.register(t)
	b.nextEpoch()
	b.keyStamp++
	if b.keyStamp == 0 {
		for i := range b.keyEpoch {
			b.keyEpoch[i], b.valsSeen[i] = 0, 0
		}
		clear(b.freshAt)
		b.keyStamp = 1
	}
}

// register makes t and its oriented vector resolvable by id; idempotent.
func (b *base) register(t *relation.Tuple) {
	for int64(len(b.reg)) <= t.ID {
		b.reg = append(b.reg, nil)
		b.vecs = append(b.vecs, make([]float64, b.m)...)
	}
	b.reg[t.ID] = t
	copy(b.vec(t.ID), t.Oriented)
}

// RegisterTuple exposes register for snapshot restore: restored cells
// reference tuples that never went through Process, and later cell scans,
// re-homing or SkylineSize calls must still resolve their ids.
func (b *base) RegisterTuple(t *relation.Tuple) { b.register(t) }

// tupleByID resolves a cell member back to its tuple.
func (b *base) tupleByID(id int64) *relation.Tuple { return b.reg[id] }

// vec returns the arena row of tuple id.
func (b *base) vec(id int64) []float64 { return b.vecs[int(id)*b.m : (int(id)+1)*b.m] }

// cid returns the interned constraint id of the C^t member selected by c,
// cached per tuple (the id depends only on t's dimension values and c).
func (b *base) cid(t *relation.Tuple, c lattice.Mask) store.ConstraintID {
	if b.keyEpoch[c] == b.keyStamp {
		return b.cids[c]
	}
	id := b.in.InternTuple(t, c)
	b.cids[c] = id
	b.keyEpoch[c] = b.keyStamp
	return id
}

// cellRef builds the packed store address of µ(C, M).
func (b *base) cellRef(t *relation.Tuple, c lattice.Mask, m subspace.Mask) store.CellRef {
	return store.Ref(b.cid(t, c), m)
}

// indices returns the measure-index list of subspace m, building it on
// demand for masks outside the reported set (not concurrency-safe; bases
// are single-goroutine by contract).
func (b *base) indices(m subspace.Mask) []uint8 {
	idx := b.midx[m]
	if idx == nil {
		idx = make([]uint8, 0, subspace.Size(m))
		for i := 0; i < b.m; i++ {
			if m&(1<<uint(i)) != 0 {
				idx = append(idx, uint8(i))
			}
		}
		b.midx[m] = idx
	}
	return idx
}

// emit materialises a fact. A tuple's thousands of facts draw on the at
// most 2^d constraints of C^t, so the value slice of each is built once
// per tuple and shared, read-only, by every fact over it (see Fact). The
// slices are carved out of a block arena — one allocation per emitBlock
// constraints. Blocks are never reused, so a fact copied out of the
// arrival's slice stays valid indefinitely; the three-index slice keeps one
// constraint's Vals from being overwritten by the next.
func (b *base) emit(t *relation.Tuple, c lattice.Mask, m subspace.Mask, facts []Fact) []Fact {
	b.met.Facts++
	if b.valsSeen[c] != b.keyStamp {
		if cap(b.vals)-len(b.vals) < b.d {
			b.vals = make([]int32, 0, emitBlock*b.d)
		}
		start := len(b.vals)
		for i := 0; i < b.d; i++ {
			v := lattice.Wildcard
			if c&(1<<uint(i)) != 0 {
				v = t.Dims[i]
			}
			b.vals = append(b.vals, v)
		}
		b.factVals[c] = b.vals[start:len(b.vals):len(b.vals)]
		b.valsSeen[c] = b.keyStamp
	}
	return append(facts, Fact{Constraint: lattice.Constraint{Vals: b.factVals[c]}, Subspace: m})
}

// emitBlock is the fact-arena block size, in constraints.
const emitBlock = 256

// cmpVecs is the dominance kernel: it compares two full-width oriented
// vectors over the measure indices idx (one subspace's precomputed index
// list), so the innermost loop streams flat float64 slices with no mask
// bit-scan. dominated reports t ≺ u, dominates reports t ≻ u in that
// subspace. Exactly one Metrics comparison is charged per call by the
// caller.
func cmpVecs(tv, uv []float64, idx []uint8) (dominated, dominates bool) {
	var hasGt, hasLt bool
	for _, j := range idx {
		a, b := tv[j], uv[j]
		if a > b {
			if hasLt {
				return false, false
			}
			hasGt = true
		} else if a < b {
			if hasGt {
				return false, false
			}
			hasLt = true
		}
	}
	return hasLt && !hasGt, hasGt && !hasLt
}

// cmpIn is the tuple-pair form of cmpVecs, used by the history-scanning
// algorithms (baselines, deletion repair) where both sides are tuples.
func (b *base) cmpIn(t, u *relation.Tuple, m subspace.Mask) (dominated, dominates bool) {
	return cmpVecs(t.Oriented, u.Oriented, b.indices(m))
}

// markSubmasksPruned stamps every submask of m as pruned for the current
// epoch (Proposition 3: the interval [⊥(C^{t,t'}), ⊤] of the intersection
// lattice, which in mask terms is the submask closure of the shared mask).
// All pruning in this package goes through this routine, so the pruned set
// is always submask-closed; if m itself is already stamped, so is its
// whole closure and the scan is skipped.
func (b *base) markSubmasksPruned(m lattice.Mask) {
	if b.pruned[m] == b.epoch {
		return
	}
	s := m
	for {
		b.pruned[s] = b.epoch
		if s == 0 {
			break
		}
		s = (s - 1) & m
	}
}

// allBottomsPruned reports whether every minimal mask of the truncated
// lattice is pruned; pruned sets are submask-closed, so this is equivalent
// to "every constraint is pruned".
func (b *base) allBottomsPruned() bool {
	for _, bm := range b.bottoms {
		if b.pruned[bm] != b.epoch {
			return false
		}
	}
	return true
}

// Metrics implements Discoverer.
func (b *base) Metrics() Metrics { return b.met }

// RestoreMetrics overwrites the work counters, so an engine resumed from a
// snapshot reports the same cumulative work as one that never stopped.
func (b *base) RestoreMetrics(m Metrics) { b.met = m }

// Store exposes the µ(C,M) store (engine snapshot support).
func (b *base) Store() store.Store { return b.st }

// StoreStats implements Discoverer.
func (b *base) StoreStats() store.Stats { return b.st.Stats() }

// Close implements Discoverer.
func (b *base) Close() error { return b.st.Close() }
