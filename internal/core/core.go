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

// Fact is one discovered situational fact about the tuple t the discoverer
// last processed: t is a contextual skyline tuple for (C, Subspace), where C
// is the member of C^t that binds the dimensions in Bound to t's values and
// leaves the others unbound. A fact of t always has C ∈ C^t, so the mask
// names C; lattice.FromTuple(t, Bound) builds it where one is wanted.
type Fact struct {
	// Bound is the bound mask of the context selector C.
	Bound lattice.Mask
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
	// with unique IDs. The facts are about t: their masks name members of
	// C^t. The returned slice is valid until the next Process or Delete on
	// the same discoverer, which may reuse its storage.
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

	// Per-constraint walk scratch, stamped by epoch so that a new walk
	// clears nothing (see walkMark). queue is one walk's traversal order: a
	// walk truncates it, appends each mask at most once and reads it by
	// index, so its storage — at most 2^d masks — is allocated once per
	// algorithm instance.
	epoch uint32
	marks []walkMark
	queue []lattice.Mask

	// Per-arrival scratch, current iff stamped with keyStamp. cur is the
	// tuple of the last Process or Delete, the one the skyline sizers
	// answer for.
	keyStamp uint32
	keyEpoch []uint32
	cids     []store.ConstraintID
	freshAt  []uint32 // BottomUp's: c is fresh in this arrival iff freshAt[c] == keyStamp
	facts    []Fact   // the last arrival's facts; the next one reuses the storage
	cur      *relation.Tuple

	// rels caches, by tuple id, the current tuple's Proposition-4 relation
	// to that tuple over 𝕄 (relTo) — the arrival's, or the one Delete
	// removes — so each pair is compared once however many subspaces test
	// it. recs lists the S* root pass's records, one per member it compared.
	rels []relEntry
	recs []pairRec

	// Scratch of the cell scans: member indices the candidate dominates in
	// the cell under scan, and the evictees' tuple ids resolved before the
	// cell is compacted.
	remIdx    []int
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
		fullM:    subspace.Full(m),
		st:       st,
		in:       st.Interner(),
		marks:    make([]walkMark, size),
		keyEpoch: make([]uint32, size),
		cids:     make([]store.ConstraintID, size),
	}, nil
}

// walkMark is one constraint's scratch in the current walk, current while
// epoch is base.epoch (mark resets a stale one). Bit j of pruned and
// queued stands for the walk's j-th subspace: a BottomUp walk carries up to
// 64 of them, a TopDown pass one, bit 0.
type walkMark struct {
	epoch          uint32
	anc            bool // TopDown: a parent is not pruned, so t is stored above c
	pruned, queued uint64
}

// nextEpoch starts a walk: every mark goes stale.
func (b *base) nextEpoch() {
	b.epoch++
	if b.epoch == 0 { // wrapped: hard reset
		clear(b.marks)
		b.epoch = 1
	}
}

// mark returns constraint c's scratch in the current walk.
func (b *base) mark(c lattice.Mask) *walkMark {
	mk := &b.marks[c]
	if mk.epoch != b.epoch {
		*mk = walkMark{epoch: b.epoch}
	}
	return mk
}

// newTupleScratch starts a fresh per-tuple generation: it registers the
// tuple in the id registry and, by a new key stamp, invalidates the cached
// constraint ids, which embed the tuple's dimension values, and the
// tuple's relations to stored members. Each walk starts its own epoch.
func (b *base) newTupleScratch(t *relation.Tuple) {
	b.register(t)
	b.cur = t
	b.keyStamp++
	if b.keyStamp == 0 { // wrapped: hard reset
		clear(b.keyEpoch)
		clear(b.freshAt)
		clear(b.rels)
		b.keyStamp = 1
	}
}

// register makes t and its oriented vector resolvable by id; idempotent.
func (b *base) register(t *relation.Tuple) {
	for int64(len(b.reg)) <= t.ID {
		b.reg = append(b.reg, nil)
		b.vecs = append(b.vecs, make([]float64, b.m)...)
		b.rels = append(b.rels, relEntry{})
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

// emit records the fact (C, m) of the current arrival, C the member of C^t
// that binds c; sky is its skyline size where the algorithm knows it, else
// 0.
func (b *base) emit(c lattice.Mask, m subspace.Mask, sky int32, facts []Fact) []Fact {
	b.met.Facts++
	return append(facts, Fact{Bound: c, Subspace: m, SkylineSize: sky})
}

// prune marks every submask of c pruned in the walk's subspace bits
// (Proposition 3: the interval [⊥(C^{t,t'}), ⊤] of the intersection
// lattice, which in mask terms is the submask closure of the shared mask).
// All pruning in this package goes through this routine, so each bit's
// pruned set is submask-closed; bits c already has pruned are closed below
// it, and only the others are spread.
func (b *base) prune(c lattice.Mask, bits uint64) {
	if bits &^= b.mark(c).pruned; bits == 0 {
		return
	}
	for s := c; ; s = (s - 1) & c {
		b.mark(s).pruned |= bits
		if s == 0 {
			break
		}
	}
}

// relEntry is one member's slot in the relation cache: rel is current for
// this arrival iff stamp == keyStamp.
type relEntry struct {
	stamp uint32
	rel   subspace.Relation
}

// pairRec is one S* root-pass record: t's relation to a member u it
// compared, and the dimensions t and u share.
type pairRec struct {
	shared lattice.Mask
	rel    subspace.Relation
}

// relTo returns t's relation to member id over 𝕄 (§V-C, Proposition 4): one
// comparison of the two vectors answers dominance in every subspace
// (Relation.DominatedIn, DominatesIn). The arrival's first call for id
// computes and caches it; with record set, that call also appends the pair's
// root-pass record.
func (b *base) relTo(t *relation.Tuple, id uint32, record bool) subspace.Relation {
	e := &b.rels[id]
	if e.stamp != b.keyStamp {
		b.relate(t, id, record)
	}
	return e.rel
}

func (b *base) relate(t *relation.Tuple, id uint32, record bool) {
	rel := subspace.CompareVecs(t.Oriented, b.vec(int64(id)))
	b.rels[id] = relEntry{b.keyStamp, rel}
	if record {
		b.recs = append(b.recs, pairRec{sharedOf(t, b.reg[id]), rel})
	}
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
