package core

import (
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// SkylineSizer reports |λ_M(σ_C(R))|, the denominator of the paper's
// prominence measure |σ_C(R)| / |λ_M(σ_C(R))| (§VII). Both µ-store
// families implement it; the cost differs because of their storage
// schemes.
type SkylineSizer interface {
	SkylineSize(c lattice.Constraint, m subspace.Mask) int
}

// ConstraintSizer is a SkylineSizer whose constraint lookup can be hoisted
// out of a run of sizings: an arrival's thousands of facts sit under a few
// dozen constraints, and finding a constraint's store id (key bytes, the
// intern table's lock, a string-map probe) costs more than reading a
// cell's length. SkylineSizeOf(id, m) after ResolveConstraint(c) returned
// (id, true) equals SkylineSize(c, m), store counters included; when it
// returned false every skyline of c is empty.
type ConstraintSizer interface {
	SkylineSizer
	ResolveConstraint(c lattice.Constraint) (id store.ConstraintID, ok bool)
	SkylineSizeOf(id store.ConstraintID, m subspace.Mask) int
}

// SkylineSize implements SkylineSizer for the BottomUp family: Invariant 1
// makes µ(C,M) the skyline itself, so the size is the cell length.
func (a *BottomUp) SkylineSize(c lattice.Constraint, m subspace.Mask) int {
	id, ok := a.ResolveConstraint(c)
	if !ok {
		return 0
	}
	return a.SkylineSizeOf(id, m)
}

// ResolveConstraint implements ConstraintSizer. The probe goes through
// Interner.LookupConstraint so sizing absent constraints does not grow the
// intern table.
func (a *BottomUp) ResolveConstraint(c lattice.Constraint) (store.ConstraintID, bool) {
	return a.in.LookupConstraint(c)
}

// SkylineSizeOf implements ConstraintSizer.
func (a *BottomUp) SkylineSizeOf(id store.ConstraintID, m subspace.Mask) int {
	return a.st.Load(store.Ref(id, m)).Len()
}

// SkylineSize implements SkylineSizer for the TopDown family: Invariant 2
// stores a tuple only at its maximal skyline constraints, so the skyline
// of (C,M) is the set of tuples stored at C or any of its ancestors
// (2^bound(C) cells) that satisfy C. Tuples stored at two incomparable
// ancestors are deduplicated by ID. Cells carry ids only; the satisfaction
// test resolves dimension values through the tuple registry.
func (a *TopDown) SkylineSize(c lattice.Constraint, m subspace.Mask) int {
	bound := c.BoundMask()
	var seen map[int64]bool
	count := 0
	visit := func(anc lattice.Constraint) {
		id, ok := a.in.LookupConstraint(anc)
		if !ok {
			return
		}
		cell := a.st.Load(store.Ref(id, m))
		for i, n := 0, cell.Len(); i < n; i++ {
			uid := cell.ID(i)
			if !c.Satisfies(a.tupleByID(uid)) {
				continue
			}
			if seen == nil {
				seen = make(map[int64]bool, 8)
			}
			if !seen[uid] {
				seen[uid] = true
				count++
			}
		}
	}
	// Enumerate ancestors-or-self: blank out every subset of bound attrs.
	sub := bound
	for {
		anc := lattice.Constraint{Vals: make([]int32, len(c.Vals))}
		for i := range c.Vals {
			if sub&(1<<uint(i)) != 0 {
				anc.Vals[i] = c.Vals[i]
			} else {
				anc.Vals[i] = lattice.Wildcard
			}
		}
		visit(anc)
		if sub == 0 {
			break
		}
		sub = (sub - 1) & bound
	}
	return count
}

var (
	_ ConstraintSizer = (*BottomUp)(nil)
	_ SkylineSizer    = (*TopDown)(nil)
)

// ContextCounter tracks |σ_C(R)| for every constraint with bound(C) ≤ d̂
// over the observed stream: each arrival increments the counters of all
// constraints it satisfies. It is the numerator of the prominence measure
// and is shared by any algorithm via composition.
//
// Every probe builds its key in stack scratch (the interner's
// m[string(buf)] idiom) and counts are updated through a pointer, so
// observing, unobserving and sizing a constraint that has a count allocate
// nothing. A count that falls back to zero is dropped, so the map tracks
// the live constraints, not every constraint ever seen.
type ContextCounter struct {
	masks  []lattice.Mask
	counts map[string]*int64 // by constraint key; never zero
}

// NewContextCounter creates a counter for d dimension attributes with the
// d̂ cap (maxBound < 0: none).
func NewContextCounter(d, maxBound int) *ContextCounter {
	return &ContextCounter{
		masks:  lattice.CtMasks(d, maxBound),
		counts: make(map[string]*int64),
	}
}

// Observe folds an arrival into the counters.
func (cc *ContextCounter) Observe(t *relation.Tuple) {
	var scratch [lattice.KeyScratch]byte
	for _, m := range cc.masks {
		buf := lattice.AppendKeyFromTuple(scratch[:0], t, m)
		n, ok := cc.counts[string(buf)]
		if !ok { // first sight of a constraint: its key and its count
			n = new(int64)
			cc.counts[string(buf)] = n
		}
		*n++
	}
}

// Unobserve reverses Observe for a deleted tuple, keeping |σ_C(R)|
// counters exact under deletion.
func (cc *ContextCounter) Unobserve(t *relation.Tuple) {
	var scratch [lattice.KeyScratch]byte
	for _, m := range cc.masks {
		buf := lattice.AppendKeyFromTuple(scratch[:0], t, m)
		n, ok := cc.counts[string(buf)]
		if !ok {
			continue
		}
		if *n--; *n <= 0 {
			delete(cc.counts, string(buf))
		}
	}
}

// ContextSize returns |σ_C(R)| for the constraint (0 if never observed).
func (cc *ContextCounter) ContextSize(c lattice.Constraint) int64 {
	var scratch [lattice.KeyScratch]byte
	if n, ok := cc.counts[string(c.AppendKey(scratch[:0]))]; ok {
		return *n
	}
	return 0
}

// SizeOfKey is ContextSize by key bytes (Constraint.AppendKey's encoding,
// which the store's interner shares): nothing is parsed or built.
func (cc *ContextCounter) SizeOfKey(key string) int64 {
	if n, ok := cc.counts[key]; ok {
		return *n
	}
	return 0
}

// Len returns the number of constraints that have a count.
func (cc *ContextCounter) Len() int { return len(cc.counts) }

// Each calls fn with every constraint key that has a count, in no
// particular order. Used by engine persistence.
func (cc *ContextCounter) Each(fn func(key string, n int64)) {
	for k, n := range cc.counts {
		fn(k, *n)
	}
}

// Reset drops every count and makes room for n; snapshot restore then Sets
// each (key, count) pair it read.
func (cc *ContextCounter) Reset(n int) {
	cc.counts = make(map[string]*int64, n)
}

// Set makes n, which must be positive, the count of the constraint key.
func (cc *ContextCounter) Set(key string, n int64) {
	cc.counts[key] = &n
}
