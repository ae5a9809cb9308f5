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

// SkylineSize implements SkylineSizer for the BottomUp family: Invariant 1
// makes µ(C,M) the skyline itself, so the size is the cell length. The
// probe goes through Interner.LookupConstraint so sizing absent
// constraints does not grow the intern table. Discovery hands each fact
// this size as it emits it (Fact.SkylineSize), so ranking an arrival asks
// for none.
func (a *BottomUp) SkylineSize(c lattice.Constraint, m subspace.Mask) int {
	id, ok := a.in.LookupConstraint(c)
	if !ok {
		return 0
	}
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
	_ SkylineSizer = (*BottomUp)(nil)
	_ SkylineSizer = (*TopDown)(nil)
)

// ContextCounter tracks |σ_C(R)| for every constraint with bound(C) ≤ d̂
// over the observed stream: each arrival increments the counts of all
// constraints it satisfies. It is the numerator of the prominence measure
// and is shared by any algorithm via composition.
//
// A count is a column over a constraint intern table: n[id] is the count of
// the constraint the table numbers id, so the counter keeps no key of its own
// and no object per constraint. An engine hands in its µ store's table — a
// constraint then has one id, which finds its block and its count alike —
// and whoever already holds the id (the fact index, a snapshot) reads the
// count with no key built and nothing hashed. Observing, unobserving and
// sizing constraints the table knows allocate nothing.
type ContextCounter struct {
	masks []lattice.Mask
	in    *store.Interner
	n     []int64 // by constraint id; 0 = no count
	live  int     // constraints with a count
}

// NewContextCounter creates a counter for d dimension attributes with the
// d̂ cap (maxBound < 0: none) over a key table of its own.
func NewContextCounter(d, maxBound int) *ContextCounter {
	return NewContextCounterOver(store.NewInterner(), d, maxBound)
}

// NewContextCounterOver is NewContextCounter over the caller's key table,
// which the counter shares: Observe interns the constraints of C^t it does
// not find there.
func NewContextCounterOver(in *store.Interner, d, maxBound int) *ContextCounter {
	return &ContextCounter{masks: lattice.CtMasks(d, maxBound), in: in}
}

// Observe folds an arrival into the counts.
func (cc *ContextCounter) Observe(t *relation.Tuple) {
	for _, m := range cc.masks {
		id := cc.in.InternTuple(t, m)
		cc.Set(id, cc.SizeOf(id)+1)
	}
}

// Unobserve reverses Observe for a deleted tuple, keeping |σ_C(R)| exact
// under deletion. It probes the table without assigning: a constraint that
// was never counted stays unknown.
func (cc *ContextCounter) Unobserve(t *relation.Tuple) {
	for _, m := range cc.masks {
		if id, ok := cc.in.LookupTuple(t, m); ok && cc.SizeOf(id) > 0 {
			cc.Set(id, cc.n[id]-1)
		}
	}
}

// ContextSize returns |σ_C(R)| for the constraint (0 if never observed).
func (cc *ContextCounter) ContextSize(c lattice.Constraint) int64 {
	if id, ok := cc.in.LookupConstraint(c); ok {
		return cc.SizeOf(id)
	}
	return 0
}

// SizeOf is ContextSize by the table's id of the constraint: an array read.
func (cc *ContextCounter) SizeOf(id store.ConstraintID) int64 {
	if int(id) < len(cc.n) {
		return cc.n[id]
	}
	return 0
}

// Len returns the number of constraints that have a count.
func (cc *ContextCounter) Len() int { return cc.live }

// Each calls fn with every constraint that has a count, in id order. Used by
// engine persistence.
func (cc *ContextCounter) Each(fn func(id store.ConstraintID, n int64)) {
	for id, n := range cc.n {
		if n > 0 {
			fn(store.ConstraintID(id), n)
		}
	}
}

// Set makes n, which must not be negative, the count of constraint id; zero
// leaves it without one.
func (cc *ContextCounter) Set(id store.ConstraintID, n int64) {
	if int(id) >= len(cc.n) {
		cc.n = append(cc.n, make([]int64, int(id)+1-len(cc.n))...)
	}
	switch was := cc.n[id]; {
	case was == 0 && n != 0:
		cc.live++
	case was != 0 && n == 0:
		cc.live--
	}
	cc.n[id] = n
}
