package core

import (
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// TopDown is Algorithm 5 of the paper. It maintains Invariant 2 — µ(C,M)
// stores a tuple exactly at its MAXIMAL skyline constraints — and
// traverses each arriving tuple's lattice top-down from ⊤. Storing each
// tuple once per maximal constraint (instead of at every skyline
// constraint, as BottomUp does) saves space at the cost of extra work:
//
//   - comparisons at a constraint cannot stop at the first dominator
//     (other stored tuples may prune different intersection lattices);
//   - deleting a dominated tuple requires re-homing it at child
//     constraints outside C^t unless an ancestor already stores it.
//
// With Shared=true it becomes STopDown (Alg. 6): the full-space pass
// records one Proposition-4 relation per distinct compared tuple, and each
// subspace pass pre-prunes from those records. Completeness of the
// pre-pruning (every subspace dominator is covered by a recorded one with
// an equal-or-larger shared mask — the transitive-chain argument of
// DESIGN.md) means subspace passes need no dominance checks at all: they
// only emit facts, insert t, and re-home tuples t dominates.
type TopDown struct {
	*base
	shared bool

	recs    []pairRec
	recSeen map[int64]bool
}

// NewTopDown creates plain TopDown.
func NewTopDown(cfg Config) (*TopDown, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &TopDown{base: b}, nil
}

// NewSTopDown creates STopDown (sharing across measure subspaces).
func NewSTopDown(cfg Config) (*TopDown, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &TopDown{base: b, shared: true}, nil
}

// Name implements Discoverer.
func (a *TopDown) Name() string {
	if a.shared {
		return "STopDown"
	}
	return "TopDown"
}

// Process implements Discoverer.
func (a *TopDown) Process(t *relation.Tuple) []Fact {
	a.met.Tuples++
	a.newTupleScratch(t)
	facts := a.newFacts()
	if !a.shared {
		for _, m := range a.subs {
			facts = a.traverseRoot(t, m, false, facts)
		}
		return a.doneFacts(facts)
	}
	// STopDown: STopDownRoot over the full space, then STopDownNode per
	// remaining subspace.
	a.recs = a.recs[:0]
	if a.recSeen == nil {
		a.recSeen = make(map[int64]bool, 64)
	} else {
		clear(a.recSeen)
	}
	facts = a.traverseRoot(t, a.fullM, true, facts)
	for _, m := range a.subs {
		if m == a.fullM {
			continue
		}
		facts = a.traverseNode(t, m, facts)
	}
	return a.doneFacts(facts)
}

// traverseRoot is the TopDown pass (Alg. 5); with record=true it doubles
// as STopDownRoot (Alg. 6), registering Proposition-4 relations.
func (a *TopDown) traverseRoot(t *relation.Tuple, m subspace.Mask, record bool, facts []Fact) []Fact {
	a.nextEpoch()
	emitting := !record || a.mhat == a.m
	a.queue = append(a.queue[:0], 0) // ⊤
	a.inQueue[0] = a.epoch
	tv, idx := t.Oriented, a.midx[m]
	for head := 0; head < len(a.queue); head++ {
		c := a.queue[head]
		a.met.Traversed++
		ref := a.cellRef(t, c, m)
		cell := a.st.Load(ref)
		ids := cell.IDs()
		// Batched scan (kernel.go): every member is visited — TopDown cannot
		// break at a dominator, other stored tuples may prune different
		// intersection lattices — so one Comparison is charged per member.
		dom, doms := scanAll(tv, a.vecs, ids, a.m, idx, a.domIdx[:0], a.remIdx[:0])
		a.met.Comparisons += int64(len(ids))
		if record {
			for _, id := range ids {
				if uid := int64(id); !a.recSeen[uid] {
					a.recSeen[uid] = true
					u := a.tupleByID(uid)
					a.recs = append(a.recs, pairRec{sharedOf(t, u), subspace.Compare(t, u, a.m)})
				}
			}
		}
		// Dominated procedure: prune C^{t,u} per dominating member.
		for _, i := range dom {
			a.markSubmasksPruned(sharedOf(t, a.tupleByID(int64(ids[i]))))
		}
		a.domIdx = dom[:0]
		// Dominates procedure: evict every dominated member in one
		// compaction (ids copied out first — compaction shifts them), then
		// re-home each evictee, in member order.
		changed := false
		if len(doms) > 0 {
			a.rehomeIDs = a.rehomeIDs[:0]
			for _, i := range doms {
				a.rehomeIDs = append(a.rehomeIDs, int64(ids[i]))
			}
			cell.RemoveSorted(doms)
			changed = true
			for _, uid := range a.rehomeIDs {
				a.rehome(t, uid, c, m)
			}
		}
		a.remIdx = doms[:0]
		if a.pruned[c] != a.epoch {
			if emitting {
				facts = a.emit(t, c, m, facts)
			}
			if a.inAnces[c] != a.epoch {
				cell.Append(t.ID)
				changed = true
			}
		}
		if changed {
			a.st.Save(ref, cell)
		}
		a.enqueueChildren(c)
	}
	return facts
}

// traverseNode is STopDownNode (Alg. 6): the subspace pass after the
// full-space pass has pre-computed the complete pruned set for m.
func (a *TopDown) traverseNode(t *relation.Tuple, m subspace.Mask, facts []Fact) []Fact {
	a.nextEpoch()
	for _, r := range a.recs {
		if r.rel.DominatedIn(m) {
			a.markSubmasksPruned(r.shared)
		}
	}
	if a.allBottomsPruned() {
		// Every constraint is pruned: t is dominated in every context in
		// this subspace, so there is nothing to emit and nothing stored
		// can be dominated by t (paper Example 10, the {m1} case).
		return facts
	}
	a.queue = append(a.queue[:0], 0)
	a.inQueue[0] = a.epoch
	tv, idx := t.Oriented, a.midx[m]
	for head := 0; head < len(a.queue); head++ {
		c := a.queue[head]
		if a.pruned[c] != a.epoch {
			// Only non-pruned constraints are truly "visited" (cell
			// examined); pruned ones are skipped over by the walk, which
			// is STopDown's Fig-11b advantage over TopDown.
			a.met.Traversed++
			facts = a.emit(t, c, m, facts)
			ref := a.cellRef(t, c, m)
			cell := a.st.Load(ref)
			ids := cell.IDs()
			// The pre-pruning is complete for this pass (no stored member can
			// dominate t at a non-pruned constraint), so only the evictions
			// matter; the batched scan's dominator list stays empty.
			_, doms := scanAll(tv, a.vecs, ids, a.m, idx, a.domIdx[:0], a.remIdx[:0])
			a.met.Comparisons += int64(len(ids))
			changed := false
			if len(doms) > 0 {
				a.rehomeIDs = a.rehomeIDs[:0]
				for _, i := range doms {
					a.rehomeIDs = append(a.rehomeIDs, int64(ids[i]))
				}
				cell.RemoveSorted(doms)
				changed = true
				for _, uid := range a.rehomeIDs {
					a.rehome(t, uid, c, m)
				}
			}
			a.remIdx = doms[:0]
			if a.inAnces[c] != a.epoch {
				cell.Append(t.ID)
				changed = true
			}
			if changed {
				a.st.Save(ref, cell)
			}
		}
		a.enqueueChildren(c)
	}
	return facts
}

// enqueueChildren implements the EnqueueChildren procedure: children are
// enqueued UNCONDITIONALLY (skyline constraints are downward-closed, so
// non-pruned constraints can sit below pruned ones), and inAnces
// propagates from any non-pruned parent (if C is a skyline constraint of
// t, t is stored at C or one of its ancestors, so no descendant may store
// it again).
func (a *TopDown) enqueueChildren(c lattice.Mask) {
	notPruned := a.pruned[c] != a.epoch
	for unbound := lattice.FullMask(a.d) &^ c; unbound != 0; {
		bit := unbound & -unbound
		unbound &^= bit
		ch := c | bit
		if lattice.PopCount(ch) > a.dhat {
			continue
		}
		if notPruned {
			a.inAnces[ch] = a.epoch
		}
		if a.inQueue[ch] != a.epoch {
			a.inQueue[ch] = a.epoch
			a.queue = append(a.queue, ch)
		}
	}
}

// rehome implements the Dominates procedure's maintenance half: after u
// (given by id — cells store ids, the registry resolves the tuple) is
// evicted from µ(C,m) because t ≻_m u, every child constraint of C that u
// satisfies but t does not (C' ∈ CH^u_C − C^t) becomes a candidate maximal
// skyline constraint of u; u is stored there unless an ancestor of C'
// outside C^t (a constraint binding u's differing value, i.e. a mask
// s₀∪{i} with s₀ ⊂ C) already stores it.
func (a *TopDown) rehome(t *relation.Tuple, uid int64, c lattice.Mask, m subspace.Mask) {
	if lattice.PopCount(c)+1 > a.dhat {
		return // children fall outside the d̂-truncated lattice
	}
	u := a.tupleByID(uid)
	for i := 0; i < a.d; i++ {
		bit := lattice.Mask(1) << uint(i)
		if c&bit != 0 {
			continue
		}
		if t.Dims[i] == u.Dims[i] {
			continue // child lies inside C^t: it contains t, so u is not
			// in its skyline anymore; it is handled by the traversal.
		}
		child := c | bit
		stored := false
		// Ancestors of child within C^u − C^t: masks s0|bit, s0 ⊂ c.
		// These are u's constraints, not t's, so the per-tuple id cache
		// does not apply; InternTuple still allocates nothing.
		for s0 := (c - 1) & c; ; s0 = (s0 - 1) & c {
			anc := s0 | bit
			cell := a.st.Load(store.Ref(a.in.InternTuple(u, anc), m))
			if cell.ContainsID(uid) {
				stored = true
				break
			}
			if s0 == 0 {
				break
			}
		}
		if !stored {
			ref := store.Ref(a.in.InternTuple(u, child), m)
			cell := a.st.Load(ref)
			cell.Append(uid)
			a.st.Save(ref, cell)
		}
	}
}

var _ Discoverer = (*TopDown)(nil)
