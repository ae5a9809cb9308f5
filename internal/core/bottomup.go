package core

import (
	"slices"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// BottomUp is Algorithm 4 of the paper. It maintains Invariant 1 — µ(C,M)
// stores ALL skyline tuples λ_M(σ_C(R)) — and traverses each arriving
// tuple's constraint lattice bottom-up (from the most specific constraint
// towards ⊤), pruning all ancestors of a constraint as soon as a stored
// skyline tuple dominates t there.
//
// With Shared=true it becomes SBottomUp (§V-C): a first pass over the full
// measure space records one Proposition-4 relation per compared tuple, and
// each subspace pass pre-prunes the submask closure of every recorded
// dominator's shared mask, letting the bottom-up traversal stop earlier.
// Subspace passes keep their own dominance checks (the pre-pruning is
// sound but not complete for BottomUp's traversal order), which is why the
// paper observes only marginal comparison savings for SBottomUp (Fig 11).
type BottomUp struct {
	*base
	shared bool
	kept   []subspace.Mask // the subspaces it keeps cells in (store.Store.Keep)

	recs    []pairRec
	recSeen map[int64]bool

	// fresh lists, in first-visit order, the arrival's constraints no
	// earlier tuple satisfies (freshAt stamps them): Process installs them.
	fresh []lattice.Mask
}

// pairRec is one root-phase comparison record used by the sharing passes.
type pairRec struct {
	shared lattice.Mask
	rel    subspace.Relation
}

// NewBottomUp creates plain BottomUp.
func NewBottomUp(cfg Config) (*BottomUp, error) { return newBottomUp(cfg, false) }

// NewSBottomUp creates SBottomUp (sharing across measure subspaces).
func NewSBottomUp(cfg Config) (*BottomUp, error) { return newBottomUp(cfg, true) }

func newBottomUp(cfg Config, shared bool) (*BottomUp, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	kept := b.subs
	if shared && b.mhat < b.m {
		// The sharing root pass keeps full-space cells too.
		kept = append(slices.Clip(kept), b.fullM)
	}
	b.st.Keep(kept)
	b.freshAt = make([]uint32, len(b.keyEpoch))
	return &BottomUp{base: b, shared: shared, kept: kept}, nil
}

// Name implements Discoverer.
func (a *BottomUp) Name() string {
	if a.shared {
		return "SBottomUp"
	}
	return "BottomUp"
}

// Process implements Discoverer.
func (a *BottomUp) Process(t *relation.Tuple) []Fact {
	a.met.Tuples++
	a.newTupleScratch(t)
	facts := a.newFacts()
	a.fresh = a.fresh[:0]
	if a.shared {
		// SBottomUp: root pass over the full space 𝕄, recording relations.
		a.recs = a.recs[:0]
		if a.recSeen == nil {
			a.recSeen = make(map[int64]bool, 64)
		} else {
			clear(a.recSeen)
		}
		facts = a.traverse(t, a.fullM, true, facts)
	}
	for _, m := range a.subs {
		if a.shared && m == a.fullM {
			continue
		}
		facts = a.traverse(t, m, false, facts)
	}
	for _, c := range a.fresh {
		a.st.Install(a.cids[c], uint32(t.ID))
	}
	return a.doneFacts(facts)
}

// traverse runs one bottom-up pass in measure subspace m. When root is
// true this is SBottomUp's full-space pass (it records pair relations and
// only emits facts if the full space is itself a reported subspace); when
// a.shared and !root, recorded relations pre-prune the lattice.
func (a *BottomUp) traverse(t *relation.Tuple, m subspace.Mask, root bool, facts []Fact) []Fact {
	a.nextEpoch()
	emitting := !root || a.mhat == a.m
	if a.shared && !root {
		for _, r := range a.recs {
			if r.rel.DominatedIn(m) {
				a.markSubmasksPruned(r.shared)
			}
		}
		if a.allBottomsPruned() {
			// t is dominated in every context: nothing to emit, and no
			// stored tuple can need deletion (a tuple t dominates in a
			// context where t is itself dominated cannot be in the
			// skyline there).
			return facts
		}
	}
	a.queue = a.queue[:0]
	for _, bm := range a.bottoms {
		if a.pruned[bm] != a.epoch {
			a.queue = append(a.queue, bm)
			a.inQueue[bm] = a.epoch
		}
	}
	tv, idx := t.Oriented, a.midx[m]
	for head := 0; head < len(a.queue); head++ {
		c := a.queue[head]
		if a.pruned[c] == a.epoch {
			// Pruned after being enqueued; its parents are pruned too
			// (pruned sets are submask-closed), so drop the branch.
			continue
		}
		a.met.Traversed++
		ref := a.cellRef(t, c, m)
		// Under Invariant 1 a constraint's kept cells are all empty exactly
		// when it is fresh. Nothing prunes a fresh C (σ_D(R) ⊆ σ_C(R) = ∅ for
		// D ⊇ C), so every pass visits it and finds t alone: no cell to touch.
		fresh := a.freshAt[c] == a.keyStamp
		var cell store.Cell
		if !fresh {
			cell = a.st.Load(ref)
			if fresh = cell.Len() == 0; fresh {
				a.freshAt[c] = a.keyStamp
				a.fresh = append(a.fresh, c)
			}
		}
		// Batched scan (kernel.go): four members per pass, stopping at the
		// first one dominating t. One Comparison is charged per member
		// visited — the sequence a member-at-a-time loop walks (removals
		// are order-preserving), so the counter is that loop's.
		ids := cell.IDs()
		visited, dominated, rem := 0, false, a.remIdx[:0]
		if !fresh {
			visited, dominated, rem = scanFirstDom(tv, a.vecs, ids, a.m, idx, rem)
		}
		a.met.Comparisons += int64(visited)
		if root {
			// Record one Proposition-4 relation per visited distinct tuple,
			// in member order, off the still-uncompacted cell.
			for _, id := range ids[:visited] {
				if uid := int64(id); !a.recSeen[uid] {
					a.recSeen[uid] = true
					u := a.tupleByID(uid)
					a.recs = append(a.recs, pairRec{sharedOf(t, u), subspace.Compare(t, u, a.m)})
				}
			}
		}
		changed := false
		if len(rem) > 0 {
			cell.RemoveSorted(rem)
			changed = true
		}
		a.remIdx = rem[:0]
		if dominated {
			// Prune C and all its ancestors (Alg. 4 lines 11–12).
			a.markSubmasksPruned(c)
		} else {
			cell.Append(t.ID)
			changed = !fresh // Process installs a fresh constraint's cells
			if emitting {
				// Invariant 1: the cell, evictees removed and t appended, is
				// λ_M(σ_C(R)), and no later pass of this arrival visits it.
				facts = a.emit(t, c, m, facts)
				facts[len(facts)-1].SkylineSize = int32(cell.Len())
			}
			for cc := c; cc != 0; {
				bit := cc & -cc
				p := c &^ bit
				cc &^= bit
				if a.pruned[p] != a.epoch && a.inQueue[p] != a.epoch {
					a.inQueue[p] = a.epoch
					a.queue = append(a.queue, p)
				}
			}
		}
		if changed {
			a.st.Save(ref, cell)
		}
	}
	return facts
}

var _ Discoverer = (*BottomUp)(nil)
