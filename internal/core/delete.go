package core

import (
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// Delete removes tuple u from the BottomUp-family state, repairing
// Invariant 1 exactly — the paper's §VIII "allowing deletion and update of
// data" future-work item. alive must be the remaining relation (u already
// excluded, or present and skipped by ID — both work).
//
// Only cells where u was itself a skyline tuple need repair: if u was
// dominated at (C,M) by some skyline tuple s, then any tuple u dominated
// there is also dominated by s (transitivity), so u's removal cannot
// promote anyone. Where u was in the skyline, the re-entrants are the
// context tuples u dominated that no surviving skyline tuple nor fellow
// candidate dominates; checking candidates against (old cell ∖ u) ∪
// candidates is complete because any dominator chases up to a skyline
// tuple of the shrunken context, which lies in exactly that union.
//
// Cost: one pass over alive per constraint of C^u to collect its context,
// then, for each cell that held u, a scan of that context. Deletions are
// expected to be rare relative to arrivals; the TopDown family does not
// support deletion (re-deriving maximal skyline constraints for promoted
// tuples requires global recomputation), which mirrors the trade-off the
// two storage schemes already embody.
func (a *BottomUp) Delete(u *relation.Tuple, alive []*relation.Tuple) {
	a.newTupleScratch(u)
	var ctx, cands []*relation.Tuple
	for _, c := range a.ctMasks {
		cid := a.cid(u, c)
		collected := false
		for _, m := range a.kept {
			ref := store.Ref(cid, m)
			cell := a.st.Load(ref)
			if cell.Len() == 0 {
				continue
			}
			if !cell.RemoveID(u.ID) {
				continue // u was not in this skyline: nothing changes
			}
			if !collected {
				// σ_C(alive) − u, scanned out of alive once per constraint:
				// every cell of C that held u repairs from it.
				ctx, collected = ctx[:0], true
				for _, w := range alive {
					if w.ID != u.ID && satisfiesMask(u, w, c) {
						ctx = append(ctx, w)
					}
				}
			}
			// Collect the context tuples u was dominating here: u's relation
			// to each is computed once per Delete (relTo), whatever cell asks.
			cands = cands[:0]
			for _, w := range ctx {
				a.met.Comparisons++
				if a.relTo(u, uint32(w.ID), false).DominatesIn(m) {
					cands = append(cands, w)
				}
			}
			for _, w := range cands {
				dominated := false
				for _, id := range cell.IDs() {
					a.met.Comparisons++
					if subspace.CompareVecs(a.vec(int64(id)), w.Oriented).DominatesIn(m) {
						dominated = true
						break
					}
				}
				if !dominated {
					for _, x := range cands {
						if x.ID == w.ID {
							continue
						}
						a.met.Comparisons++
						if subspace.CompareVecs(x.Oriented, w.Oriented).DominatesIn(m) {
							dominated = true
							break
						}
					}
				}
				if !dominated {
					cell.Append(w.ID)
				}
			}
			a.st.Save(ref, cell)
		}
	}
}
