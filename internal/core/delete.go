package core

import (
	"repro/internal/relation"
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
// Cost: O(|C^u| · #subspaces · n) per deletion — a scan per affected
// cell. Deletions are expected to be rare relative to arrivals; the
// TopDown family does not support deletion (re-deriving maximal skyline
// constraints for promoted tuples requires global recomputation), which
// mirrors the trade-off the two storage schemes already embody.
func (a *BottomUp) Delete(u *relation.Tuple, alive []*relation.Tuple) {
	a.newTupleScratch(u)
	subs := a.subs
	if a.shared && a.mhat < a.m {
		// The sharing root pass maintains full-space cells too.
		subs = append(append([]subspace.Mask(nil), subs...), a.fullM)
	}
	for _, m := range subs {
		idx := a.indices(m)
		for _, c := range a.ctMasks {
			ref := a.cellRef(u, c, m)
			cell := a.st.Load(ref)
			if cell.Len() == 0 {
				continue
			}
			if !cell.RemoveID(u.ID) {
				continue // u was not in this skyline: nothing changes
			}
			// Collect the context tuples u was dominating here.
			var cands []*relation.Tuple
			for _, w := range alive {
				if w.ID == u.ID || !satisfiesMask(u, w, c) {
					continue
				}
				a.met.Comparisons++
				if _, doms := cmpVecs(u.Oriented, w.Oriented, idx); doms {
					cands = append(cands, w)
				}
			}
			for _, w := range cands {
				dominated := false
				for i := 0; i < cell.Len(); i++ {
					a.met.Comparisons++
					if _, doms := cmpVecs(cell.Row(i), w.Oriented, idx); doms {
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
						if _, doms := cmpVecs(x.Oriented, w.Oriented, idx); doms {
							dominated = true
							break
						}
					}
				}
				if !dominated {
					cell.Append(w.ID, w.Oriented)
				}
			}
			a.st.Save(ref, cell)
		}
	}
}

// Delete removes a tuple from the Oracle's history (test support for
// differential deletion testing).
func (a *Oracle) Delete(u *relation.Tuple) {
	for i, w := range a.history {
		if w.ID == u.ID {
			a.history = append(a.history[:i], a.history[i+1:]...)
			return
		}
	}
}
