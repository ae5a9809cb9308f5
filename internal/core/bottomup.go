package core

import (
	"math/bits"
	"slices"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// BottomUp is Algorithm 4 of the paper. It maintains Invariant 1 — µ(C,M)
// stores ALL skyline tuples λ_M(σ_C(R)) — and walks each arriving tuple's
// constraint lattice bottom-up (from the most specific constraint towards
// ⊤), pruning all ancestors of a constraint in a subspace as soon as a
// stored skyline tuple dominates t there. One walk covers up to 64
// subspaces at once (walk), and t's relation to each stored member is
// computed once per arrival (relTo), so no constraint or member is
// revisited per subspace.
//
// With Shared=true it becomes SBottomUp (§V-C): a root walk over the full
// measure space records one Proposition-4 relation per compared tuple, and
// the walks over the other subspaces pre-prune the submask closure of every
// recorded dominator's shared mask, letting them stop earlier. They keep
// their own dominance checks (the pre-pruning is sound but not complete for
// BottomUp's traversal order), which is why the paper observes only
// marginal comparison savings for SBottomUp (Fig 11).
type BottomUp struct {
	*base
	shared bool
	kept   []subspace.Mask // the subspaces it keeps cells in (store.Store.Keep)
	// words splits the subspaces the walks report into runs of at most 64,
	// one walk each; SBottomUp's root walk covers 𝕄 before them.
	words [][]subspace.Mask

	// fresh lists, in first-visit order, the arrival's constraints no
	// earlier tuple satisfies (freshAt stamps them): Process installs them.
	fresh []lattice.Mask
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
		// The sharing root walk keeps full-space cells too.
		kept = append(slices.Clip(kept), b.fullM)
	}
	b.st.Keep(kept)
	b.freshAt = make([]uint32, len(b.keyEpoch))
	walked := b.subs
	if shared && b.mhat == b.m {
		walked = walked[:len(walked)-1] // the root walk reports 𝕄
	}
	return &BottomUp{base: b, shared: shared, kept: kept, words: slices.Collect(slices.Chunk(walked, 64))}, nil
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
		a.recs = a.recs[:0]
		facts = a.walk(t, []subspace.Mask{a.fullM}, true, facts)
	}
	for _, word := range a.words {
		facts = a.walk(t, word, false, facts)
	}
	for _, c := range a.fresh {
		a.st.Install(a.cids[c], uint32(t.ID))
	}
	return a.doneFacts(facts)
}

// walk runs Alg. 4 once for every subspace of word (at most 64) in one
// breadth-first walk from the bottoms, level by level towards ⊤: bit j of a
// constraint's mark is word[j]'s pass. A constraint is visited in the bits
// it is queued and not pruned in. Pruning reaches only the constraint and
// its ancestors, all on later levels, so each bit visits what a pass of its
// own would. When root is true this is SBottomUp's walk over 𝕄 alone: it
// records the pair relations and emits facts only if 𝕄 is itself reported.
func (a *BottomUp) walk(t *relation.Tuple, word []subspace.Mask, root bool, facts []Fact) []Fact {
	a.nextEpoch()
	all := ^uint64(0) >> (64 - len(word))
	if a.shared && !root {
		a.prePrune(word)
	}
	a.queue = a.queue[:0]
	for _, bm := range a.bottoms {
		// A bit whose bottoms are all pre-pruned is dominated in every
		// context: nothing to emit, and no stored tuple can need deletion
		// (a tuple t dominates in a context where t is itself dominated
		// cannot be in the skyline there).
		if mk := a.mark(bm); mk.pruned != all {
			mk.queued = all &^ mk.pruned
			a.queue = append(a.queue, bm)
		}
	}
	emitting := !root || a.mhat == a.m
	rem := a.remIdx[:0]
	for head := 0; head < len(a.queue); head++ {
		c := a.queue[head]
		mk := &a.marks[c]
		// Bits pruned after c was queued drop their branch: their pruned
		// sets are submask-closed, so c's parents are pruned there too.
		live := mk.queued &^ mk.pruned
		if live == 0 {
			continue
		}
		cid := a.cid(t, c)
		// Under Invariant 1 a constraint's kept cells are all empty exactly
		// when it is fresh. Nothing prunes a fresh C (σ_D(R) ⊆ σ_C(R) = ∅ for
		// D ⊇ C), so every bit visits it and finds t alone: no cell to touch.
		fresh := a.freshAt[c] == a.keyStamp
		var dominated uint64
		for bs := live; bs != 0; bs &= bs - 1 {
			m := word[bits.TrailingZeros64(bs)]
			a.met.Traversed++
			ref := store.Ref(cid, m)
			var cell store.Cell
			if !fresh {
				cell = a.st.Load(ref)
				if fresh = cell.Len() == 0; fresh {
					a.freshAt[c] = a.keyStamp
					a.fresh = append(a.fresh, c)
				}
			}
			// Scan front to back, stopping at the first member dominating t.
			// One Comparison is charged per member visited, the dominator
			// included; removals are order-preserving.
			ids := cell.IDs()
			visited, isDom := 0, false
			rem = rem[:0]
			for i, id := range ids {
				visited++
				rel := a.relTo(t, id, root)
				if rel.DominatedIn(m) {
					isDom = true
					break
				}
				if rel.DominatesIn(m) {
					rem = append(rem, i)
				}
			}
			a.met.Comparisons += int64(visited)
			changed := len(rem) > 0
			cell.RemoveSorted(rem)
			if isDom {
				// Prune C and all its ancestors (Alg. 4 lines 11–12), below.
				dominated |= bs & -bs
			} else {
				cell.Append(t.ID)
				changed = !fresh // Process installs a fresh constraint's cells
				if emitting {
					// Invariant 1: the cell, evictees removed and t appended, is
					// λ_M(σ_C(R)), and no later walk of this arrival visits it.
					facts = a.emit(c, m, int32(cell.Len()), facts)
				}
			}
			if changed {
				a.st.Save(ref, cell)
			}
		}
		a.prune(c, dominated)
		if up := live &^ dominated; up != 0 {
			for cc := c; cc != 0; cc &= cc - 1 {
				p := c &^ (cc & -cc)
				pm := a.mark(p)
				if add := up &^ pm.pruned; add != 0 {
					if pm.queued == 0 {
						a.queue = append(a.queue, p)
					}
					pm.queued |= add
				}
			}
		}
	}
	a.remIdx = rem[:0]
	return facts
}

// prePrune applies SBottomUp's root records to a walk over word: where the
// recorded u dominates t in word[j] (Proposition 4), every constraint t
// shares with u is pruned in bit j.
func (a *BottomUp) prePrune(word []subspace.Mask) {
	var has [relation.MaxMeasures]uint64 // has[i]: the bits whose subspace holds measure i
	for j, m := range word {
		for ; m != 0; m &= m - 1 {
			has[bits.TrailingZeros32(m)] |= 1 << j
		}
	}
	for _, r := range a.recs {
		// Dominated in word[j] iff it meets Lt and misses Gt.
		var lt, gt uint64
		for s := r.rel.Lt; s != 0; s &= s - 1 {
			lt |= has[bits.TrailingZeros32(s)]
		}
		for s := r.rel.Gt; s != 0; s &= s - 1 {
			gt |= has[bits.TrailingZeros32(s)]
		}
		a.prune(r.shared, lt&^gt)
	}
}

var _ Discoverer = (*BottomUp)(nil)
