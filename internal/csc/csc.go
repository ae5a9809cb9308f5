// Package csc implements a compressed skycube (Xia & Zhang, SIGMOD 2006)
// sufficient for the paper's C-CSC comparator: each tuple is stored only in
// its MINIMUM SUBSPACES — the minimal (by set inclusion) measure subspaces
// in which it is a skyline tuple. The structure supports incremental
// insertion and subspace skyline queries.
//
// The adaptation used as a baseline in Sultana et al. (§II, §VI) maintains
// one CSC per context (constraint); see the core package's CCSC algorithm.
//
// Key facts the implementation relies on (and tests verify):
//
//  1. If t ∈ SKY(M) then some minimum subspace of t is ⊆ M, so the
//     candidate set ⋃_{M' ⊆ M} cell(M') contains every skyline tuple of M.
//  2. If t ∉ SKY(M), some tuple in the candidate set dominates t in M
//     (chase dominators up to a skyline tuple; transitivity).
//  3. On insertion of t, a stored tuple u's skyline memberships can only
//     shrink, and only in subspaces where t dominates u. The set of
//     minimum subspaces of u changes only if t dominates u in one of them
//     (a new minimal element can appear only when a whole chain below it —
//     including a stored minimum — is knocked out), so scanning the cells
//     finds every affected tuple. NOTE: with ties, skyline membership is
//     NOT upward-monotone (u can be skyline in {m1} yet dominated in
//     {m1,m2}), so a victim's old skyline set must be recomputed from the
//     candidate sets, not inferred as the up-closure of its old minima.
package csc

import (
	"slices"

	"repro/internal/relation"
	"repro/internal/subspace"
)

// CSC is a compressed skycube over one set of tuples (one context).
type CSC struct {
	m       int             // number of measure attributes
	maxSize int             // m̂ cap on subspace size (-1: no cap)
	subs    []subspace.Mask // ascending, so the order every cell walk takes
	cells   map[subspace.Mask][]*relation.Tuple

	// stored counts tuple entries across cells (memory proxy, Fig 10b).
	stored int64
	// comparisons counts pairwise dominance tests (Fig 11a bookkeeping).
	comparisons int64
}

// New creates an empty CSC over m measure attributes, considering only
// subspaces with at most maxSize attributes (maxSize < 0: all).
func New(m, maxSize int) *CSC {
	return &CSC{
		m:       m,
		maxSize: maxSize,
		subs:    subspace.Enumerate(m, maxSize),
		cells:   make(map[subspace.Mask][]*relation.Tuple),
	}
}

// StoredTuples returns the total number of tuple entries across cells.
func (c *CSC) StoredTuples() int64 { return c.stored }

// Comparisons returns the cumulative pairwise dominance-test count.
func (c *CSC) Comparisons() int64 { return c.comparisons }

// candidates collects the distinct tuples stored in every cell M' ⊆ M, in
// ascending mask order: the dominance loops over them stop at the first
// dominator, so their comparison counts depend on this order.
func (c *CSC) candidates(m subspace.Mask, scratch map[int64]bool) []*relation.Tuple {
	var out []*relation.Tuple
	for _, cellMask := range c.subs {
		if cellMask&^m != 0 {
			continue // not a subset of M
		}
		for _, u := range c.cells[cellMask] {
			if !scratch[u.ID] {
				scratch[u.ID] = true
				out = append(out, u)
			}
		}
	}
	for _, u := range out {
		delete(scratch, u.ID)
	}
	return out
}

// Query returns the skyline of the indexed tuple set in subspace m,
// computed over the candidate union of all cells M' ⊆ m.
func (c *CSC) Query(m subspace.Mask) []*relation.Tuple {
	cand := c.candidates(m, map[int64]bool{})
	var sky []*relation.Tuple
	for _, t := range cand {
		dominated := false
		for _, u := range cand {
			c.comparisons++
			if u != t && subspace.Dominates(u, t, m) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, t)
		}
	}
	return sky
}

// Insert adds t, repairs every affected tuple's minimum subspaces, and
// returns the set of subspaces (≤ maxSize attributes) in which t is now a
// skyline tuple. The return value is what the C-CSC adaptation reports as
// t's skyline memberships in this context; computing it requires the
// per-subspace queries the paper calls "an overkill" — that cost profile
// is intentional.
func (c *CSC) Insert(t *relation.Tuple) []subspace.Mask {
	// 1. Decide t's skyline subspaces against the pre-insertion state.
	scratch := map[int64]bool{}
	skySubs := make([]subspace.Mask, 0, len(c.subs))
	for _, m := range c.subs {
		cand := c.candidates(m, scratch)
		dominated := false
		for _, u := range cand {
			c.comparisons++
			if subspace.Dominates(u, t, m) {
				dominated = true
				break
			}
		}
		if !dominated {
			skySubs = append(skySubs, m)
		}
	}

	// 2. Repair stored tuples that t now dominates somewhere.
	c.repairAfter(t)

	// 3. Store t at the minimal elements of skySubs.
	for _, m := range minimalOf(skySubs) {
		c.cells[m] = append(c.cells[m], t)
		c.stored++
	}
	return skySubs
}

// repairAfter removes every stored tuple u from cells where t now
// dominates it and re-homes u at its new minimum subspaces. A tuple is
// affected only if t dominates it in one of its stored (minimum)
// subspaces. All victims' new minima are computed against the pristine
// pre-insertion state before any cell is mutated, so victims cannot
// perturb each other's candidate sets.
func (c *CSC) repairAfter(t *relation.Tuple) {
	type victim struct {
		u       *relation.Tuple
		oldMins []subspace.Mask
		newMins []subspace.Mask
	}
	var victims []victim
	seen := map[int64]bool{}
	for _, cellMask := range c.subs {
		for _, u := range c.cells[cellMask] {
			c.comparisons++
			if subspace.Dominates(t, u, cellMask) && !seen[u.ID] {
				seen[u.ID] = true
				victims = append(victims, victim{u: u, oldMins: c.minsOf(u)})
			}
		}
	}
	scratch := map[int64]bool{}
	for i := range victims {
		v := &victims[i]
		rel := subspace.Compare(t, v.u, c.m)
		// New skyline set of u: subspaces where u was skyline before
		// (checked against the candidate set — see package comment on
		// ties) and where t does not dominate u.
		var newSky []subspace.Mask
		for _, m := range c.subs {
			if rel.DominatesIn(m) {
				continue
			}
			dominated := false
			for _, w := range c.candidates(m, scratch) {
				if w.ID == v.u.ID {
					continue
				}
				c.comparisons++
				if subspace.Dominates(w, v.u, m) {
					dominated = true
					break
				}
			}
			if !dominated {
				newSky = append(newSky, m)
			}
		}
		v.newMins = minimalOf(newSky)
	}
	for _, v := range victims {
		inNew := map[subspace.Mask]bool{}
		for _, m := range v.newMins {
			inNew[m] = true
		}
		for _, m := range v.oldMins {
			if !inNew[m] {
				c.removeFromCell(m, v.u)
			} else {
				delete(inNew, m) // already stored there
			}
		}
		for m := range inNew {
			c.cells[m] = append(c.cells[m], v.u)
			c.stored++
		}
	}
}

func (c *CSC) minsOf(u *relation.Tuple) []subspace.Mask {
	var out []subspace.Mask
	for _, m := range c.subs {
		if slices.Contains(c.cells[m], u) {
			out = append(out, m)
		}
	}
	return out
}

func (c *CSC) removeFromCell(m subspace.Mask, u *relation.Tuple) {
	ts := c.cells[m]
	for i, v := range ts {
		if v == u {
			copy(ts[i:], ts[i+1:])
			ts = ts[:len(ts)-1]
			c.stored--
			if len(ts) == 0 {
				delete(c.cells, m)
			} else {
				c.cells[m] = ts
			}
			return
		}
	}
}

// minimalOf returns the masks with no proper submask in the input.
func minimalOf(masks []subspace.Mask) []subspace.Mask {
	var out []subspace.Mask
	for _, a := range masks {
		minimal := true
		for _, b := range masks {
			if b != a && b&^a == 0 {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, a)
		}
	}
	return out
}

// Cells exposes the internal cell map for invariant checking in tests.
func (c *CSC) Cells() map[subspace.Mask][]*relation.Tuple { return c.cells }
