// Package skyline provides reference (non-incremental) skyline computation:
// block-nested-loop skylines, contextual skylines λ_M(σ_C(R)), and a full
// skycube. These serve as correctness oracles for the incremental discovery
// algorithms and as building blocks of the CSC comparator.
package skyline

import (
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/subspace"
)

// Compute returns the skyline tuples of ts in measure subspace m using a
// block-nested-loop scan with in-window elimination. The result preserves
// first-arrival order of the survivors.
func Compute(ts []*relation.Tuple, m subspace.Mask) []*relation.Tuple {
	var window []*relation.Tuple
	for _, t := range ts {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if dominated {
				keep = append(keep, w)
				continue
			}
			if subspace.Dominates(w, t, m) {
				dominated = true
				keep = append(keep, w)
				continue
			}
			if !subspace.Dominates(t, w, m) {
				keep = append(keep, w)
			}
		}
		window = keep
		if !dominated {
			window = append(window, t)
		}
	}
	return window
}

// Contextual returns λ_M(σ_C(R)): the skyline, in subspace m, of the
// tuples of ts satisfying constraint c.
func Contextual(ts []*relation.Tuple, c lattice.Constraint, m subspace.Mask) []*relation.Tuple {
	var ctx []*relation.Tuple
	for _, t := range ts {
		if c.Satisfies(t) {
			ctx = append(ctx, t)
		}
	}
	return Compute(ctx, m)
}

// IsSkyline reports whether t belongs to the skyline of ts in subspace m,
// assuming t itself is among ts (duplicate measure vectors do not dominate
// each other, so membership of t in ts is harmless either way).
func IsSkyline(t *relation.Tuple, ts []*relation.Tuple, m subspace.Mask) bool {
	for _, u := range ts {
		if u != t && subspace.Dominates(u, t, m) {
			return false
		}
	}
	return true
}

// MinimalSubspaces returns the minimal (by set inclusion) measure subspaces
// in which t is a skyline tuple of ts, considering subspaces up to maxSize
// attributes. These are the "minimum subspaces" in which the compressed
// skycube (Xia & Zhang) stores a tuple.
func MinimalSubspaces(t *relation.Tuple, ts []*relation.Tuple, m int, maxSize int) []subspace.Mask {
	var sky []subspace.Mask
	for _, sub := range subspace.Enumerate(m, maxSize) {
		if IsSkyline(t, ts, sub) {
			sky = append(sky, sub)
		}
	}
	return FilterMinimal(sky)
}

// FilterMinimal keeps only the masks that have no proper submask in the
// input set.
func FilterMinimal(masks []subspace.Mask) []subspace.Mask {
	var out []subspace.Mask
	for _, a := range masks {
		minimal := true
		for _, b := range masks {
			if b != a && b&^a == 0 { // b ⊂ a
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
