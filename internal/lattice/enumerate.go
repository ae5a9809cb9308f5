package lattice

import "repro/internal/relation"

// FindCt is Algorithm 1 of the paper: enumerate all constraints satisfied
// by t, from ⊤ = 〈*,...,*〉 to 〈t.d1,...,t.dn〉, generating each exactly
// once. The dedup trick is the paper's: from a constraint C, extend only
// the suffix of still-unbound attributes below the highest-index bound one
// (the inner while loop stops at the first bound attribute scanning from
// d_n down).
//
// It exists mainly as executable documentation and as a test oracle for the
// mask-based enumeration the real algorithms use; it returns constraints in
// the exact BFS order Alg. 1 produces.
func FindCt(t *relation.Tuple) []Constraint {
	d := len(t.Dims)
	var out []Constraint
	queue := []Mask{0} // ⊤
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		out = append(out, FromTuple(t, c))
		// i ← n; while i > 0 and C.d_i = * : bind d_i, enqueue, i--.
		for i := d - 1; i >= 0; i-- {
			bit := Mask(1) << uint(i)
			if c&bit != 0 {
				break
			}
			queue = append(queue, c|bit)
		}
	}
	return out
}

// CtMasks returns the masks of all constraints in C^t with bound(C) ≤
// maxBound (d̂ cap; maxBound < 0 means no cap), in the same generation
// order as Algorithm 1. The result depends only on d and maxBound, so
// callers usually compute it once per (schema, d̂) and reuse it.
func CtMasks(d, maxBound int) []Mask {
	if maxBound < 0 || maxBound > d {
		maxBound = d
	}
	out := make([]Mask, 0, CountMasks(d, maxBound))
	queue := []Mask{0}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		out = append(out, c)
		if PopCount(c) == maxBound {
			continue
		}
		for i := d - 1; i >= 0; i-- {
			bit := Mask(1) << uint(i)
			if c&bit != 0 {
				break
			}
			queue = append(queue, c|bit)
		}
	}
	return out
}

// BottomMasks returns the bottom elements of the d̂-truncated lattice: all
// masks with popcount = min(d, maxBound). With no cap this is the single
// ⊥(C^t) = FullMask(d); with a cap the truncated lattice has C(d, d̂)
// minimal elements and BottomUp-style traversals must seed their queue with
// all of them.
func BottomMasks(d, maxBound int) []Mask {
	if maxBound < 0 || maxBound >= d {
		return []Mask{FullMask(d)}
	}
	var out []Mask
	var rec func(start, left int, acc Mask)
	rec = func(start, left int, acc Mask) {
		if left == 0 {
			out = append(out, acc)
			return
		}
		for i := start; i <= d-left; i++ {
			rec(i+1, left-1, acc|1<<uint(i))
		}
	}
	rec(0, maxBound, 0)
	return out
}
