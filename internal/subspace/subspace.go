// Package subspace implements measure subspaces and the dominance relation
// of skyline analysis (Sultana et al., ICDE 2014, Defs. 2–3), including the
// Proposition-4 machinery that lets one full-space comparison decide
// dominance in every subspace at once.
//
// A measure subspace M ⊆ 𝕄 is a bitmask over the schema's measure
// attributes (bit i ⇔ m_i ∈ M). All dominance tests operate on
// Tuple.Oriented values, where larger is always better.
package subspace

import (
	"math/bits"

	"repro/internal/relation"
)

// Mask selects a measure subspace: bit i set means measure m_i participates.
type Mask = uint32

// Full returns the full measure space 𝕄 over m attributes.
func Full(m int) Mask { return (1 << uint(m)) - 1 }

// Size returns |M|.
func Size(m Mask) int { return bits.OnesCount32(m) }

// Enumerate returns all non-empty subspaces with |M| ≤ maxSize (the paper's
// m̂ cap; maxSize < 0 means no cap), in increasing mask order. The full
// space is included iff maxSize allows it.
func Enumerate(m, maxSize int) []Mask {
	if maxSize < 0 || maxSize > m {
		maxSize = m
	}
	var out []Mask
	for s := Mask(1); s <= Full(m); s++ {
		if Size(s) <= maxSize {
			out = append(out, s)
		}
	}
	return out
}

// Dominates reports t ≻_M u: on every attribute of M, t is equal or
// better, and on at least one attribute strictly better (Def. 2).
func Dominates(t, u *relation.Tuple, m Mask) bool {
	strict := false
	for i := 0; m != 0; i++ {
		bit := Mask(1) << uint(i)
		if m&bit == 0 {
			continue
		}
		m &^= bit
		tv, uv := t.Oriented[i], u.Oriented[i]
		if tv < uv {
			return false
		}
		if tv > uv {
			strict = true
		}
	}
	return strict
}

// Relation is the Proposition-4 three-way partition of the measure space
// with respect to an ordered tuple pair (t, u): Gt holds attributes where
// t > u, Lt where t < u, Eq where equal.
//
// t is dominated by u in subspace M iff M∩Lt ≠ ∅ and M∩Gt = ∅; t dominates
// u in M iff M∩Gt ≠ ∅ and M∩Lt = ∅. One Compare call therefore answers
// dominance for all 2^m subspaces — the key to the S* sharing algorithms.
type Relation struct {
	Gt, Lt, Eq Mask
}

// Compare computes the Relation of t versus u over m measure attributes.
func Compare(t, u *relation.Tuple, m int) Relation {
	var r Relation
	for i := 0; i < m; i++ {
		bit := Mask(1) << uint(i)
		switch {
		case t.Oriented[i] > u.Oriented[i]:
			r.Gt |= bit
		case t.Oriented[i] < u.Oriented[i]:
			r.Lt |= bit
		default:
			r.Eq |= bit
		}
	}
	return r
}

// DominatedIn reports whether t (the receiver's first argument of Compare)
// is dominated by u in subspace sub, per Proposition 4.
func (r Relation) DominatedIn(sub Mask) bool {
	return sub&r.Lt != 0 && sub&r.Gt == 0
}

// DominatesIn reports whether t dominates u in subspace sub.
func (r Relation) DominatesIn(sub Mask) bool {
	return sub&r.Gt != 0 && sub&r.Lt == 0
}

// Names renders subspace m as the measure-attribute names of schema s,
// e.g. "{points, rebounds}".
func Names(m Mask, s *relation.Schema) []string {
	var out []string
	for i := 0; i < s.NumMeasures(); i++ {
		if m&(1<<uint(i)) != 0 {
			out = append(out, s.Measure(i).Name)
		}
	}
	return out
}
