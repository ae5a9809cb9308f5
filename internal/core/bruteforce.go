package core

import (
	"repro/internal/relation"
	"repro/internal/subspace"
)

// BruteForce is Algorithm 2 of the paper: for every measure subspace and
// every constraint satisfied by the new tuple, scan the entire history to
// check whether some earlier tuple in the context dominates it. It is the
// yardstick the three optimisation ideas are measured against; complexity
// O(2^m̂ · |C^t| · n) per arrival.
type BruteForce struct {
	*base
	history []*relation.Tuple
}

// NewBruteForce creates the algorithm.
func NewBruteForce(cfg Config) (*BruteForce, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &BruteForce{base: b}, nil
}

// Name implements Discoverer.
func (a *BruteForce) Name() string { return "BruteForce" }

// Process implements Discoverer (Alg. 2 verbatim: the t' ∈ σ_C(R) check is
// the satisfaction test against each constraint, and the dominance test is
// Def. 2 itself, subspace.Dominates).
func (a *BruteForce) Process(t *relation.Tuple) []Fact {
	a.met.Tuples++
	a.newTupleScratch(t)
	var facts []Fact
	for _, m := range a.subs {
		for _, c := range a.ctMasks {
			a.met.Traversed++
			pruned := false
			for _, u := range a.history {
				a.met.Comparisons++
				if subspace.Dominates(u, t, m) {
					// t' ∈ σ_C(R) ⇔ C ⊆ shared(t, t') in mask terms.
					if satisfiesMask(t, u, c) {
						pruned = true
						break
					}
				}
			}
			if !pruned {
				facts = a.emit(c, m, 0, facts)
			}
		}
	}
	a.history = append(a.history, t)
	return facts
}

// satisfiesMask reports whether u satisfies the constraint of C^t selected
// by mask c, i.e. u agrees with t on every bound attribute.
func satisfiesMask(t, u *relation.Tuple, c uint32) bool {
	for i := 0; c != 0; i++ {
		bit := uint32(1) << uint(i)
		if c&bit == 0 {
			continue
		}
		c &^= bit
		if t.Dims[i] != u.Dims[i] {
			return false
		}
	}
	return true
}

var _ Discoverer = (*BruteForce)(nil)

func sharedOf(t, u *relation.Tuple) uint32 {
	var m uint32
	for i := range t.Dims {
		if t.Dims[i] == u.Dims[i] {
			m |= 1 << uint(i)
		}
	}
	return m
}
