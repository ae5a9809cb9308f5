package core

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/subspace"
)

// Skyband generalises situational-fact discovery from contextual skylines
// to contextual k-SKYBANDS: the arriving tuple t yields a fact for (C, M)
// when FEWER THAN k tuples of σ_C(R) dominate it in M. k = 1 is exactly
// the paper's problem; larger k surfaces "one of the top-k-ish"
// statements ("only the third player ever with a 20/10/5 game against the
// Bulls"), the fact form hinted at by the paper's §VIII and by the
// one-of-the-few work it cites (Wu et al., KDD'12).
//
// The implementation is baseline-style (one Proposition-4 comparison per
// historical tuple, then per-pair counting): dominator COUNTS, unlike
// dominance itself, are not preserved by the µ-store reductions — a
// skyline store cannot tell two dominators from five — so the lattice
// algorithms do not transfer. This matches the related work's positioning
// of k-skyband maintenance as a separate, heavier problem.
type Skyband struct {
	*base
	k       int
	history []*relation.Tuple
	recs    []pairRec
}

// NewSkyband creates a k-skyband discoverer. k must be ≥ 1.
func NewSkyband(cfg Config, k int) (*Skyband, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: skyband k = %d, want ≥ 1", k)
	}
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &Skyband{base: b, k: k}, nil
}

// Name implements Discoverer.
func (a *Skyband) Name() string { return fmt.Sprintf("Skyband(k=%d)", a.k) }

// Process implements Discoverer: it emits every (C, M) for which fewer
// than k historical context tuples dominate t.
func (a *Skyband) Process(t *relation.Tuple) []Fact {
	a.met.Tuples++
	a.newTupleScratch(t)
	a.recs = a.recs[:0]
	for _, u := range a.history {
		a.met.Comparisons++
		rel := subspace.Compare(t, u, a.m)
		if rel.Lt == 0 {
			continue // u never dominates t in any subspace
		}
		a.recs = append(a.recs, pairRec{sharedOf(t, u), rel})
	}
	var facts []Fact
	for _, m := range a.subs {
		for _, c := range a.ctMasks {
			a.met.Traversed++
			dominators := 0
			for _, r := range a.recs {
				if c&^r.shared == 0 && r.rel.DominatedIn(m) {
					dominators++
					if dominators >= a.k {
						break
					}
				}
			}
			if dominators < a.k {
				facts = a.emit(t, c, m, facts)
			}
		}
	}
	a.history = append(a.history, t)
	return facts
}

var _ Discoverer = (*Skyband)(nil)
