package core

import (
	"repro/internal/relation"
	"repro/internal/subspace"
)

// Oracle is a slow but independently-derived reference implementation used
// by the test suite: it decides each (C, M) membership from first
// principles using one Proposition-4 comparison per historical tuple.
// Unlike BruteForce it shares nothing with the lattice traversal code
// paths, which makes it a meaningful differential-testing target.
type Oracle struct {
	*base
	history []*relation.Tuple
}

// NewOracle creates the reference discoverer.
func NewOracle(cfg Config) (*Oracle, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &Oracle{base: b}, nil
}

// Name implements Discoverer.
func (a *Oracle) Name() string { return "Oracle" }

// Process implements Discoverer.
func (a *Oracle) Process(t *relation.Tuple) []Fact {
	a.met.Tuples++
	a.newTupleScratch(t)
	// For each historical tuple record (shared mask, relation); then (C,M)
	// is a fact iff no record has C ⊆ shared and t dominated in M.
	type rec struct {
		shared uint32
		rel    subspace.Relation
	}
	recs := make([]rec, 0, len(a.history))
	for _, u := range a.history {
		a.met.Comparisons++
		recs = append(recs, rec{sharedOf(t, u), subspace.Compare(t, u, a.m)})
	}
	var facts []Fact
	for _, m := range a.subs {
		for _, c := range a.ctMasks {
			a.met.Traversed++
			dominated := false
			for _, r := range recs {
				if c&^r.shared == 0 && r.rel.DominatedIn(m) {
					dominated = true
					break
				}
			}
			if !dominated {
				facts = a.emit(c, m, 0, facts)
			}
		}
	}
	a.history = append(a.history, t)
	return facts
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

var _ Discoverer = (*Oracle)(nil)
