package core

import (
	"repro/internal/csc"
	"repro/internal/relation"
	"repro/internal/store"
)

// CCSC is the paper's adaptation of the compressed skycube (Xia & Zhang,
// SIGMOD'06) to situational-fact discovery, described in §II and compared
// against in §VI: one CSC is maintained PER CONTEXT (constraint). Upon
// arrival of t, for every constraint C ∈ C^t the corresponding CSC is
// updated, which entails per-subspace skyline queries to decide whether t
// enters each subspace skyline — the "overkill" the paper attributes to
// this adaptation, and the reason it trails BottomUp/TopDown by an order
// of magnitude while storing an intermediate number of tuples.
type CCSC struct {
	*base
	// cubes is keyed by interned constraint id — one map hash over eight
	// bytes instead of a key string per visited constraint.
	cubes map[store.ConstraintID]*csc.CSC
	// cachedStats tracks aggregate stored tuples/comparisons across cubes
	// without re-walking the map.
	stored int64
	comps  int64
}

// NewCCSC creates the algorithm.
func NewCCSC(cfg Config) (*CCSC, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &CCSC{base: b, cubes: make(map[store.ConstraintID]*csc.CSC)}, nil
}

// Name implements Discoverer.
func (a *CCSC) Name() string { return "C-CSC" }

// Process implements Discoverer.
func (a *CCSC) Process(t *relation.Tuple) []Fact {
	a.met.Tuples++
	a.newTupleScratch(t)
	var facts []Fact
	for _, c := range a.ctMasks {
		a.met.Traversed++
		k := a.cid(t, c)
		cube, ok := a.cubes[k]
		if !ok {
			cube = csc.New(a.m, a.mhat)
			a.cubes[k] = cube
		}
		beforeStored, beforeComps := cube.StoredTuples(), cube.Comparisons()
		skySubs := cube.Insert(t)
		a.stored += cube.StoredTuples() - beforeStored
		a.comps += cube.Comparisons() - beforeComps
		for _, m := range skySubs {
			facts = a.emit(c, m, 0, facts)
		}
	}
	a.met.Comparisons = a.comps
	return facts
}

// StoreStats implements Discoverer: C-CSC has no µ store; its storage
// footprint is the per-cube minimum-subspace entries, reported here so
// Figure 10b can chart all algorithms uniformly.
func (a *CCSC) StoreStats() store.Stats {
	return store.Stats{StoredTuples: a.stored, Cells: int64(len(a.cubes))}
}

var _ Discoverer = (*CCSC)(nil)
