package core

import (
	"repro/internal/kdtree"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// BaselineSeq is Algorithm 3 of the paper: for each measure subspace,
// sequentially scan all existing tuples; whenever one dominates t, remove
// the whole intersection lattice C^{t,t'} from the candidate set
// (Proposition 3). What survives the scan is S_t for that subspace.
type BaselineSeq struct {
	*base
	history []*relation.Tuple
	// maximalShared collects, per subspace, the maximal shared masks of
	// dominators seen in the current scan; a constraint mask is pruned iff
	// it is a submask of one of them. Keeping only maximal masks keeps the
	// membership test short.
	maximalShared []lattice.Mask
}

// NewBaselineSeq creates the algorithm.
func NewBaselineSeq(cfg Config) (*BaselineSeq, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &BaselineSeq{base: b}, nil
}

// Name implements Discoverer.
func (a *BaselineSeq) Name() string { return "BaselineSeq" }

// Process implements Discoverer.
func (a *BaselineSeq) Process(t *relation.Tuple) []Fact {
	a.met.Tuples++
	a.newTupleScratch(t)
	var facts []Fact
	for _, m := range a.subs {
		a.maximalShared = a.maximalShared[:0]
		full := false // becomes true when C^{t,t'} = C^t (everything pruned)
		for _, u := range a.history {
			a.met.Comparisons++
			if a.relTo(t, uint32(u.ID), false).DominatedIn(m) {
				sh := sharedOf(t, u)
				if a.addMaximalShared(sh) && sh == lattice.FullMask(a.d) {
					full = true
					break
				}
			}
		}
		if full {
			continue
		}
		for _, c := range a.ctMasks {
			a.met.Traversed++
			if !a.coveredByShared(c) {
				facts = a.emit(c, m, 0, facts)
			}
		}
	}
	a.history = append(a.history, t)
	return facts
}

// addMaximalShared inserts sh into the maximal-shared set, returning true
// if sh is (now) present as a maximal element.
func (a *BaselineSeq) addMaximalShared(sh lattice.Mask) bool {
	for i, ex := range a.maximalShared {
		if sh&^ex == 0 { // sh ⊆ existing: nothing new
			return false
		}
		if ex&^sh == 0 { // existing ⊆ sh: replace (and absorb the rest below)
			a.maximalShared[i] = sh
			a.absorb(i)
			return true
		}
	}
	a.maximalShared = append(a.maximalShared, sh)
	return true
}

// absorb removes elements subsumed by the (just grown) element at i.
func (a *BaselineSeq) absorb(i int) {
	sh := a.maximalShared[i]
	out := a.maximalShared[:0]
	for j, ex := range a.maximalShared {
		if j == i || ex&^sh != 0 {
			out = append(out, ex)
		}
	}
	a.maximalShared = out
}

func (a *BaselineSeq) coveredByShared(c lattice.Mask) bool {
	for _, sh := range a.maximalShared {
		if c&^sh == 0 {
			return true
		}
	}
	return false
}

var _ Discoverer = (*BaselineSeq)(nil)

// BaselineIdx is the paper's indexed baseline: instead of scanning all
// tuples, a k-d tree over the measure space answers the one-sided range
// query ⋀_{m_i ∈ M}(m_i ≥ t.m_i); the retrieved candidates (filtered for
// strict dominance) drive the same Proposition-3 pruning as BaselineSeq.
type BaselineIdx struct {
	*base
	tree *kdtree.Tree
	seq  BaselineSeq // reuse the maximal-shared machinery
}

// NewBaselineIdx creates the algorithm.
func NewBaselineIdx(cfg Config) (*BaselineIdx, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &BaselineIdx{base: b, tree: kdtree.New(cfg.Schema.NumMeasures()), seq: BaselineSeq{base: b}}, nil
}

// Name implements Discoverer.
func (a *BaselineIdx) Name() string { return "BaselineIdx" }

// Process implements Discoverer.
func (a *BaselineIdx) Process(t *relation.Tuple) []Fact {
	a.met.Tuples++
	a.newTupleScratch(t)
	var facts []Fact
	for _, m := range a.subs {
		a.seq.maximalShared = a.seq.maximalShared[:0]
		full := false
		a.tree.DominatorsOrBetter(t, m, func(u *relation.Tuple) bool {
			a.met.Comparisons++
			// The query returns u ≽_M t including ties; keep strict
			// dominators only.
			if a.relTo(t, uint32(u.ID), false).DominatedIn(m) {
				sh := sharedOf(t, u)
				if a.seq.addMaximalShared(sh) && sh == lattice.FullMask(a.d) {
					full = true
					return false
				}
			}
			return true
		})
		if full {
			continue
		}
		for _, c := range a.ctMasks {
			a.met.Traversed++
			if !a.seq.coveredByShared(c) {
				facts = a.emit(c, m, 0, facts)
			}
		}
	}
	a.tree.Insert(t)
	return facts
}

var _ Discoverer = (*BaselineIdx)(nil)
