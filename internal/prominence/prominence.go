// Package prominence implements §VII of Sultana et al., ICDE 2014: ranking
// the situational facts S_t of an arriving tuple by the prominence measure
//
//	prominence(C, M) = |σ_C(R)| / |λ_M(σ_C(R))|
//
// (context cardinality over contextual-skyline cardinality; larger ratios
// mean rarer, more newsworthy facts), and selecting the PROMINENT facts:
// those attaining the highest prominence among S_t, provided that value
// reaches a threshold τ. Because a context must hold at least τ tuples to
// yield prominence ≥ τ, prominent facts are intrinsically rare.
package prominence

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/subspace"
)

// ScoredFact is a fact with its prominence value and the two cardinalities
// it derives from.
type ScoredFact struct {
	core.Fact
	// ContextSize is |σ_C(R)| including the arriving tuple.
	ContextSize int64
	// SkylineSize is |λ_M(σ_C(R))| including the arriving tuple.
	SkylineSize int
	// Prominence is ContextSize / SkylineSize.
	Prominence float64
}

// ContextSizer supplies |σ_C(R)|; core.ContextCounter implements it.
type ContextSizer interface {
	ContextSize(c lattice.Constraint) int64
}

// Score computes the prominence of every fact and returns them sorted in
// descending prominence (ties broken by more bound attributes first, then
// smaller subspace, for stable and intuition-friendly output; the final
// tie-break is the byte order of the constraints' store keys).
//
// The facts of one arrival number in the thousands but draw their
// constraints from the at most 2^d members of C^t, so everything that
// depends on the constraint alone — the context size and the bound count —
// is resolved once per distinct constraint, and each fact's sort key is
// computed once, not once per comparison.
func Score(facts []core.Fact, ctx ContextSizer, sky core.SkylineSizer) []ScoredFact {
	memo := contextMemo{
		index: make(map[string]int32, min(len(facts), 32)),
		ents:  make([]contextEntry, 0, min(len(facts), 32)),
	}
	keys := make([]sortKey, len(facts))
	for i, f := range facts {
		ci := memo.resolve(f.Constraint, ctx)
		ent := &memo.ents[ci]
		ss := sky.SkylineSize(f.Constraint, f.Subspace)
		k := sortKey{
			rank:    uint64(^ent.bound)<<40 | uint64(subspace.Size(f.Subspace))<<32 | uint64(f.Subspace),
			skyline: ss,
			context: ci,
			fact:    int32(i),
		}
		if ss > 0 {
			k.prominence = float64(ent.size) / float64(ss)
		}
		keys[i] = k
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		switch {
		case a.prominence > b.prominence:
			return -1
		case a.prominence < b.prominence:
			return 1
		case a.rank != b.rank:
			return cmp.Compare(a.rank, b.rank)
		case a.context == b.context:
			return 0
		}
		return compareKeyOrder(memo.ents[a.context].vals, memo.ents[b.context].vals)
	})
	out := make([]ScoredFact, len(keys))
	for i, k := range keys {
		out[i] = ScoredFact{
			Fact:        facts[k.fact],
			ContextSize: memo.ents[k.context].size,
			SkylineSize: k.skyline,
			Prominence:  k.prominence,
		}
	}
	return out
}

// sortKey is everything Score's ordering reads about one fact.
type sortKey struct {
	prominence float64
	// rank packs the tie-breaks after prominence so that smaller sorts
	// first: inverted bound count, subspace size, subspace mask.
	rank    uint64
	skyline int
	context int32 // the constraint's contextMemo entry
	fact    int32 // position in the input
}

// contextMemo holds what Score knows about each distinct constraint of its
// input. Constraints are identified by value — equal constraints from
// different tuples carry different Vals slices — through their key bytes,
// built in stack scratch so that only the first sight of a constraint
// allocates.
type contextMemo struct {
	index map[string]int32 // constraint key → position in ents
	ents  []contextEntry
}

type contextEntry struct {
	vals  []int32
	size  int64  // |σ_C(R)|
	bound uint16 // bound(C)
}

// resolve returns the entry index of c, sizing its context on first sight.
func (m *contextMemo) resolve(c lattice.Constraint, ctx ContextSizer) int32 {
	var scratch [lattice.KeyScratch]byte
	key := c.AppendKey(scratch[:0])
	i, ok := m.index[string(key)]
	if !ok {
		i = int32(len(m.ents))
		m.ents = append(m.ents, contextEntry{vals: c.Vals, size: ctx.ContextSize(c), bound: uint16(c.Bound())})
		m.index[string(key)] = i
	}
	return i
}

// compareKeyOrder orders two constraints as their lattice.Key strings
// compare, without building them: a key is the little-endian bytes of each
// value in turn, so value pairs compare byte-reversed (Wildcard, all ones,
// sorts last) and a key that is a prefix of the other sorts first.
func compareKeyOrder(a, b []int32) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return cmp.Compare(bits.ReverseBytes32(uint32(a[i])), bits.ReverseBytes32(uint32(b[i])))
		}
	}
	return cmp.Compare(len(a), len(b))
}

// TopK returns the k highest-prominence facts (all of them if k ≤ 0 or
// k ≥ len). The input must come from Score (sorted).
func TopK(scored []ScoredFact, k int) []ScoredFact {
	if k <= 0 || k >= len(scored) {
		return scored
	}
	return scored[:k]
}

// Prominent returns the facts whose prominence equals the maximum among
// the input AND is ≥ tau — the paper's definition of the prominent facts
// pertinent to one arrival (ties make this a set). The input must come
// from Score (sorted descending).
func Prominent(scored []ScoredFact, tau float64) []ScoredFact {
	if len(scored) == 0 {
		return nil
	}
	best := scored[0].Prominence
	if best < tau {
		return nil
	}
	i := 0
	for i < len(scored) && scored[i].Prominence == best {
		i++
	}
	return scored[:i]
}
