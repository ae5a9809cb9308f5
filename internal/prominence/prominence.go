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
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/subspace"
)

// ScoredFact is a fact with its prominence value and the context size it
// derives from; the embedded Fact carries the skyline size.
type ScoredFact struct {
	core.Fact
	// ContextSize is |σ_C(R)| including the arriving tuple.
	ContextSize int64
	// Prominence is ContextSize / SkylineSize.
	Prominence float64
}

// ContextSizer supplies |σ_C(R)| for the member C of C^t that binds bound,
// t the arrival last observed: an answer is about that arrival, until the
// next one is observed. core.ContextCounter implements it.
type ContextSizer interface {
	ContextSize(bound lattice.Mask) int64
}

// Score computes the prominence of every fact of one arrival and returns
// them sorted in descending prominence (ties broken by more bound
// attributes first, then smaller subspace, for stable and
// intuition-friendly output; the final tie-break is the byte order of the
// constraints' store keys). ctx and sky must answer for the arrival whose
// facts these are. It is Ranker.Rank of every fact written out as a slice.
func Score(facts []core.Fact, ctx ContextSizer, sky core.SkylineSizer) []ScoredFact {
	var r Ranker
	r.Rank(facts, ctx, sky, len(facts))
	out := make([]ScoredFact, r.Len())
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

// Ranker computes Score's ranking without writing it out: Rank orders the
// best k facts, At reads the i-th of them. A Ranker keeps its working
// storage from one Rank to the next, so an engine that ranks every arrival
// through its own Ranker allocates nothing for it once warm; the zero value
// is ready. It refers to its last input and sizers until the next Rank, and
// is not safe for concurrent use.
//
// Every fact of one arrival is over a member of C^t, so its bound mask
// names its constraint: the context size is an array read by mask, the
// bound count is the mask's popcount and the constraint's place in key
// order is a function of the mask (keyOrdinal). The selection and the sort
// read nothing but three integers per fact.
type Ranker struct {
	facts []core.Fact
	ctx   ContextSizer
	words [numWords][]uint64 // what the order reads, by input position
	perm  []uint32           // the ranking's first k: input positions, best first
	spare []uint32           // the sort's other buffer
}

// The ordering reads three integers about each fact, held in words by
// input position; facts rank by them ascending, first word most
// significant.
const (
	// wordProminence is the fact's prominence, mapped so that a larger
	// prominence is a smaller integer.
	wordProminence = iota
	// wordRank packs the tie-breaks after prominence: inverted bound count,
	// subspace size, subspace mask.
	wordRank
	// wordOrd is the constraint's keyOrdinal, the last tie-break.
	wordOrd
	numWords
)

// less orders two input positions as the ranking does: by the words, first
// word most significant, and facts equal in every word by input position.
func (r *Ranker) less(a, b uint32) bool {
	for w := range r.words {
		if x, y := r.words[w][a], r.words[w][b]; x != y {
			return x < y
		}
	}
	return a < b
}

// selectBest leaves in perm, which holds the first k input positions, the
// positions of the k best facts, in input order. perm is kept a heap whose
// root is the worst of the best so far, which each later fact that ranks
// above it replaces.
func (r *Ranker) selectBest() {
	h := r.perm
	down := func(i int) { // no position ranks below a child of its own
		for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
			if c+1 < len(h) && r.less(h[c], h[c+1]) {
				c++
			}
			if !r.less(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for pos := uint32(len(h)); int(pos) < len(r.facts); pos++ {
		if r.less(pos, h[0]) {
			h[0] = pos
			down(0)
		}
	}
	slices.Sort(h)
}

// sort puts the positions in perm in ranking order: a stable LSD radix sort
// by the bytes of the words that differ between those facts at all — about
// a dozen of the twenty-four at the paper's shape: most of prominence's,
// one each for mask, size, bound count and ordinal. Facts equal in every
// word keep their order in perm.
func (r *Ranker) sort() {
	r.spare = sized(r.spare, len(r.perm))
	if len(r.perm) < 2 {
		return
	}
	for w := numWords - 1; w >= 0; w-- {
		word := r.words[w]
		var differ uint64
		first := word[r.perm[0]]
		for _, pos := range r.perm {
			differ |= word[pos] ^ first
		}
		for shift := 0; differ>>shift != 0; shift += 8 {
			if differ>>shift&0xff == 0 {
				continue
			}
			var next [256]uint32
			for _, pos := range r.perm {
				next[uint8(word[pos]>>shift)]++
			}
			at := uint32(0)
			for d, c := range next {
				next[d], at = at, at+c
			}
			for _, pos := range r.perm {
				d := uint8(word[pos] >> shift)
				r.spare[next[d]] = pos
				next[d]++
			}
			r.perm, r.spare = r.spare, r.perm
		}
	}
}

// sized returns s at length n, in its own storage when that is large
// enough; the contents are whatever was there.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// descending maps a float to an integer that orders the other way round:
// a > b ⇔ descending(a) < descending(b), for any two non-NaN floats.
func descending(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return b // negatives last, the most negative last of all
	}
	return ^b &^ (1 << 63)
}

// ascending is the inverse of descending.
func ascending(u uint64) float64 {
	if u>>63 != 0 {
		return math.Float64frombits(u)
	}
	return math.Float64frombits(^u &^ (1 << 63))
}

// keyOrdinal orders the members of one C^t as their lattice.Key strings
// compare. A key is the little-endian bytes of each dimension's value in
// turn, and two members of C^t differ first at the lowest dimension one
// binds and the other does not. There a dictionary code's bytes sort below
// Wildcard's (all ones), so the mask that binds that dimension sorts first:
// with the bits reversed, that is the smaller complement.
func keyOrdinal(bound lattice.Mask) uint64 { return uint64(^bits.Reverse32(bound)) }

// Rank keeps the first k facts of Score's ranking (all for k ≥ len(facts),
// none for k ≤ 0), sorting only those. Every fact is scored whatever k is:
// ctx is asked once per run of facts over one constraint, and sky only for
// the facts that do not carry their skyline size (Fact.SkylineSize 0:
// TopDown's). Rank writes sky's answer into those facts.
func (r *Ranker) Rank(facts []core.Fact, ctx ContextSizer, sky core.SkylineSizer, k int) {
	r.facts, r.ctx = facts, ctx
	for w := range r.words {
		r.words[w] = sized(r.words[w], len(facts))
	}
	proms, ranks, ords := r.words[wordProminence], r.words[wordRank], r.words[wordOrd]
	var size int64
	for i := range facts {
		f := &facts[i]
		if i == 0 || f.Bound != facts[i-1].Bound {
			size = ctx.ContextSize(f.Bound)
		}
		if f.SkylineSize == 0 {
			f.SkylineSize = int32(sky.SkylineSize(f.Bound, f.Subspace))
		}
		var prom float64
		if f.SkylineSize > 0 {
			prom = float64(size) / float64(f.SkylineSize)
		}
		proms[i] = descending(prom)
		ranks[i] = uint64(^uint16(lattice.PopCount(f.Bound)))<<40 | uint64(subspace.Size(f.Subspace))<<32 | uint64(f.Subspace)
		ords[i] = keyOrdinal(f.Bound)
	}
	r.perm = sized(r.perm, max(0, min(k, len(facts))))
	for i := range r.perm {
		r.perm[i] = uint32(i)
	}
	if 0 < len(r.perm) && len(r.perm) < len(facts) {
		r.selectBest()
	}
	r.sort()
}

// Len returns the number of facts the last Rank kept.
func (r *Ranker) Len() int { return len(r.perm) }

// At returns the fact ranked i-th, scored.
func (r *Ranker) At(i int) ScoredFact {
	pos := r.perm[i]
	f := r.facts[pos]
	return ScoredFact{
		Fact:        f,
		ContextSize: r.ctx.ContextSize(f.Bound),
		Prominence:  ascending(r.words[wordProminence][pos]),
	}
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
