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
	"math"
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
	// SkylineSize is |λ_M(σ_C(R))| including the arriving tuple: the
	// embedded Fact's, or the sizer's where discovery left that 0.
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
// tie-break is the byte order of the constraints' store keys). It is
// Ranker.Rank of every fact written out as a slice.
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
// is ready. It refers to its last input until the next Rank, and is not
// safe for concurrent use.
//
// The facts of one arrival number in the thousands but draw their
// constraints from the at most 2^d members of C^t, so everything that
// depends on the constraint alone — the context size, the bound count, its
// place in key order — is resolved once per distinct constraint, and the
// selection and the sort read nothing but three integers per fact.
type Ranker struct {
	facts []core.Fact
	words [numWords][]uint64 // what the order reads, by input position
	sky   []int              // skyline size, by input position
	perm  []uint32           // the ranking's first k: input positions, best first
	spare []uint32           // the sort's other buffer

	// The distinct constraints of the input. Constraints are identified by
	// value — equal constraints from different tuples carry different Vals
	// slices — and found without building or hashing their key bytes:
	// heads buckets them by bound mask (within one arrival the bound mask
	// IS the constraint), next chains the ones sharing a bucket, and a
	// probe compares values.
	ents  []contextEntry
	heads []int32 // bucket → 1 + position in ents of the chain's first entry
	order []int32 // ents positions in key order
}

type contextEntry struct {
	vals   []int32
	size   int64  // |σ_C(R)|
	rank   uint64 // the constraint's part of a fact's wordRank
	bucket uint32
	next   int32  // 1 + position of the next entry in the bucket, 0 at the end
	ord    uint32 // position in key order among ents
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
	// wordOrd is the constraint's position in key order, the last
	// tie-break. (While the facts are being scored it is the constraint's
	// position in ents, which At finds again through order.)
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

// maxBucketBits caps the bucket table at 4096 slots however wide the
// constraints are; wider bound masks share buckets.
const maxBucketBits = 12

// Rank keeps the first k facts of Score's ranking (all for k ≥ len(facts),
// none for k ≤ 0), sorting only those. Every fact is scored whatever k is:
// ctx is asked once per distinct constraint, and sky only for the facts
// that do not carry their skyline size (Fact.SkylineSize 0: TopDown's).
func (r *Ranker) Rank(facts []core.Fact, ctx ContextSizer, sky core.SkylineSizer, k int) {
	for i := range r.ents {
		r.heads[r.ents[i].bucket] = 0
	}
	clear(r.ents) // the entries hold the last input's Vals
	r.ents = r.ents[:0]
	r.facts = facts
	for w := range r.words {
		r.words[w] = sized(r.words[w], len(facts))
	}
	r.sky = sized(r.sky, len(facts))
	proms, ranks, ords := r.words[wordProminence], r.words[wordRank], r.words[wordOrd]

	for i, f := range facts {
		ei := r.resolve(f.Constraint, ctx)
		ent := &r.ents[ei]
		ss := int(f.SkylineSize)
		if ss == 0 {
			ss = sky.SkylineSize(f.Constraint, f.Subspace)
		}
		var prom float64
		if ss > 0 {
			prom = float64(ent.size) / float64(ss)
		}
		r.sky[i] = ss
		proms[i] = descending(prom)
		ranks[i] = ent.rank | uint64(subspace.Size(f.Subspace))<<32 | uint64(f.Subspace)
		ords[i] = uint64(ei)
	}

	// Each constraint's ordinal in key order, once per call rather than
	// once per comparison of two facts that tie on everything else.
	r.order = sized(r.order, len(r.ents))
	for i := range r.order {
		r.order[i] = int32(i)
	}
	slices.SortFunc(r.order, func(a, b int32) int {
		return compareKeyOrder(r.ents[a].vals, r.ents[b].vals)
	})
	for ord, ei := range r.order {
		r.ents[ei].ord = uint32(ord)
	}
	for i, ei := range ords {
		ords[i] = uint64(r.ents[ei].ord)
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
	return ScoredFact{
		Fact:        r.facts[pos],
		ContextSize: r.ents[r.order[r.words[wordOrd][pos]]].size,
		SkylineSize: r.sky[pos],
		Prominence:  ascending(r.words[wordProminence][pos]),
	}
}

// resolve returns the position in ents of c's entry, making it — sizing
// c's context — on first sight.
func (r *Ranker) resolve(c lattice.Constraint, ctx ContextSizer) int32 {
	if want := 1 << min(len(c.Vals), maxBucketBits); want > len(r.heads) {
		r.heads = make([]int32, want)
		for i := range r.ents { // re-bucket what is already there
			e := &r.ents[i]
			e.bucket = uint32(lattice.Constraint{Vals: e.vals}.BoundMask()) & uint32(want-1)
			e.next, r.heads[e.bucket] = r.heads[e.bucket], int32(i)+1
		}
	}
	bound := c.BoundMask()
	bucket := uint32(bound) & uint32(len(r.heads)-1)
	for at := r.heads[bucket]; at != 0; at = r.ents[at-1].next {
		if slices.Equal(r.ents[at-1].vals, c.Vals) {
			return at - 1
		}
	}
	e := contextEntry{
		vals:   c.Vals,
		size:   ctx.ContextSize(c),
		rank:   uint64(^uint16(c.Bound())) << 40,
		bucket: bucket,
		next:   r.heads[bucket],
	}
	r.ents = append(r.ents, e)
	r.heads[bucket] = int32(len(r.ents))
	return int32(len(r.ents)) - 1
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
