package prominence

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/subspace"
)

// paperExample reproduces §VII's worked prominence computations on
// Table I: (month=Feb, {points,assists,rebounds}) has prominence 5/2 and
// (team=Celtics ∧ opp=Nets, {assists,rebounds}) has 3/2.
func TestPaperProminenceExample(t *testing.T) {
	s, err := relation.NewSchema("gamelog",
		[]relation.DimAttr{{Name: "player"}, {Name: "month"}, {Name: "season"}, {Name: "team"}, {Name: "opp_team"}},
		[]relation.MeasureAttr{
			{Name: "points", Direction: relation.LargerBetter},
			{Name: "assists", Direction: relation.LargerBetter},
			{Name: "rebounds", Direction: relation.LargerBetter},
		})
	if err != nil {
		t.Fatal(err)
	}
	tb := relation.NewTable(s)
	rows := []struct {
		d []string
		m []float64
	}{
		{[]string{"Bogues", "Feb", "1991-92", "Hornets", "Hawks"}, []float64{4, 12, 5}},
		{[]string{"Seikaly", "Feb", "1991-92", "Heat", "Hawks"}, []float64{24, 5, 15}},
		{[]string{"Sherman", "Dec", "1993-94", "Celtics", "Nets"}, []float64{13, 13, 5}},
		{[]string{"Wesley", "Feb", "1994-95", "Celtics", "Nets"}, []float64{2, 5, 2}},
		{[]string{"Wesley", "Feb", "1994-95", "Celtics", "Timberwolves"}, []float64{3, 5, 3}},
		{[]string{"Strickland", "Jan", "1995-96", "Blazers", "Celtics"}, []float64{27, 18, 8}},
		{[]string{"Wesley", "Feb", "1995-96", "Celtics", "Nets"}, []float64{12, 13, 5}},
	}
	alg, err := core.NewBottomUp(core.Config{Schema: s, MaxBound: -1, MaxMeasure: -1})
	if err != nil {
		t.Fatal(err)
	}
	cc := core.NewContextCounter(5, -1)
	var facts []core.Fact
	for _, r := range rows {
		tu, err := tb.Append(r.d, r.m)
		if err != nil {
			t.Fatal(err)
		}
		facts = alg.Process(tu)
		cc.Observe(tu)
	}
	scored := Score(facts, cc, alg)
	if len(scored) != 195 {
		t.Fatalf("t7 has %d scored facts", len(scored))
	}
	find := func(c lattice.Constraint, m subspace.Mask) *ScoredFact {
		for i := range scored {
			if scored[i].Subspace == m && scored[i].Constraint.Equal(c) {
				return &scored[i]
			}
		}
		return nil
	}
	W := lattice.Wildcard
	feb, _ := tb.Dict().Lookup(1, "Feb")
	celtics, _ := tb.Dict().Lookup(3, "Celtics")
	nets, _ := tb.Dict().Lookup(4, "Nets")

	f1 := find(lattice.Constraint{Vals: []int32{W, feb, W, W, W}}, 0b111)
	if f1 == nil {
		t.Fatal("(month=Feb, full) not among scored facts")
	}
	if f1.ContextSize != 5 || f1.SkylineSize != 2 || f1.Prominence != 2.5 {
		t.Errorf("(month=Feb, full): %d/%d = %g, want 5/2 = 2.5", f1.ContextSize, f1.SkylineSize, f1.Prominence)
	}
	f2 := find(lattice.Constraint{Vals: []int32{W, W, W, celtics, nets}}, 0b110)
	if f2 == nil {
		t.Fatal("(Celtics∧Nets, {assists,rebounds}) not among scored facts")
	}
	if f2.ContextSize != 3 || f2.SkylineSize != 2 || f2.Prominence != 1.5 {
		t.Errorf("(Celtics∧Nets, {a,r}): %d/%d = %g, want 3/2 = 1.5", f2.ContextSize, f2.SkylineSize, f2.Prominence)
	}

	// §VII claims the highest prominence among S_t7 is 3 — but Table I
	// itself refutes that: (month=Feb, {assists}) has a 5-tuple context in
	// which t7 alone (13 assists) is the skyline, i.e. prominence 5. The
	// paper's two worked examples do attain exactly 3, which we verify
	// below; the true maximum of 5 is recorded as a paper erratum in
	// EXPERIMENTS.md.
	if scored[0].Prominence != 5 {
		t.Errorf("max prominence = %g, want 5 (see erratum note)", scored[0].Prominence)
	}
	febAssists := find(lattice.Constraint{Vals: []int32{W, feb, W, W, W}}, 0b010)
	if febAssists == nil || febAssists.Prominence != 5 {
		t.Errorf("(month=Feb, {assists}) should have prominence 5, got %+v", febAssists)
	}
	wesley, _ := tb.Dict().Lookup(0, "Wesley")
	fw := find(lattice.Constraint{Vals: []int32{wesley, W, W, W, W}}, 0b100)
	if fw == nil || fw.Prominence != 3 {
		t.Errorf("(player=Wesley, {rebounds}) prominence = %+v, want 3", fw)
	}
	fc := find(lattice.Constraint{Vals: []int32{W, feb, W, celtics, W}}, 0b001)
	if fc == nil || fc.Prominence != 3 {
		t.Errorf("(month=Feb ∧ team=Celtics, {points}) prominence = %+v, want 3", fc)
	}
	// Prominent facts = the max-prominence group when it clears τ.
	prom := Prominent(scored, 3)
	if len(prom) == 0 {
		t.Fatal("no prominent facts at τ=3")
	}
	for _, f := range prom {
		if f.Prominence != 5 {
			t.Errorf("prominent fact with prominence %g ≠ max 5", f.Prominence)
		}
	}
	// With τ above the max, nothing is prominent.
	if got := Prominent(scored, 5.5); len(got) != 0 {
		t.Errorf("Prominent(τ=5.5) = %d facts, want 0", len(got))
	}
	// Ordering: descending prominence.
	for i := 1; i < len(scored); i++ {
		if scored[i].Prominence > scored[i-1].Prominence {
			t.Fatal("Score output not sorted by descending prominence")
		}
	}
}

// TestSizerAgreement: the skyline sizes BottomUp's facts carry and the ones
// TopDown's sizer computes must agree on random streams (the same quantity
// over different storage schemes).
func TestSizerAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dims := []relation.DimAttr{{Name: "d1"}, {Name: "d2"}, {Name: "d3"}}
	measures := []relation.MeasureAttr{{Name: "m1"}, {Name: "m2"}}
	s, err := relation.NewSchema("r", dims, measures)
	if err != nil {
		t.Fatal(err)
	}
	tb := relation.NewTable(s)
	bu, _ := core.NewBottomUp(core.Config{Schema: s, MaxBound: -1, MaxMeasure: -1})
	td, _ := core.NewTopDown(core.Config{Schema: s, MaxBound: -1, MaxMeasure: -1})
	cc := core.NewContextCounter(3, -1)
	for i := 0; i < 60; i++ {
		tu, err := tb.AppendEncoded(
			[]int32{int32(rng.Intn(2)), int32(rng.Intn(3)), int32(rng.Intn(2))},
			[]float64{float64(rng.Intn(5)), float64(rng.Intn(5))})
		if err != nil {
			t.Fatal(err)
		}
		facts := bu.Process(tu)
		td.Process(tu)
		cc.Observe(tu)
		unsized := slices.Clone(facts)
		for j := range unsized {
			unsized[j].SkylineSize = 0
		}
		sb := Score(facts, cc, bu)
		st := Score(unsized, cc, td)
		for j := range sb {
			if sb[j].SkylineSize != st[j].SkylineSize || sb[j].Prominence != st[j].Prominence {
				t.Fatalf("tuple %d fact %d: BottomUp sizer %d vs TopDown sizer %d",
					i, j, sb[j].SkylineSize, st[j].SkylineSize)
			}
			if sb[j].SkylineSize < 1 {
				t.Fatalf("skyline size %d < 1 for an emitted fact", sb[j].SkylineSize)
			}
			if sb[j].ContextSize < int64(sb[j].SkylineSize) {
				t.Fatalf("context smaller than its skyline: %d < %d", sb[j].ContextSize, sb[j].SkylineSize)
			}
		}
	}
}

func TestEmptyScore(t *testing.T) {
	if got := Score(nil, core.NewContextCounter(2, -1), sizerFunc(func(lattice.Constraint, subspace.Mask) int { return 1 })); len(got) != 0 {
		t.Errorf("Score(nil) = %v", got)
	}
	if got := Prominent(nil, 1); got != nil {
		t.Errorf("Prominent(nil) = %v", got)
	}
}

type sizerFunc func(lattice.Constraint, subspace.Mask) int

func (f sizerFunc) SkylineSize(c lattice.Constraint, m subspace.Mask) int { return f(c, m) }

// carrying returns a copy of facts in which every fact carries its skyline
// size, as the BottomUp family emits them, and a sizer that fails t when it
// is asked for a size a fact carries. A fact whose skyline is empty carries
// 0, which is what an unsized fact carries, so the sizer answers for those.
func carrying(t *testing.T, facts []core.Fact, sky sizerFunc) ([]core.Fact, sizerFunc) {
	out := slices.Clone(facts)
	for i, f := range out {
		out[i].SkylineSize = int32(sky(f.Constraint, f.Subspace))
	}
	return out, func(c lattice.Constraint, m subspace.Mask) int {
		if n := sky(c, m); n != 0 {
			t.Fatalf("sizer asked for (%v, %b), whose size of %d the fact carries", c.Vals, m, n)
		}
		return 0
	}
}

type contextFunc func(lattice.Constraint) int64

func (f contextFunc) ContextSize(c lattice.Constraint) int64 { return f(c) }

// referenceOrder is Score as it was before the per-constraint memo and the
// precomputed sort keys: every fact sized on its own, sort.Slice over the
// scored facts, ties broken on freshly built Constraint.Key() strings. It
// survives here as the oracle Score's output must equal.
func referenceOrder(facts []core.Fact, ctx ContextSizer, sky core.SkylineSizer) []ScoredFact {
	out := make([]ScoredFact, 0, len(facts))
	for _, f := range facts {
		cs := ctx.ContextSize(f.Constraint)
		ss := sky.SkylineSize(f.Constraint, f.Subspace)
		sf := ScoredFact{Fact: f, ContextSize: cs, SkylineSize: ss}
		if ss > 0 {
			sf.Prominence = float64(cs) / float64(ss)
		}
		out = append(out, sf)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prominence != out[j].Prominence {
			return out[i].Prominence > out[j].Prominence
		}
		bi, bj := out[i].Constraint.Bound(), out[j].Constraint.Bound()
		if bi != bj {
			return bi > bj
		}
		si, sj := subspace.Size(out[i].Subspace), subspace.Size(out[j].Subspace)
		if si != sj {
			return si < sj
		}
		if out[i].Subspace != out[j].Subspace {
			return out[i].Subspace < out[j].Subspace
		}
		return out[i].Constraint.Key() < out[j].Constraint.Key()
	})
	return out
}

// tieHeavyInput draws a random schema and up to maxN facts over it built to
// tie — few distinct sizes, Wildcard-heavy constraints, codes whose
// little-endian bytes order differently from their values, the same
// constraint arriving in separate Vals slices (with the same subspace too).
// Every third round draws its constraints the way arrivals do, as C^t
// members of a handful of tuples, so that facts of different tuples share a
// bound mask and differ only in the values under it; every fourth gives
// every fact the same prominence, so that the order runs through all three
// tie-breaks down to the constraints' key order. Some skylines are empty.
func tieHeavyInput(rng *rand.Rand, round, maxN int) (facts []core.Fact, ctx contextFunc, sky sizerFunc) {
	// Codes straddling byte boundaries: 256 < 1 as keys (00 01 00 00 vs
	// 01 00 00 00), 65536 < 256 < 1.
	codes := []int32{0, 1, 2, 255, 256, 257, 65535, 65536, 1 << 24, 1<<31 - 1}
	d := 1 + rng.Intn(6)
	m := 1 + rng.Intn(5)
	ncodes := 1 + rng.Intn(len(codes))
	wild := rng.Float64()
	newVals := func() []int32 {
		vals := make([]int32, d)
		for i := range vals {
			vals[i] = codes[rng.Intn(ncodes)]
			if rng.Float64() < wild {
				vals[i] = lattice.Wildcard
			}
		}
		return vals
	}
	if round%3 == 0 {
		tuples := make([][]int32, 2+rng.Intn(4))
		for i := range tuples {
			tuples[i] = make([]int32, d)
			for j := range tuples[i] {
				tuples[i][j] = codes[rng.Intn(ncodes)]
			}
		}
		newVals = func() []int32 {
			tu, bound := tuples[rng.Intn(len(tuples))], rng.Intn(1<<uint(d))
			vals := make([]int32, d)
			for i := range vals {
				vals[i] = lattice.Wildcard
				if bound&(1<<uint(i)) != 0 {
					vals[i] = tu[i]
				}
			}
			return vals
		}
	}
	n := rng.Intn(maxN)
	facts = make([]core.Fact, 0, n)
	for len(facts) < n {
		f := core.Fact{
			Constraint: lattice.Constraint{Vals: newVals()},
			Subspace:   subspace.Mask(1 + rng.Intn(1<<uint(m)-1)),
		}
		facts = append(facts, f)
		// The same constraint again, as another tuple would emit it.
		for len(facts) < n && rng.Intn(3) == 0 {
			dup := core.Fact{
				Constraint: lattice.Constraint{Vals: append([]int32(nil), f.Constraint.Vals...)},
				Subspace:   f.Subspace,
			}
			if rng.Intn(2) == 0 {
				dup.Subspace = subspace.Mask(1 + rng.Intn(1<<uint(m)-1))
			}
			facts = append(facts, dup)
		}
	}
	// Sizes are functions of the values alone and take few distinct
	// values, so prominence ties are the rule; some skylines are empty.
	ctxMod, skyMod := int64(1+rng.Intn(4)), 1+rng.Intn(3)
	if round%4 == 0 {
		ctxMod, skyMod = 1, 0 // one context size, one skyline size: all tie
	}
	hash := func(c lattice.Constraint) int64 {
		var h int64
		for _, v := range c.Vals {
			h = h*31 + int64(v) + 2
		}
		return h
	}
	ctx = func(c lattice.Constraint) int64 {
		return 1 + (hash(c)%ctxMod+ctxMod)%ctxMod
	}
	absent := func(c lattice.Constraint) bool { return skyMod > 0 && hash(c)%5 == 0 }
	sky = func(c lattice.Constraint, sm subspace.Mask) int {
		if absent(c) {
			return 0
		}
		return 1 + (c.Bound()+int(sm))%(skyMod+1) - min(skyMod, 1)
	}
	return facts, ctx, sky
}

// TestScoreMatchesReferenceOrder: over tieHeavyInput's fact sets, Score
// returns exactly what the reference returns, element for element. Each
// input is ranked twice: sized by the sizer, and carrying its sizes.
func TestScoreMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for round := 0; round < 300; round++ {
		facts, ctx, sky := tieHeavyInput(rng, round, 400)
		carried, refuse := carrying(t, facts, sky)
		for name, in := range map[string]struct {
			facts []core.Fact
			sizer sizerFunc
		}{
			"by the sizer":  {facts, sky},
			"as they carry": {carried, refuse},
		} {
			want := referenceOrder(in.facts, ctx, sky)
			got := Score(in.facts, ctx, in.sizer)
			if len(got) != len(want) {
				t.Fatalf("round %d, sized %s: %d scored facts, reference has %d", round, name, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("round %d (n=%d), sized %s, position %d:\n got  %+v\n want %+v", round, len(facts), name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRankKeepsScoresFirstK: for every k from 0 to one past the input, one
// warm Ranker keeps exactly the first k facts of Score's ranking, in order,
// over tieHeavyInput's fact sets — ties in prominence, and facts equal in
// every word, included.
func TestRankKeepsScoresFirstK(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var r Ranker
	for round := 0; round < 120; round++ {
		facts, ctx, sky := tieHeavyInput(rng, round, 64)
		if round%2 == 1 {
			facts, sky = carrying(t, facts, sky)
		}
		want := Score(facts, ctx, sky)
		for k := 0; k <= len(facts)+1; k++ {
			r.Rank(facts, ctx, sky, k)
			if r.Len() != min(k, len(facts)) {
				t.Fatalf("round %d, k=%d: kept %d of %d facts", round, k, r.Len(), len(facts))
			}
			for i := 0; i < r.Len(); i++ {
				if got := r.At(i); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("round %d (n=%d), k=%d, position %d:\n got  %+v\n want %+v", round, len(facts), k, i, got, want[i])
				}
			}
		}
	}
}

// TestRankIgnoresInputOrder: two facts of one arrival never tie on all
// three words — within an arrival the key ordinal names the constraint and
// the rank word carries the subspace — so the last tie-break, input
// position, never decides, and shuffling an arrival's facts leaves the
// facts Rank keeps and their order unchanged, at k = 5 and at k = all. The
// arrivals are SBottomUp's on a generated stream; a context size of three
// values makes prominence ties common.
func TestRankIgnoresInputOrder(t *testing.T) {
	g, err := gen.NewNBA(gen.NBAConfig{Seed: 42}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tb := relation.NewTable(g.Schema())
	if err := g.Fill(tb, 400); err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewSBottomUp(core.Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := contextFunc(func(c lattice.Constraint) int64 { return int64(1 + c.Bound()%3) })
	carried := sizerFunc(func(lattice.Constraint, subspace.Mask) int {
		t.Fatal("a BottomUp fact carries its skyline size")
		return 0
	})
	rng := rand.New(rand.NewSource(42))
	var inOrder, shuffled Ranker
	checked := 0
	for i, tu := range tb.Tuples() {
		facts := alg.Process(tu)
		if i%8 != 0 || len(facts) < 10 {
			continue
		}
		mixed := slices.Clone(facts)
		rng.Shuffle(len(mixed), func(a, b int) { mixed[a], mixed[b] = mixed[b], mixed[a] })
		for _, k := range []int{5, len(facts)} {
			inOrder.Rank(facts, ctx, carried, k)
			shuffled.Rank(mixed, ctx, carried, k)
			for j := 0; j < inOrder.Len(); j++ {
				if got, want := shuffled.At(j), inOrder.At(j); !reflect.DeepEqual(got, want) {
					t.Fatalf("tuple %d, k=%d, position %d: shuffled input ranks %+v, input order %+v", tu.ID, k, j, got, want)
				}
			}
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("checked %d arrivals, want at least 20", checked)
	}
}

// TestScoreMixedWidths: Score is a general function, so constraints of
// different widths may meet in one input; a key that is a prefix of
// another sorts first, as the key strings do.
func TestScoreMixedWidths(t *testing.T) {
	W := lattice.Wildcard
	facts := []core.Fact{
		{Constraint: lattice.Constraint{Vals: []int32{W, W}}, Subspace: 1},
		{Constraint: lattice.Constraint{Vals: []int32{W}}, Subspace: 1},
		{Constraint: lattice.Constraint{Vals: []int32{W, W, W}}, Subspace: 1},
	}
	one := contextFunc(func(lattice.Constraint) int64 { return 1 })
	sky := sizerFunc(func(lattice.Constraint, subspace.Mask) int { return 1 })
	if got, want := Score(facts, one, sky), referenceOrder(facts, one, sky); !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// TestScoreSizesEachConstraintOnce: the context size is probed once per
// distinct constraint of the input, however many facts share it; the
// skyline sizer is asked nothing for a fact that carries its size and once
// for each fact that does not. Keeping 5 facts, or none, sizes exactly as
// much as keeping them all: every fact is scored whatever the cap.
func TestScoreSizesEachConstraintOnce(t *testing.T) {
	W := lattice.Wildcard
	var facts []core.Fact
	unsized := 0
	for sm := subspace.Mask(1); sm < 64; sm++ {
		for _, vals := range [][]int32{{W, W}, {1, W}, {W, 1}, {1, 1}, {2, 1}} {
			f := core.Fact{Constraint: lattice.Constraint{Vals: append([]int32(nil), vals...)}, Subspace: sm}
			if len(facts)%3 == 0 {
				unsized++
			} else {
				f.SkylineSize = 1
			}
			facts = append(facts, f)
		}
	}
	var r Ranker
	for _, k := range []int{len(facts), 5, 0} {
		probes, sizings := 0, 0
		ctx := contextFunc(func(lattice.Constraint) int64 { probes++; return 7 })
		sky := sizerFunc(func(lattice.Constraint, subspace.Mask) int { sizings++; return 1 })
		r.Rank(facts, ctx, sky, k)
		if probes != 5 {
			t.Errorf("k=%d: %d context-size probes for 5 distinct constraints over %d facts", k, probes, len(facts))
		}
		if sizings != unsized {
			t.Errorf("k=%d: %d skyline sizings for %d facts, %d of which carry no size", k, sizings, len(facts), unsized)
		}
	}
}

// TestDescendingKeepsFloatOrder: the integer a prominence sorts by orders
// floats the other way round, and maps back exactly.
func TestDescendingKeepsFloatOrder(t *testing.T) {
	vals := []float64{math.Inf(1), 1e300, 7.0 / 3, 2, 1.5, 1 + 1e-15, 1, 1.0 / 3, 5e-324, 0, -5e-324, -1, -2.5, math.Inf(-1)}
	for i, v := range vals {
		if got := ascending(descending(v)); got != v {
			t.Errorf("ascending(descending(%g)) = %g", v, got)
		}
		if i > 0 && descending(vals[i-1]) >= descending(v) {
			t.Errorf("%g > %g but descending gives %#x ≥ %#x", vals[i-1], v, descending(vals[i-1]), descending(v))
		}
	}
}

// BenchmarkRankWide ranks arrivals of the paper's Fig 7a shape (NBA d=5,
// m=7, d̂=4, some two thousand facts over at most 31 constraints each)
// through one warm Ranker, each fact carrying the skyline size discovery
// found; ns/op is one arrival's scoring and ordering, facts/op its size. /all
// orders every fact, /top5 the five an ack carries.
func BenchmarkRankWide(b *testing.B) {
	const rows, kept = 400, 50
	g, err := gen.NewNBA(gen.NBAConfig{Seed: 2014}, 5, 7)
	if err != nil {
		b.Fatal(err)
	}
	tb := relation.NewTable(g.Schema())
	if err := g.Fill(tb, rows); err != nil {
		b.Fatal(err)
	}
	alg, err := core.NewSBottomUp(core.Config{Schema: g.Schema(), MaxBound: 4, MaxMeasure: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer alg.Close()
	cc := core.NewContextCounter(5, 4)
	var arrivals [][]core.Fact
	for i, tu := range tb.Tuples() {
		facts := alg.Process(tu)
		cc.Observe(tu)
		if i >= rows-kept {
			arrivals = append(arrivals, slices.Clone(facts))
		}
	}
	for _, bc := range []struct {
		name string
		k    int
	}{{"all", math.MaxInt}, {"top5", 5}} {
		b.Run(bc.name, func(b *testing.B) {
			var r Ranker
			facts := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				raw := arrivals[i%kept]
				r.Rank(raw, cc, alg, bc.k)
				facts += len(raw)
			}
			b.ReportMetric(float64(facts)/float64(b.N), "facts/op")
		})
	}
}
