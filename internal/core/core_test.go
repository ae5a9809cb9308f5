package core

import (
	"math/rand"
	"testing"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

func TestConfigValidation(t *testing.T) {
	if _, err := NewBottomUp(Config{}); err == nil {
		t.Error("nil schema accepted")
	}
	tb := table4(t)
	if _, err := NewBottomUp(Config{Schema: tb.Schema(), MaxMeasure: 0}); err == nil {
		t.Error("m̂ = 0 accepted")
	}
}

// TestExample1Table1 reproduces the paper's Example 1 on Table I: with no
// constraint and the full measure space t7 is NOT a skyline tuple (t3 and
// t6 dominate it); with month=Feb and the full space it IS (together with
// t2); with team=Celtics ∧ opp_team=Nets and {assists, rebounds} it IS.
func TestExample1Table1(t *testing.T) {
	tb := table1(t)
	cfg := Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	for _, alg := range allAlgorithms(t, cfg) {
		var facts []Fact
		for _, tu := range tb.Tuples() {
			facts = alg.Process(tu) // keep only t7's facts
		}
		set := factSet(facts)
		t7 := tb.Tuples()[6]

		has := func(c lattice.Constraint, m subspace.Mask) bool {
			if !c.Satisfies(t7) {
				t.Fatalf("constraint %v is not a member of C^t7", c.Vals)
			}
			return set[factKey{c.BoundMask(), m}]
		}
		d := tb.Dict()
		lookup := func(dim int, v string) int32 {
			code, ok := d.Lookup(dim, v)
			if !ok {
				t.Fatalf("value %q missing from dictionary", v)
			}
			return code
		}
		W := lattice.Wildcard
		full := subspace.Mask(0b111) // points, assists, rebounds

		noConstraint := lattice.Top(5)
		if has(noConstraint, full) {
			t.Errorf("%s: t7 reported as skyline with no constraint in full space", alg.Name())
		}
		feb := lattice.Constraint{Vals: []int32{W, lookup(1, "Feb"), W, W, W}}
		if !has(feb, full) {
			t.Errorf("%s: (month=Feb, full) missing from S_t7", alg.Name())
		}
		celticsNets := lattice.Constraint{Vals: []int32{W, W, W, lookup(3, "Celtics"), lookup(4, "Nets")}}
		ar := subspace.Mask(0b110) // assists, rebounds
		if !has(celticsNets, ar) {
			t.Errorf("%s: (team=Celtics ∧ opp=Nets, {assists,rebounds}) missing from S_t7", alg.Name())
		}
		// Constraint pruning example from §I: t7 dominated by t3 in full
		// space → (team=Celtics ∧ opp=Nets, full) must NOT be a fact.
		if has(celticsNets, full) {
			t.Errorf("%s: (team=Celtics ∧ opp=Nets, full) wrongly in S_t7", alg.Name())
		}
		// Season=1995-96 in full space: pruned via t6.
		season := lattice.Constraint{Vals: []int32{W, W, lookup(2, "1995-96"), W, W}}
		if has(season, full) {
			t.Errorf("%s: (season=1995-96, full) wrongly in S_t7", alg.Name())
		}
		if err := alg.Close(); err != nil {
			t.Errorf("%s: Close: %v", alg.Name(), err)
		}
	}
}

// TestSt7Count cross-checks the paper's §VII remark that t7 belongs to 196
// contextual skylines (d=5, m=3, no caps). Hand inclusion–exclusion over
// t7's dominators (t2 in {p},{r},{p,r} sharing {month}; t3 in the four
// point-subspaces sharing {team,opp}; t6 everywhere sharing {season})
// excludes 14+16+6−4−3−2+2 = 29 of the 32×7 = 224 pairs, i.e. |S_t7| =
// 195; the paper's 196 is a minor counting slip. All nine algorithm
// implementations agree on 195 (see TestEquivalenceRandom for the general
// cross-check).
func TestSt7Count(t *testing.T) {
	tb := table1(t)
	cfg := Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	alg, err := NewOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var facts []Fact
	for _, tu := range tb.Tuples() {
		facts = alg.Process(tu)
	}
	if len(facts) != 195 {
		t.Errorf("|S_t7| = %d, want 195 (paper says 196; see comment)", len(facts))
	}
}

// TestExample7BottomUpStore reproduces Fig. 3 of the paper: the µ(C,M)
// contents for constraints of C^t5 in subspace {m1,m2} before and after
// the arrival of t5 under BottomUp.
func TestExample7BottomUpStore(t *testing.T) {
	tb := table4(t)
	mem := store.NewMemory(tb.Schema().NumMeasures())
	alg, err := NewBottomUp(Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	ts := tb.Tuples()
	for _, tu := range ts[:4] {
		alg.Process(tu)
	}
	full := subspace.Mask(0b11)
	t5 := ts[4]
	cellIDs := func(mask lattice.Mask) []int64 {
		cell := mem.LoadKey(store.CellKey{C: lattice.KeyFromTuple(t5, mask), M: full})
		return cell.IDList()
	}
	// Fig 3a (before t5): ⊤{t4}, a1{t1,t2}, b1{t4}, c1{t4}, a1b1{t2},
	// a1c1{t2}, b1c1{t4}, a1b1c1{t2}. Mask bit order: d1=bit0, d2=bit1,
	// d3=bit2; a1 = bind d1 → 0b001.
	before := map[lattice.Mask][]int64{
		0b000: {3}, 0b001: {0, 1}, 0b010: {3}, 0b100: {3},
		0b011: {1}, 0b101: {1}, 0b110: {3}, 0b111: {1},
	}
	for mask, want := range before {
		got := cellIDs(mask)
		if !sameIDSet(got, want) {
			t.Errorf("before t5: µ(%b) = %v, want %v", mask, got, want)
		}
	}
	alg.Process(t5)
	// Fig 3b (after t5): ⊤{t4}, a1{t2,t5}, b1{t4}, c1{t4}, a1b1{t2,t5},
	// a1c1{t2,t5}, b1c1{t4}, a1b1c1{t2,t5}.
	after := map[lattice.Mask][]int64{
		0b000: {3}, 0b001: {1, 4}, 0b010: {3}, 0b100: {3},
		0b011: {1, 4}, 0b101: {1, 4}, 0b110: {3}, 0b111: {1, 4},
	}
	for mask, want := range after {
		got := cellIDs(mask)
		if !sameIDSet(got, want) {
			t.Errorf("after t5: µ(%b) = %v, want %v", mask, got, want)
		}
	}
}

// TestExample9TopDownStore reproduces Fig. 4 of the paper: TopDown's µ
// contents before and after t5 in {m1,m2}, including the re-homing of t1
// at 〈a1,*,c2〉.
func TestExample9TopDownStore(t *testing.T) {
	tb := table4(t)
	mem := store.NewMemory(tb.Schema().NumMeasures())
	alg, err := NewTopDown(Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	ts := tb.Tuples()
	for _, tu := range ts[:4] {
		alg.Process(tu)
	}
	full := subspace.Mask(0b11)
	cellIDs := func(ref *relation.Tuple, mask lattice.Mask) []int64 {
		cell := mem.LoadKey(store.CellKey{C: lattice.KeyFromTuple(ref, mask), M: full})
		return cell.IDList()
	}
	t1, t5 := ts[0], ts[4]
	// Fig 4a (before t5): within C^t5: ⊤{t4}, a1{t1,t2}, everything else
	// empty. Outside: b2{t1} (via t1), c2{t3} (via t3/t1).
	checks := []struct {
		ref  *relation.Tuple
		mask lattice.Mask
		want []int64
	}{
		{t5, 0b000, []int64{3}},
		{t5, 0b001, []int64{0, 1}},
		{t5, 0b010, nil},
		{t5, 0b100, nil},
		{t5, 0b111, nil},
		{t1, 0b010, []int64{0}},    // 〈*,b2,*〉 stores t1
		{ts[2], 0b100, []int64{2}}, // 〈*,*,c2〉 stores t3
	}
	for _, c := range checks {
		if got := cellIDs(c.ref, c.mask); !sameIDSet(got, c.want) {
			t.Errorf("before t5: µ(%v) = %v, want %v",
				lattice.FromTuple(c.ref, c.mask).Vals, got, c.want)
		}
	}
	alg.Process(t5)
	// Fig 4b (after t5): ⊤{t4}, a1{t2,t5}, b2{t1}, c2{t3}, a1c2{t1},
	// a1b2{} and all other C^t5 constraints empty.
	checksAfter := []struct {
		ref  *relation.Tuple
		mask lattice.Mask
		want []int64
	}{
		{t5, 0b000, []int64{3}},
		{t5, 0b001, []int64{1, 4}},
		{t5, 0b011, nil},
		{t5, 0b101, nil},
		{t5, 0b111, nil},
		{t1, 0b010, []int64{0}},    // b2 still stores t1
		{ts[2], 0b100, []int64{2}}, // c2 still stores t3
		{t1, 0b101, []int64{0}},    // 〈a1,*,c2〉 now stores t1 (re-homed)
		{t1, 0b011, nil},           // 〈a1,b2,*〉 must NOT store t1
	}
	for _, c := range checksAfter {
		if got := cellIDs(c.ref, c.mask); !sameIDSet(got, c.want) {
			t.Errorf("after t5: µ(%v) = %v, want %v",
				lattice.FromTuple(c.ref, c.mask).Vals, got, c.want)
		}
	}
}

func sameIDSet(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[int64]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if !set[x] {
			return false
		}
	}
	return true
}

// TestEquivalenceRandom is the central differential test: every algorithm
// must produce the identical fact set for every arrival, across parameter
// combinations (with/without d̂ and m̂ caps).
func TestEquivalenceRandom(t *testing.T) {
	cases := []struct {
		name              string
		n, d, m           int
		dimCard, measCard int
		dhat, mhat        int
	}{
		{"tiny-ties", 40, 3, 2, 2, 3, -1, -1},
		{"mid", 60, 4, 3, 3, 4, -1, -1},
		{"capped", 60, 4, 3, 3, 4, 2, 2},
		{"deep-dims", 30, 5, 2, 2, 5, 3, -1},
		{"one-measure", 40, 3, 1, 3, 4, -1, -1},
		{"wide-measures", 25, 2, 5, 2, 3, -1, 3},
		// Past 63 subspaces BottomUp walks the lattice once per 64 of them:
		// 127 (two walks), 255 (four) and, under m̂ = 3, 92 with SBottomUp's
		// full-space cells kept but unreported.
		{"m7", 30, 3, 7, 2, 3, -1, -1},
		{"m8", 25, 3, 8, 2, 3, -1, 8},
		{"m8-mhat3", 30, 3, 8, 2, 3, -1, 3},
		{"m8-dhat2", 25, 4, 8, 2, 3, 2, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			tb := randomTable(t, rng, tc.n, tc.d, tc.m, tc.dimCard, tc.measCard)
			cfg := Config{Schema: tb.Schema(), MaxBound: tc.dhat, MaxMeasure: tc.mhat}
			algs := allAlgorithms(t, cfg)
			for _, tu := range tb.Tuples() {
				ref := algs[0].Process(tu) // Oracle
				for _, alg := range algs[1:] {
					got := alg.Process(tu)
					if ok, why := sameFacts(ref, got); !ok {
						t.Fatalf("tuple %d: %s disagrees with Oracle: %s\noracle: %v\n%s: %v",
							tu.ID, alg.Name(), why,
							sortedFactStrings(ref, tu, tb.Schema(), tb.Dict()),
							alg.Name(),
							sortedFactStrings(got, tu, tb.Schema(), tb.Dict()))
					}
				}
			}
		})
	}
}

// TestEquivalenceFileStore runs the four lattice algorithms over file
// stores (the FS* variants of §VI-C) and cross-checks against the oracle.
// The BottomUp family runs one visit path over both stores, so a twin of
// each over a Memory ends with the same work and store counters.
func TestEquivalenceFileStore(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tb := randomTable(t, rng, 35, 3, 3, 2, 3)
	cfg := Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	oracle, err := NewOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := []func(Config) (Discoverer, error){
		func(c Config) (Discoverer, error) { return NewBottomUp(c) },
		func(c Config) (Discoverer, error) { return NewTopDown(c) },
		func(c Config) (Discoverer, error) { return NewSBottomUp(c) },
		func(c Config) (Discoverer, error) { return NewSTopDown(c) },
	}
	var algs []Discoverer
	for _, m := range mk {
		fs, err := store.NewFile(t.TempDir(), tb.Schema())
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Store = fs
		a, err := m(c)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	twins := map[Discoverer]Discoverer{}
	for _, i := range []int{0, 2} {
		twin, err := mk[i](cfg)
		if err != nil {
			t.Fatal(err)
		}
		twins[algs[i]] = twin
	}
	for _, tu := range tb.Tuples() {
		ref := oracle.Process(tu)
		for _, alg := range algs {
			got := alg.Process(tu)
			if ok, why := sameFacts(ref, got); !ok {
				t.Fatalf("tuple %d: FS-%s disagrees with Oracle: %s", tu.ID, alg.Name(), why)
			}
			if twin := twins[alg]; twin != nil {
				twin.Process(tu)
			}
		}
	}
	// File stores must have performed real I/O.
	for _, alg := range algs {
		if alg.StoreStats().Writes == 0 {
			t.Errorf("FS-%s performed no writes", alg.Name())
		}
	}
	for alg, twin := range twins {
		if alg.Metrics() != twin.Metrics() || alg.StoreStats() != twin.StoreStats() {
			t.Errorf("FS-%s ends with %+v and store %+v, over a Memory %+v and %+v",
				alg.Name(), alg.Metrics(), alg.StoreStats(), twin.Metrics(), twin.StoreStats())
		}
	}
}

// TestInvariants verifies Invariant 1 (BottomUp family) and Invariant 2
// (TopDown family) after every arrival of a random stream.
func TestInvariants(t *testing.T) {
	const d, m = 3, 3
	rng := rand.New(rand.NewSource(31337))
	tb := randomTable(t, rng, 30, d, m, 2, 3)
	cases := []struct {
		name       string
		mk         func(Config) (Discoverer, error)
		inv        int
		dhat, mhat int
	}{
		{"BottomUp", func(c Config) (Discoverer, error) { return NewBottomUp(c) }, 1, -1, -1},
		{"SBottomUp", func(c Config) (Discoverer, error) { return NewSBottomUp(c) }, 1, -1, -1},
		{"TopDown", func(c Config) (Discoverer, error) { return NewTopDown(c) }, 2, -1, -1},
		{"STopDown", func(c Config) (Discoverer, error) { return NewSTopDown(c) }, 2, -1, -1},
		{"BottomUp-capped", func(c Config) (Discoverer, error) { return NewBottomUp(c) }, 1, 2, 2},
		{"TopDown-capped", func(c Config) (Discoverer, error) { return NewTopDown(c) }, 2, 2, 2},
		{"SBottomUp-capped", func(c Config) (Discoverer, error) { return NewSBottomUp(c) }, 1, 2, 2},
		{"STopDown-capped", func(c Config) (Discoverer, error) { return NewSTopDown(c) }, 2, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := store.NewMemory(tb.Schema().NumMeasures())
			alg, err := tc.mk(Config{Schema: tb.Schema(), MaxBound: tc.dhat, MaxMeasure: tc.mhat, Store: mem})
			if err != nil {
				t.Fatal(err)
			}
			shared := tc.name[0] == 'S'
			var history []*relation.Tuple
			for i, tu := range tb.Tuples() {
				alg.Process(tu)
				history = append(history, tu)
				if i%7 != 6 && i != tb.Len()-1 {
					continue // checking is quadratic; sample arrivals
				}
				dhat, mhat := tc.dhat, tc.mhat
				if dhat < 0 {
					dhat = d
				}
				if mhat < 0 {
					mhat = m
				}
				if tc.inv == 1 {
					checkInvariant1(t, mem, history, d, dhat, m, mhat, shared)
				} else {
					checkInvariant2(t, mem, history, d, dhat, m, mhat, shared)
				}
			}
		})
	}
}

// TestMetricsSanity checks counter relationships the paper reports:
// sharing never increases comparisons or traversals for the top-down pair,
// and all counters advance.
func TestMetricsSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := randomTable(t, rng, 80, 4, 3, 3, 4)
	cfg := Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	td, _ := NewTopDown(cfg)
	std, _ := NewSTopDown(cfg)
	bu, _ := NewBottomUp(cfg)
	sbu, _ := NewSBottomUp(cfg)
	for _, tu := range tb.Tuples() {
		td.Process(tu)
		std.Process(tu)
		bu.Process(tu)
		sbu.Process(tu)
	}
	if std.Metrics().Comparisons > td.Metrics().Comparisons {
		t.Errorf("STopDown made more comparisons (%d) than TopDown (%d)",
			std.Metrics().Comparisons, td.Metrics().Comparisons)
	}
	if std.Metrics().Traversed > td.Metrics().Traversed {
		t.Errorf("STopDown traversed more constraints (%d) than TopDown (%d)",
			std.Metrics().Traversed, td.Metrics().Traversed)
	}
	if sbu.Metrics().Traversed > bu.Metrics().Traversed {
		t.Errorf("SBottomUp traversed more constraints (%d) than BottomUp (%d)",
			sbu.Metrics().Traversed, bu.Metrics().Traversed)
	}
	// Space: BottomUp stores at least as many tuple entries as TopDown.
	if bu.StoreStats().StoredTuples < td.StoreStats().StoredTuples {
		t.Errorf("BottomUp stored fewer tuples (%d) than TopDown (%d)",
			bu.StoreStats().StoredTuples, td.StoreStats().StoredTuples)
	}
	for _, alg := range []Discoverer{td, std, bu, sbu} {
		m := alg.Metrics()
		if m.Tuples != int64(tb.Len()) || m.Facts == 0 || m.Traversed == 0 {
			t.Errorf("%s: implausible metrics %+v", alg.Name(), m)
		}
	}
}

// TestFactsWellFormed checks basic fact hygiene on a random stream: the
// bound mask names a member of C^t, the subspace is non-empty and within
// m̂, bound(C) ≤ d̂.
func TestFactsWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tb := randomTable(t, rng, 50, 4, 3, 3, 4)
	cfg := Config{Schema: tb.Schema(), MaxBound: 2, MaxMeasure: 2}
	for _, alg := range allAlgorithms(t, cfg) {
		for _, tu := range tb.Tuples() {
			for _, f := range alg.Process(tu) {
				if f.Bound>>4 != 0 {
					t.Fatalf("%s: fact bound mask %b names no member of C^t over 4 dimensions", alg.Name(), f.Bound)
				}
				if lattice.PopCount(f.Bound) > 2 {
					t.Fatalf("%s: fact bound(C)=%d exceeds d̂=2", alg.Name(), lattice.PopCount(f.Bound))
				}
				if f.Subspace == 0 || subspace.Size(f.Subspace) > 2 {
					t.Fatalf("%s: fact subspace %b violates m̂=2", alg.Name(), f.Subspace)
				}
			}
		}
	}
}

// TestFirstTupleIsUniversalSkyline: the very first arrival is a fact for
// every (C, M) pair of its lattice.
func TestFirstTupleIsUniversalSkyline(t *testing.T) {
	tb := table1(t)
	cfg := Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	want := (1 << 5) * ((1 << 3) - 1) // 2^d constraints × (2^m − 1) subspaces
	for _, alg := range allAlgorithms(t, cfg) {
		facts := alg.Process(tb.Tuples()[0])
		if len(facts) != want {
			t.Errorf("%s: first tuple has %d facts, want %d", alg.Name(), len(facts), want)
		}
	}
}
