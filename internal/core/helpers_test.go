package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// factKey is a canonical representation for set comparison of one
// arrival's facts, whose bound masks name their constraints.
type factKey struct {
	c lattice.Mask
	m subspace.Mask
}

func factSet(fs []Fact) map[factKey]bool {
	out := make(map[factKey]bool, len(fs))
	for _, f := range fs {
		out[factKey{f.Bound, f.Subspace}] = true
	}
	return out
}

func sameFacts(a, b []Fact) (bool, string) {
	sa, sb := factSet(a), factSet(b)
	if len(sa) != len(a) || len(sb) != len(b) {
		return false, "duplicate facts emitted"
	}
	for k := range sa {
		if !sb[k] {
			return false, fmt.Sprintf("fact %b/%b missing from second set", k.c, k.m)
		}
	}
	for k := range sb {
		if !sa[k] {
			return false, fmt.Sprintf("fact %b/%b missing from first set", k.c, k.m)
		}
	}
	return true, ""
}

// table1 builds the paper's Table I mini-world of basketball gamelogs.
func table1(t *testing.T) *relation.Table {
	t.Helper()
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
		{[]string{"Bogues", "Feb", "1991-92", "Hornets", "Hawks"}, []float64{4, 12, 5}},        // t1
		{[]string{"Seikaly", "Feb", "1991-92", "Heat", "Hawks"}, []float64{24, 5, 15}},         // t2
		{[]string{"Sherman", "Dec", "1993-94", "Celtics", "Nets"}, []float64{13, 13, 5}},       // t3
		{[]string{"Wesley", "Feb", "1994-95", "Celtics", "Nets"}, []float64{2, 5, 2}},          // t4
		{[]string{"Wesley", "Feb", "1994-95", "Celtics", "Timberwolves"}, []float64{3, 5, 3}},  // t5
		{[]string{"Strickland", "Jan", "1995-96", "Blazers", "Celtics"}, []float64{27, 18, 8}}, // t6
		{[]string{"Wesley", "Feb", "1995-96", "Celtics", "Nets"}, []float64{12, 13, 5}},        // t7
	}
	for _, r := range rows {
		if _, err := tb.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// table4 builds the paper's running example (Table IV).
func table4(t *testing.T) *relation.Table {
	t.Helper()
	s, err := relation.NewSchema("r",
		[]relation.DimAttr{{Name: "d1"}, {Name: "d2"}, {Name: "d3"}},
		[]relation.MeasureAttr{{Name: "m1"}, {Name: "m2"}})
	if err != nil {
		t.Fatal(err)
	}
	tb := relation.NewTable(s)
	rows := []struct {
		d []string
		m []float64
	}{
		{[]string{"a1", "b2", "c2"}, []float64{10, 15}},
		{[]string{"a1", "b1", "c1"}, []float64{15, 10}},
		{[]string{"a2", "b1", "c2"}, []float64{17, 17}},
		{[]string{"a2", "b1", "c1"}, []float64{20, 20}},
		{[]string{"a1", "b1", "c1"}, []float64{11, 15}},
	}
	for _, r := range rows {
		if _, err := tb.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// allAlgorithms builds one instance of every discoverer over the config.
func allAlgorithms(t *testing.T, cfg Config) []Discoverer {
	t.Helper()
	type ctor struct {
		name string
		mk   func(Config) (Discoverer, error)
	}
	ctors := []ctor{
		{"Oracle", func(c Config) (Discoverer, error) { return NewOracle(c) }},
		{"BruteForce", func(c Config) (Discoverer, error) { return NewBruteForce(c) }},
		{"BaselineSeq", func(c Config) (Discoverer, error) { return NewBaselineSeq(c) }},
		{"BaselineIdx", func(c Config) (Discoverer, error) { return NewBaselineIdx(c) }},
		{"C-CSC", func(c Config) (Discoverer, error) { return NewCCSC(c) }},
		{"BottomUp", func(c Config) (Discoverer, error) { return NewBottomUp(c) }},
		{"TopDown", func(c Config) (Discoverer, error) { return NewTopDown(c) }},
		{"SBottomUp", func(c Config) (Discoverer, error) { return NewSBottomUp(c) }},
		{"STopDown", func(c Config) (Discoverer, error) { return NewSTopDown(c) }},
	}
	var out []Discoverer
	for _, c := range ctors {
		cfg := cfg
		cfg.Store = nil // fresh store per algorithm
		d, err := c.mk(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, d)
	}
	return out
}

// checkInvariant1 verifies BottomUp's Invariant 1 against the oracle: for
// every tuple of the history, every constraint mask, every subspace, the
// tuple is stored in µ(C,M) iff it is in λ_M(σ_C(R)).
func checkInvariant1(t *testing.T, mem *store.Memory, history []*relation.Tuple, d, dhat, m, mhat int, includeFull bool) {
	t.Helper()
	subs := subspace.Enumerate(m, mhat)
	if includeFull && mhat < m {
		subs = append(subs, subspace.Full(m))
	}
	for _, tu := range history {
		for _, c := range lattice.CtMasks(d, dhat) {
			cons := lattice.FromTuple(tu, c)
			key := cons.Key()
			for _, sub := range subs {
				cell := mem.LoadKey(store.CellKey{C: key, M: sub})
				stored := cell.ContainsID(tu.ID)
				want := inContextualSkyline(tu, history, cons, sub)
				if stored != want {
					t.Fatalf("Invariant 1 violated: tuple %d at (%v, %b): stored=%v skyline=%v",
						tu.ID, cons.Vals, sub, stored, want)
				}
			}
		}
	}
}

// checkInvariant2 verifies TopDown's Invariant 2: stored iff maximal
// skyline constraint.
func checkInvariant2(t *testing.T, mem *store.Memory, history []*relation.Tuple, d, dhat, m, mhat int, includeFull bool) {
	t.Helper()
	subs := subspace.Enumerate(m, mhat)
	if includeFull && mhat < m {
		subs = append(subs, subspace.Full(m))
	}
	for _, tu := range history {
		for _, sub := range subs {
			// Compute the skyline-constraint mask set of tu.
			masks := lattice.CtMasks(d, dhat)
			sky := make(map[lattice.Mask]bool, len(masks))
			for _, c := range masks {
				cons := lattice.FromTuple(tu, c)
				sky[c] = inContextualSkyline(tu, history, cons, sub)
			}
			for _, c := range masks {
				cons := lattice.FromTuple(tu, c)
				cell := mem.LoadKey(store.CellKey{C: cons.Key(), M: sub})
				stored := cell.ContainsID(tu.ID)
				// Maximal: skyline here and no strict submask (ancestor)
				// is a skyline constraint.
				maximal := sky[c]
				if maximal {
					for s := (c - 1) & c; ; s = (s - 1) & c {
						if s != c && sky[s] {
							maximal = false
							break
						}
						if s == 0 {
							break
						}
					}
					if c == 0 {
						maximal = sky[0]
					}
				}
				if stored != maximal {
					t.Fatalf("Invariant 2 violated: tuple %d at (%v, %b): stored=%v maximal=%v (skyline=%v)",
						tu.ID, cons.Vals, sub, stored, maximal, sky[c])
				}
			}
		}
	}
}

func inContextualSkyline(tu *relation.Tuple, history []*relation.Tuple, c lattice.Constraint, sub subspace.Mask) bool {
	if !c.Satisfies(tu) {
		return false
	}
	for _, u := range history {
		if u.ID != tu.ID && c.Satisfies(u) && subspace.Dominates(u, tu, sub) {
			return false
		}
	}
	return true
}

// randomTable generates a stream with heavy dimension-value collisions and
// measure ties (the hard cases for lattice pruning and dominance).
func randomTable(t *testing.T, rng *rand.Rand, n, d, m, dimCard, measCard int) *relation.Table {
	t.Helper()
	dims := make([]relation.DimAttr, d)
	for i := range dims {
		dims[i] = relation.DimAttr{Name: fmt.Sprintf("d%d", i+1)}
	}
	measures := make([]relation.MeasureAttr, m)
	for i := range measures {
		dir := relation.LargerBetter
		if i%3 == 2 {
			dir = relation.SmallerBetter // exercise orientation
		}
		measures[i] = relation.MeasureAttr{Name: fmt.Sprintf("m%d", i+1), Direction: dir}
	}
	s, err := relation.NewSchema("rand", dims, measures)
	if err != nil {
		t.Fatal(err)
	}
	tb := relation.NewTable(s)
	for i := 0; i < n; i++ {
		dv := make([]int32, d)
		for j := range dv {
			dv[j] = int32(rng.Intn(dimCard))
		}
		mv := make([]float64, m)
		for j := range mv {
			mv[j] = float64(rng.Intn(measCard))
		}
		if _, err := tb.AppendEncoded(dv, mv); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// removeTuple drops u (by identity) from a tuple slice, order-preserving.
func removeTuple(ts []*relation.Tuple, u *relation.Tuple) []*relation.Tuple {
	for i, w := range ts {
		if w == u {
			return append(ts[:i], ts[i+1:]...)
		}
	}
	return ts
}

func sortedFactStrings(fs []Fact, tu *relation.Tuple, s *relation.Schema, dict *relation.Dict) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, fmt.Sprintf("%s | {%v}", lattice.FromTuple(tu, f.Bound).Format(s, dict), subspace.Names(f.Subspace, s)))
	}
	sort.Strings(out)
	return out
}
