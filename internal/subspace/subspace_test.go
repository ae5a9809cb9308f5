package subspace

import (
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func measureSchema(t *testing.T, m int) *relation.Schema {
	t.Helper()
	measures := make([]relation.MeasureAttr, m)
	names := []string{"m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	for i := range measures {
		measures[i] = relation.MeasureAttr{Name: names[i], Direction: relation.LargerBetter}
	}
	s, err := relation.NewSchema("r", []relation.DimAttr{{Name: "d"}}, measures)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tup(t *testing.T, s *relation.Schema, vals ...float64) *relation.Tuple {
	t.Helper()
	tu, err := relation.NewTuple(s, 0, []int32{0}, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tu
}

func TestEnumerate(t *testing.T) {
	subs := Enumerate(3, -1)
	if len(subs) != 7 {
		t.Fatalf("Enumerate(3) = %v, want 7 non-empty subspaces", subs)
	}
	subs = Enumerate(4, 2)
	if len(subs) != 10 { // C(4,1)+C(4,2)
		t.Fatalf("Enumerate(4, m̂=2) = %d subspaces, want 10", len(subs))
	}
	for _, s := range subs {
		if Size(s) == 0 || Size(s) > 2 {
			t.Errorf("subspace %b violates cap", s)
		}
	}
	if got := Full(3); got != 0b111 {
		t.Errorf("Full(3) = %b", got)
	}
}

func TestDominates(t *testing.T) {
	s := measureSchema(t, 3)
	a := tup(t, s, 10, 5, 7)
	b := tup(t, s, 10, 4, 7)
	c := tup(t, s, 9, 9, 7)

	if !Dominates(a, b, 0b111) {
		t.Error("a should dominate b in full space (equal, better, equal)")
	}
	if Dominates(b, a, 0b111) {
		t.Error("b should not dominate a")
	}
	if Dominates(a, b, 0b101) {
		t.Error("a equals b on m1,m3: no strict attribute → no dominance")
	}
	if Dominates(b, a, 0b101) {
		t.Error("equal on a subspace dominates neither way")
	}
	if Dominates(a, c, 0b111) || Dominates(c, a, 0b111) {
		t.Error("a and c are incomparable in full space")
	}
	if !Dominates(a, c, 0b001) {
		t.Error("a dominates c in {m1}")
	}
	if !Dominates(c, a, 0b010) {
		t.Error("c dominates a in {m2}")
	}
	if Dominates(a, a, 0b111) {
		t.Error("dominance must be irreflexive")
	}
}

func TestDominatesRespectsDirection(t *testing.T) {
	s, err := relation.NewSchema("r", []relation.DimAttr{{Name: "d"}},
		[]relation.MeasureAttr{
			{Name: "points", Direction: relation.LargerBetter},
			{Name: "fouls", Direction: relation.SmallerBetter},
		})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := relation.NewTuple(s, 0, []int32{0}, []float64{20, 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := relation.NewTuple(s, 1, []int32{0}, []float64{10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !Dominates(hi, lo, 0b11) {
		t.Error("more points and fewer fouls must dominate")
	}
	if Dominates(lo, hi, 0b11) {
		t.Error("reverse dominance must fail")
	}
	if !Dominates(hi, lo, 0b10) {
		t.Error("fewer fouls must dominate in {fouls}")
	}
}

func TestCompareRelation(t *testing.T) {
	s := measureSchema(t, 4)
	a := tup(t, s, 5, 1, 3, 3)
	b := tup(t, s, 4, 2, 3, 9)
	r := Compare(a, b, 4)
	if r.Gt != 0b0001 || r.Lt != 0b1010 || r.Eq != 0b0100 {
		t.Fatalf("Compare = Gt %b Lt %b Eq %b", r.Gt, r.Lt, r.Eq)
	}
	// Proposition 4 cross-check against direct dominance for all subspaces.
	for sub := Mask(1); sub < 16; sub++ {
		if got, want := r.DominatedIn(sub), Dominates(b, a, sub); got != want {
			t.Errorf("subspace %b: DominatedIn=%v direct=%v", sub, got, want)
		}
		if got, want := r.DominatesIn(sub), Dominates(a, b, sub); got != want {
			t.Errorf("subspace %b: DominatesIn=%v direct=%v", sub, got, want)
		}
	}
}

// dominatedSubspaces lists the non-empty subspaces of m measures in which
// r's first tuple is dominated by its second, per Proposition 4.
func dominatedSubspaces(r Relation, m int) []Mask {
	var out []Mask
	for sub := Mask(1); sub <= Full(m); sub++ {
		if r.DominatedIn(sub) {
			out = append(out, sub)
		}
	}
	return out
}

func TestDominatedSubspaces(t *testing.T) {
	s := measureSchema(t, 3)
	a := tup(t, s, 1, 5, 5)
	b := tup(t, s, 2, 5, 4)
	// a < b on m1, = on m2, > on m3 → dominated in {m1}, {m1,m2}.
	if got := dominatedSubspaces(Compare(a, b, 3), 3); len(got) != 2 || got[0] != 0b001 || got[1] != 0b011 {
		t.Fatalf("a is dominated by b in %b, want {001, 011}", got)
	}
	// The symmetric case: {m3}, {m2,m3}.
	got := dominatedSubspaces(Compare(b, a, 3), 3)
	for _, m := range got {
		if !Dominates(a, b, m) {
			t.Errorf("b not dominated by a in %b", m)
		}
	}
	if len(got) != 2 {
		t.Errorf("b is dominated by a in %d subspaces, want 2", len(got))
	}
}

// Property: one Compare answers {M : Dominates(u,t,M)} for every subspace.
func TestDominatedSubspacesProperty(t *testing.T) {
	s := measureSchema(t, 4)
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 int8) bool {
		a := tupQuick(s, float64(a0%4), float64(a1%4), float64(a2%4), float64(a3%4))
		b := tupQuick(s, float64(b0%4), float64(b1%4), float64(b2%4), float64(b3%4))
		r := Compare(a, b, 4)
		for sub := Mask(1); sub < 16; sub++ {
			if r.DominatedIn(sub) != Dominates(b, a, sub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: dominance is a strict partial order (irreflexive, asymmetric,
// transitive) on random triples.
func TestDominanceStrictPartialOrder(t *testing.T) {
	s := measureSchema(t, 3)
	f := func(v [9]int8, subRaw uint8) bool {
		sub := Mask(subRaw%7) + 1
		a := tupQuick(s, float64(v[0]%3), float64(v[1]%3), float64(v[2]%3))
		b := tupQuick(s, float64(v[3]%3), float64(v[4]%3), float64(v[5]%3))
		c := tupQuick(s, float64(v[6]%3), float64(v[7]%3), float64(v[8]%3))
		if Dominates(a, a, sub) {
			return false
		}
		if Dominates(a, b, sub) && Dominates(b, a, sub) {
			return false
		}
		if Dominates(a, b, sub) && Dominates(b, c, sub) && !Dominates(a, c, sub) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func tupQuick(s *relation.Schema, vals ...float64) *relation.Tuple {
	tu, err := relation.NewTuple(s, 0, []int32{0}, vals)
	if err != nil {
		panic(err)
	}
	return tu
}

func TestNames(t *testing.T) {
	s := measureSchema(t, 3)
	got := Names(0b101, s)
	if len(got) != 2 || got[0] != "m1" || got[1] != "m3" {
		t.Errorf("Names(101) = %v", got)
	}
}
