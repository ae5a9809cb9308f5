package lattice

import (
	"testing"

	"repro/internal/relation"
)

func miniSchema(t *testing.T) *relation.Schema {
	t.Helper()
	s, err := relation.NewSchema("r",
		[]relation.DimAttr{{Name: "d1"}, {Name: "d2"}, {Name: "d3"}},
		[]relation.MeasureAttr{{Name: "m1"}, {Name: "m2"}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mkTuple(t *testing.T, s *relation.Schema, dims ...int32) *relation.Tuple {
	t.Helper()
	tu, err := relation.NewTuple(s, 0, dims, make([]float64, s.NumMeasures()))
	if err != nil {
		t.Fatal(err)
	}
	return tu
}

func TestTopAndFromTuple(t *testing.T) {
	s := miniSchema(t)
	tu := mkTuple(t, s, 7, 8, 9)
	top := Top(3)
	if top.Bound() != 0 || top.BoundMask() != 0 {
		t.Errorf("Top(3) = %v", top)
	}
	c := FromTuple(tu, 0b101)
	want := Constraint{Vals: []int32{7, Wildcard, 9}}
	if !c.Equal(want) {
		t.Errorf("FromTuple = %v, want %v", c, want)
	}
	if c.Bound() != 2 || c.BoundMask() != 0b101 {
		t.Errorf("Bound = %d, BoundMask = %b", c.Bound(), c.BoundMask())
	}
}

func TestSatisfies(t *testing.T) {
	s := miniSchema(t)
	tu := mkTuple(t, s, 1, 2, 3)
	other := mkTuple(t, s, 1, 5, 3)
	c := FromTuple(tu, 0b101) // d1=1 ∧ d3=3
	if !c.Satisfies(tu) {
		t.Error("tuple does not satisfy its own constraint")
	}
	if !c.Satisfies(other) {
		t.Error("other should satisfy d1=1 ∧ d3=3")
	}
	c2 := FromTuple(tu, 0b010) // d2=2
	if c2.Satisfies(other) {
		t.Error("other should not satisfy d2=2")
	}
	if !Top(3).Satisfies(other) {
		t.Error("every tuple satisfies ⊤")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	s := miniSchema(t)
	tu := mkTuple(t, s, 4, 0, 123456)
	for mask := Mask(0); mask < 8; mask++ {
		c := FromTuple(tu, mask)
		k := c.Key()
		if k2 := KeyFromTuple(tu, mask); k2 != k {
			t.Errorf("mask %b: KeyFromTuple = %x, Constraint.Key = %x", mask, k2, k)
		}
		back, err := ParseKey(k, 3)
		if err != nil {
			t.Fatalf("ParseKey: %v", err)
		}
		if !back.Equal(c) {
			t.Errorf("mask %b: round trip %v != %v", mask, back, c)
		}
	}
	if _, err := ParseKey("short", 3); err == nil {
		t.Error("ParseKey accepted wrong length")
	}
}

func TestKeysEqualAcrossTuples(t *testing.T) {
	s := miniSchema(t)
	a := mkTuple(t, s, 1, 2, 3)
	b := mkTuple(t, s, 1, 9, 3)
	// Constraints binding only shared attrs must collide.
	if KeyFromTuple(a, 0b101) != KeyFromTuple(b, 0b101) {
		t.Error("same bound values must give same key")
	}
	if KeyFromTuple(a, 0b111) == KeyFromTuple(b, 0b111) {
		t.Error("different bound values must give different keys")
	}
}

func TestMasksByLevelAndCount(t *testing.T) {
	// The masks of C^t under d̂ = 2, level by level: 1 + 4 + 6.
	wantSizes := []int{1, 4, 6}
	sizes := make([]int, len(wantSizes))
	masks := CtMasks(4, 2)
	for _, m := range masks {
		sizes[PopCount(m)]++
	}
	for k, n := range sizes {
		if n != wantSizes[k] {
			t.Errorf("level %d has %d masks, want %d", k, n, wantSizes[k])
		}
	}
	if got := CountMasks(4, 2); got != len(masks) {
		t.Errorf("CountMasks(4,2) = %d, want %d", got, len(masks))
	}
	if got := CountMasks(5, -1); got != 32 {
		t.Errorf("CountMasks(5,-1) = %d, want 32", got)
	}
	if got := CountMasks(5, 7); got != 32 {
		t.Errorf("CountMasks(5,7) = %d, want 32", got)
	}
}

func TestConstraintFormat(t *testing.T) {
	s := miniSchema(t)
	tb := relation.NewTable(s)
	tu, err := tb.Append([]string{"a1", "b1", "c1"}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c := FromTuple(tu, 0b011)
	got := c.Format(s, tb.Dict())
	if got != "d1=a1 ∧ d2=b1" {
		t.Errorf("Format = %q", got)
	}
	if got := Top(3).Format(s, tb.Dict()); got != "⊤" {
		t.Errorf("Format(⊤) = %q", got)
	}
}
