package core

import (
	"testing"
	"testing/quick"

	"repro/internal/lattice"
	"repro/internal/relation"
)

// Property: satisfiesMask agrees with Constraint.Satisfies for every mask.
func TestSatisfiesMaskMatchesConstraint(t *testing.T) {
	s, err := relation.NewSchema("r",
		[]relation.DimAttr{{Name: "d1"}, {Name: "d2"}, {Name: "d3"}},
		[]relation.MeasureAttr{{Name: "m"}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(v [3]uint8) *relation.Tuple {
		tu, err := relation.NewTuple(s, 0,
			[]int32{int32(v[0] % 3), int32(v[1] % 3), int32(v[2] % 3)}, []float64{0})
		if err != nil {
			panic(err)
		}
		return tu
	}
	f := func(a, b [3]uint8, maskRaw uint8) bool {
		mask := uint32(maskRaw) & 0b111
		ta, tb := mk(a), mk(b)
		want := lattice.FromTuple(ta, mask).Satisfies(tb)
		return satisfiesMask(ta, tb, mask) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: Fact sets from STopDown are invariant under measure-value
// translation (dominance depends only on order).
func TestTranslationInvariance(t *testing.T) {
	s, err := relation.NewSchema("r",
		[]relation.DimAttr{{Name: "d1"}, {Name: "d2"}},
		[]relation.MeasureAttr{{Name: "m1"}, {Name: "m2"}})
	if err != nil {
		t.Fatal(err)
	}
	f := func(rows [8][4]int8, shift int8) bool {
		mkAlg := func() Discoverer {
			a, err := NewSTopDown(Config{Schema: s, MaxBound: -1, MaxMeasure: -1})
			if err != nil {
				panic(err)
			}
			return a
		}
		a1, a2 := mkAlg(), mkAlg()
		for i, r := range rows {
			t1, err := relation.NewTuple(s, int64(i),
				[]int32{int32(uint8(r[0]) % 2), int32(uint8(r[1]) % 2)},
				[]float64{float64(r[2] % 5), float64(r[3] % 5)})
			if err != nil {
				panic(err)
			}
			t2, err := relation.NewTuple(s, int64(i),
				[]int32{int32(uint8(r[0]) % 2), int32(uint8(r[1]) % 2)},
				[]float64{float64(r[2]%5) + float64(shift), float64(r[3]%5) + float64(shift)})
			if err != nil {
				panic(err)
			}
			f1, f2 := a1.Process(t1), a2.Process(t2)
			if ok, _ := sameFacts(f1, f2); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
