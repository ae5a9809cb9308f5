package lattice

import (
	"testing"

	"repro/internal/relation"
)

func TestFindCtEnumeratesAllOnce(t *testing.T) {
	s := miniSchema(t)
	tu := mkTuple(t, s, 1, 2, 3)
	cs := FindCt(tu)
	if len(cs) != 8 {
		t.Fatalf("FindCt produced %d constraints, want 2^3 = 8", len(cs))
	}
	seen := map[Key]bool{}
	for _, c := range cs {
		k := c.Key()
		if seen[k] {
			t.Errorf("constraint %v generated twice", c)
		}
		seen[k] = true
		if !c.Satisfies(tu) {
			t.Errorf("constraint %v not satisfied by its tuple", c)
		}
	}
	// Alg. 1 starts at ⊤ and ends at the most specific constraint.
	if cs[0].Bound() != 0 {
		t.Errorf("first constraint = %v, want ⊤", cs[0])
	}
	if cs[len(cs)-1].Bound() != 3 {
		t.Errorf("last constraint = %v, want fully bound", cs[len(cs)-1])
	}
}

func TestCtMasksMatchesFindCt(t *testing.T) {
	s := miniSchema(t)
	tu := mkTuple(t, s, 5, 6, 7)
	cs := FindCt(tu)
	masks := CtMasks(3, -1)
	if len(cs) != len(masks) {
		t.Fatalf("lengths differ: %d vs %d", len(cs), len(masks))
	}
	for i, m := range masks {
		if !FromTuple(tu, m).Equal(cs[i]) {
			t.Errorf("position %d: mask %b gives %v, FindCt gives %v", i, m, FromTuple(tu, m), cs[i])
		}
	}
}

func TestCtMasksCap(t *testing.T) {
	for d := 1; d <= 6; d++ {
		for cap := 0; cap <= d; cap++ {
			masks := CtMasks(d, cap)
			if len(masks) != CountMasks(d, cap) {
				t.Errorf("d=%d cap=%d: %d masks, want %d", d, cap, len(masks), CountMasks(d, cap))
			}
			seen := map[Mask]bool{}
			for _, m := range masks {
				if PopCount(m) > cap {
					t.Errorf("d=%d cap=%d: mask %b exceeds cap", d, cap, m)
				}
				if seen[m] {
					t.Errorf("d=%d cap=%d: duplicate mask %b", d, cap, m)
				}
				seen[m] = true
			}
		}
	}
}

func TestCtMasksLevelOrder(t *testing.T) {
	// BFS property: bound counts never decrease along the sequence, so
	// parents always precede children.
	masks := CtMasks(5, -1)
	for i := 1; i < len(masks); i++ {
		if PopCount(masks[i]) < PopCount(masks[i-1]) {
			t.Fatalf("masks not in level order at %d: %b after %b", i, masks[i], masks[i-1])
		}
	}
}

func TestBottomMasks(t *testing.T) {
	if got := BottomMasks(4, -1); len(got) != 1 || got[0] != 0b1111 {
		t.Errorf("BottomMasks(4, no cap) = %b", got)
	}
	if got := BottomMasks(4, 4); len(got) != 1 || got[0] != 0b1111 {
		t.Errorf("BottomMasks(4, 4) = %b", got)
	}
	got := BottomMasks(4, 2)
	if len(got) != 6 { // C(4,2)
		t.Fatalf("BottomMasks(4,2) = %b, want 6 masks", got)
	}
	seen := map[Mask]bool{}
	for _, m := range got {
		if PopCount(m) != 2 {
			t.Errorf("bottom mask %b has popcount %d", m, PopCount(m))
		}
		if seen[m] {
			t.Errorf("duplicate bottom %b", m)
		}
		seen[m] = true
	}
	if got := BottomMasks(3, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("BottomMasks(3,0) = %b, want just ⊤", got)
	}
}

func TestFindCtExample(t *testing.T) {
	// Running-example check against the paper's Fig. 1: lattice of t5 =
	// 〈a1, b1, c1〉 has 8 constraints; verify the children relationships.
	s := miniSchema(t)
	tb := relation.NewTable(s)
	t5, err := tb.Append([]string{"a1", "b1", "c1"}, []float64{11, 15})
	if err != nil {
		t.Fatal(err)
	}
	cs := FindCt(t5)
	byBound := map[int]int{}
	for _, c := range cs {
		byBound[c.Bound()]++
	}
	if byBound[0] != 1 || byBound[1] != 3 || byBound[2] != 3 || byBound[3] != 1 {
		t.Errorf("lattice level sizes = %v, want 1/3/3/1", byBound)
	}
}
