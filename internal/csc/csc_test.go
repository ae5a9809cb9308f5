package csc

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/subspace"
)

func cscSchema(t *testing.T, m int) *relation.Schema {
	t.Helper()
	names := []string{"m1", "m2", "m3", "m4"}
	ms := make([]relation.MeasureAttr, m)
	for i := range ms {
		ms[i] = relation.MeasureAttr{Name: names[i], Direction: relation.LargerBetter}
	}
	s, err := relation.NewSchema("r", []relation.DimAttr{{Name: "d"}}, ms)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func idsOf(ts []*relation.Tuple) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []*relation.Tuple) bool {
	x, y := idsOf(a), idsOf(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func TestInsertReportsSkylineSubspaces(t *testing.T) {
	s := cscSchema(t, 2)
	c := New(2, -1)
	t1, _ := relation.NewTuple(s, 0, []int32{0}, []float64{10, 15})
	t2, _ := relation.NewTuple(s, 1, []int32{0}, []float64{15, 10})
	t3, _ := relation.NewTuple(s, 2, []int32{0}, []float64{20, 20})

	subs := c.Insert(t1)
	if len(subs) != 3 {
		t.Errorf("first tuple skyline subspaces = %b, want all 3", subs)
	}
	subs = c.Insert(t2)
	// t2 (15,10): beats t1 on m1, loses on m2 → skyline in {m1}, {m1,m2}.
	want := map[subspace.Mask]bool{0b01: true, 0b11: true}
	if len(subs) != 2 || !want[subs[0]] || !want[subs[1]] {
		t.Errorf("t2 skyline subspaces = %b, want {m1} and full", subs)
	}
	subs = c.Insert(t3)
	if len(subs) != 3 {
		t.Errorf("t3 dominates all: subspaces = %b, want all 3", subs)
	}
	// After t3, t1 and t2 are dominated everywhere: stored nowhere.
	for m, cell := range c.Cells() {
		for _, u := range cell {
			if u.ID != 2 {
				t.Errorf("cell %b still stores t%d", m, u.ID+1)
			}
		}
	}
}

// Invariant: after any insertion sequence, cell(M) is exactly the set of
// tuples whose minimal skyline subspaces include M, and Query(M) equals the
// reference skyline.
func TestCSCInvariantRandom(t *testing.T) {
	const m = 3
	s := cscSchema(t, m)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		c := New(m, -1)
		var all []*relation.Tuple
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			tu, _ := relation.NewTuple(s, int64(i), []int32{0},
				[]float64{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6))})
			got := c.Insert(tu)
			all = append(all, tu)

			// Inserted tuple's reported subspaces must match the oracle.
			var want []subspace.Mask
			for _, sub := range subspace.Enumerate(m, -1) {
				if isSkyline(tu, all, sub) {
					want = append(want, sub)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d tuple %d: reported %b, want %b", trial, i, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("trial %d tuple %d: reported %b, want %b", trial, i, got, want)
				}
			}
		}
		// Cell invariant.
		for _, sub := range subspace.Enumerate(m, -1) {
			var wantCell []*relation.Tuple
			for _, u := range all {
				mins := minimalSubspaces(u, all, m, -1)
				for _, mm := range mins {
					if mm == sub {
						wantCell = append(wantCell, u)
						break
					}
				}
			}
			if !sameIDs(c.Cells()[sub], wantCell) {
				t.Fatalf("trial %d cell %b: got %v, want %v",
					trial, sub, idsOf(c.Cells()[sub]), idsOf(wantCell))
			}
			// Query correctness.
			if !sameIDs(c.Query(sub), computeSkyline(all, sub)) {
				t.Fatalf("trial %d query %b: got %v, want %v",
					trial, sub, idsOf(c.Query(sub)), idsOf(computeSkyline(all, sub)))
			}
		}
	}
}

func TestCSCRespectsMaxSize(t *testing.T) {
	s := cscSchema(t, 3)
	c := New(3, 2)
	t1, _ := relation.NewTuple(s, 0, []int32{0}, []float64{1, 2, 3})
	subs := c.Insert(t1)
	for _, m := range subs {
		if subspace.Size(m) > 2 {
			t.Errorf("reported subspace %b exceeds m̂=2", m)
		}
	}
	if len(subs) != 6 { // C(3,1)+C(3,2)
		t.Errorf("reported %d subspaces, want 6", len(subs))
	}
}

func TestCSCStoredCounter(t *testing.T) {
	s := cscSchema(t, 2)
	c := New(2, -1)
	t1, _ := relation.NewTuple(s, 0, []int32{0}, []float64{1, 1})
	c.Insert(t1)
	if c.StoredTuples() != 1 { // min subspace of a lone tuple: {m1},{m2} minimal... both singletons
		// A lone tuple is skyline everywhere; minimal subspaces are the two
		// singletons → stored twice.
		t.Logf("stored = %d", c.StoredTuples())
	}
	got := c.StoredTuples()
	if got != 2 {
		t.Errorf("StoredTuples = %d, want 2 (both singleton subspaces)", got)
	}
	t2, _ := relation.NewTuple(s, 1, []int32{0}, []float64{2, 2})
	c.Insert(t2)
	if c.StoredTuples() != 2 {
		t.Errorf("after dominating insert: StoredTuples = %d, want 2", c.StoredTuples())
	}
	if c.Comparisons() == 0 {
		t.Error("comparison counter never advanced")
	}
}

func TestCSCDuplicateMeasures(t *testing.T) {
	s := cscSchema(t, 2)
	c := New(2, -1)
	t1, _ := relation.NewTuple(s, 0, []int32{0}, []float64{5, 5})
	t2, _ := relation.NewTuple(s, 1, []int32{0}, []float64{5, 5})
	c.Insert(t1)
	subs := c.Insert(t2)
	if len(subs) != 3 {
		t.Errorf("equal tuples do not dominate: t2 subspaces = %b, want all 3", subs)
	}
	if got := c.Query(0b11); len(got) != 2 {
		t.Errorf("both duplicates must be in the skyline, got %v", idsOf(got))
	}
}
