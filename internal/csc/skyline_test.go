package csc

import (
	"math/rand"
	"testing"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/subspace"
)

// The reference (non-incremental) skyline computation CSC is checked
// against: block-nested-loop skylines, contextual skylines λ_M(σ_C(R)) and
// the minimal subspaces the compressed skycube stores a tuple in, with the
// tests that pin the oracle itself on the paper's Table IV.

// computeSkyline returns the skyline tuples of ts in measure subspace m using a
// block-nested-loop scan with in-window elimination. The result preserves
// first-arrival order of the survivors.
func computeSkyline(ts []*relation.Tuple, m subspace.Mask) []*relation.Tuple {
	var window []*relation.Tuple
	for _, t := range ts {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if dominated {
				keep = append(keep, w)
				continue
			}
			if subspace.Dominates(w, t, m) {
				dominated = true
				keep = append(keep, w)
				continue
			}
			if !subspace.Dominates(t, w, m) {
				keep = append(keep, w)
			}
		}
		window = keep
		if !dominated {
			window = append(window, t)
		}
	}
	return window
}

// contextual returns λ_M(σ_C(R)): the skyline, in subspace m, of the
// tuples of ts satisfying constraint c.
func contextual(ts []*relation.Tuple, c lattice.Constraint, m subspace.Mask) []*relation.Tuple {
	var ctx []*relation.Tuple
	for _, t := range ts {
		if c.Satisfies(t) {
			ctx = append(ctx, t)
		}
	}
	return computeSkyline(ctx, m)
}

// isSkyline reports whether t belongs to the skyline of ts in subspace m,
// assuming t itself is among ts (duplicate measure vectors do not dominate
// each other, so membership of t in ts is harmless either way).
func isSkyline(t *relation.Tuple, ts []*relation.Tuple, m subspace.Mask) bool {
	for _, u := range ts {
		if u != t && subspace.Dominates(u, t, m) {
			return false
		}
	}
	return true
}

// minimalSubspaces returns the minimal (by set inclusion) measure subspaces
// in which t is a skyline tuple of ts, considering subspaces up to maxSize
// attributes. These are the "minimum subspaces" in which the compressed
// skycube (Xia & Zhang) stores a tuple.
func minimalSubspaces(t *relation.Tuple, ts []*relation.Tuple, m int, maxSize int) []subspace.Mask {
	var sky []subspace.Mask
	for _, sub := range subspace.Enumerate(m, maxSize) {
		if isSkyline(t, ts, sub) {
			sky = append(sky, sub)
		}
	}
	return filterMinimal(sky)
}

// filterMinimal keeps only the masks that have no proper submask in the
// input set.
func filterMinimal(masks []subspace.Mask) []subspace.Mask {
	var out []subspace.Mask
	for _, a := range masks {
		minimal := true
		for _, b := range masks {
			if b != a && b&^a == 0 { // b ⊂ a
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, a)
		}
	}
	return out
}

// paperTable builds Table IV of the paper: 5 tuples over d1..d3, m1, m2.
func paperTable(t *testing.T) *relation.Table {
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
		{[]string{"a1", "b2", "c2"}, []float64{10, 15}}, // t1
		{[]string{"a1", "b1", "c1"}, []float64{15, 10}}, // t2
		{[]string{"a2", "b1", "c2"}, []float64{17, 17}}, // t3
		{[]string{"a2", "b1", "c1"}, []float64{20, 20}}, // t4
		{[]string{"a1", "b1", "c1"}, []float64{11, 15}}, // t5
	}
	for _, r := range rows {
		if _, err := tb.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func ids(ts []*relation.Tuple) map[int64]bool {
	m := make(map[int64]bool, len(ts))
	for _, t := range ts {
		m[t.ID] = true
	}
	return m
}

func TestComputePaperExample3(t *testing.T) {
	tb := paperTable(t)
	// Example 3: λ_M(R) = {t4} in the full space.
	sky := computeSkyline(tb.Tuples(), 0b11)
	got := ids(sky)
	if len(got) != 1 || !got[3] {
		t.Errorf("full-space skyline IDs = %v, want {t4}", got)
	}
}

func TestContextualPaperExample3(t *testing.T) {
	tb := paperTable(t)
	// C = 〈a1, b1, c1〉 → σ_C(R) = {t2, t5}; λ = {t2, t5} in full space,
	// {t2} in {m1}.
	c := lattice.Constraint{Vals: []int32{0, 0, 0}} // codes follow first-seen: a1=0? verify
	// a1 was seen first for d1, b2 first for d2, c2 first for d3.
	d1a1, _ := tb.Dict().Lookup(0, "a1")
	d2b1, _ := tb.Dict().Lookup(1, "b1")
	d3c1, _ := tb.Dict().Lookup(2, "c1")
	c = lattice.Constraint{Vals: []int32{d1a1, d2b1, d3c1}}

	sky := contextual(tb.Tuples(), c, 0b11)
	got := ids(sky)
	if len(got) != 2 || !got[1] || !got[4] {
		t.Errorf("contextual skyline = %v, want {t2, t5}", got)
	}
	sky = contextual(tb.Tuples(), c, 0b01)
	got = ids(sky)
	if len(got) != 1 || !got[1] {
		t.Errorf("contextual skyline in {m1} = %v, want {t2}", got)
	}
}

func TestIsSkyline(t *testing.T) {
	tb := paperTable(t)
	ts := tb.Tuples()
	if !isSkyline(ts[3], ts, 0b11) {
		t.Error("t4 must be a skyline tuple")
	}
	if isSkyline(ts[4], ts, 0b11) {
		t.Error("t5 is dominated by t4 in full space")
	}
}

func TestSkycubeConsistency(t *testing.T) {
	tb := paperTable(t)
	subs := subspace.Enumerate(2, -1)
	if len(subs) != 3 {
		t.Fatalf("skycube has %d subspaces, want 3", len(subs))
	}
	for _, sub := range subs {
		sky := computeSkyline(tb.Tuples(), sub)
		for _, u := range tb.Tuples() {
			want := isSkyline(u, tb.Tuples(), sub)
			got := ids(sky)[u.ID]
			if got != want {
				t.Errorf("subspace %b tuple t%d: in cube %v, isSkyline %v", sub, u.ID+1, got, want)
			}
		}
	}
}

func TestMinimalSubspaces(t *testing.T) {
	tb := paperTable(t)
	ts := tb.Tuples()
	// t4 dominates everything: skyline in every subspace; minimal = {m1},{m2}.
	min4 := minimalSubspaces(ts[3], ts, 2, -1)
	if len(min4) != 2 {
		t.Fatalf("minimal subspaces of t4 = %b, want {m1},{m2}", min4)
	}
	// t2 (15,10): in {m1} dominated by t3(17),t4(20) → not skyline. In
	// {m2} dominated. In {m1,m2}: t3,t4 both better on both → dominated.
	min2 := minimalSubspaces(ts[1], ts, 2, -1)
	if len(min2) != 0 {
		t.Errorf("minimal subspaces of t2 = %b, want none", min2)
	}
}

func TestFilterMinimal(t *testing.T) {
	in := []subspace.Mask{0b01, 0b11, 0b10}
	out := filterMinimal(in)
	if len(out) != 2 {
		t.Fatalf("filterMinimal = %b", out)
	}
	for _, m := range out {
		if m == 0b11 {
			t.Error("0b11 should be filtered (superset of 0b01)")
		}
	}
	if got := filterMinimal(nil); len(got) != 0 {
		t.Errorf("filterMinimal(nil) = %v", got)
	}
}

func TestComputeEmptyAndSingle(t *testing.T) {
	if got := computeSkyline(nil, 0b1); len(got) != 0 {
		t.Errorf("skyline of empty set = %v", got)
	}
	tb := paperTable(t)
	one := tb.Tuples()[:1]
	if got := computeSkyline(one, 0b11); len(got) != 1 {
		t.Errorf("skyline of singleton = %v", got)
	}
}

func TestComputeDuplicates(t *testing.T) {
	// Tuples with identical measure vectors do not dominate each other;
	// both stay in the skyline (Def. 2 requires strict betterness).
	s, err := relation.NewSchema("r",
		[]relation.DimAttr{{Name: "d"}},
		[]relation.MeasureAttr{{Name: "m1"}, {Name: "m2"}})
	if err != nil {
		t.Fatal(err)
	}
	tb := relation.NewTable(s)
	tb.Append([]string{"x"}, []float64{5, 5})
	tb.Append([]string{"y"}, []float64{5, 5})
	sky := computeSkyline(tb.Tuples(), 0b11)
	if len(sky) != 2 {
		t.Errorf("duplicate tuples: skyline size = %d, want 2", len(sky))
	}
}

// Randomised cross-check: block-nested-loop skyline vs quadratic isSkyline.
func TestComputeRandomCrossCheck(t *testing.T) {
	s, err := relation.NewSchema("r",
		[]relation.DimAttr{{Name: "d"}},
		[]relation.MeasureAttr{{Name: "m1"}, {Name: "m2"}, {Name: "m3"}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		tb := relation.NewTable(s)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			tb.AppendEncoded([]int32{0},
				[]float64{float64(rng.Intn(8)), float64(rng.Intn(8)), float64(rng.Intn(8))})
		}
		for sub := subspace.Mask(1); sub < 8; sub++ {
			sky := ids(computeSkyline(tb.Tuples(), sub))
			for _, u := range tb.Tuples() {
				if sky[u.ID] != isSkyline(u, tb.Tuples(), sub) {
					t.Fatalf("trial %d subspace %b tuple %d: mismatch", trial, sub, u.ID)
				}
			}
		}
	}
}
