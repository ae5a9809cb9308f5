package core

import (
	"math/rand"
	"testing"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/subspace"
)

func TestSkybandValidation(t *testing.T) {
	tb := table4(t)
	if _, err := NewSkyband(Config{Schema: tb.Schema()}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	sb, err := NewSkyband(Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Name() != "Skyband(k=3)" {
		t.Errorf("Name = %s", sb.Name())
	}
}

// k = 1 must coincide with the skyline problem (Oracle).
func TestSkybandK1EqualsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tb := randomTable(t, rng, 50, 3, 3, 2, 3)
	cfg := Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	sb, err := NewSkyband(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tb.Tuples() {
		want := oracle.Process(tu)
		got := sb.Process(tu)
		if ok, why := sameFacts(want, got); !ok {
			t.Fatalf("tuple %d: %s", tu.ID, why)
		}
	}
}

// Facts must be monotone in k, and k ≥ n covers the whole pair space.
func TestSkybandMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tb := randomTable(t, rng, 40, 3, 2, 2, 3)
	cfg := Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	var bands []*Skyband
	for _, k := range []int{1, 2, 5, 1000} {
		sb, err := NewSkyband(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		bands = append(bands, sb)
	}
	allPairs := (1 << 3) * ((1 << 2) - 1)
	for _, tu := range tb.Tuples() {
		var prev map[factKey]bool
		for i, sb := range bands {
			facts := sb.Process(tu)
			cur := factSet(facts)
			if prev != nil {
				for k := range prev {
					if !cur[k] {
						t.Fatalf("tuple %d: fact lost when k grew (band %d)", tu.ID, i)
					}
				}
			}
			prev = cur
			if sb.k == 1000 && len(facts) != allPairs {
				t.Fatalf("tuple %d: k=1000 yields %d facts, want all %d", tu.ID, len(facts), allPairs)
			}
		}
	}
}

// Brute-force cross-check of dominator counting.
func TestSkybandCountsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tb := randomTable(t, rng, 35, 3, 2, 2, 3)
	cfg := Config{Schema: tb.Schema(), MaxBound: 2, MaxMeasure: -1}
	const k = 2
	sb, err := NewSkyband(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	var history []*relation.Tuple
	for _, tu := range tb.Tuples() {
		got := factSet(sb.Process(tu))
		for _, c := range lattice.CtMasks(3, 2) {
			cons := lattice.FromTuple(tu, c)
			for _, sub := range subspace.Enumerate(2, -1) {
				dominators := 0
				for _, u := range history {
					if cons.Satisfies(u) && subspace.Dominates(u, tu, sub) {
						dominators++
					}
				}
				want := dominators < k
				if got[factKey{cons.Key(), sub}] != want {
					t.Fatalf("tuple %d (%v, %b): skyband=%v, brute=%v (dominators=%d)",
						tu.ID, cons.Vals, sub, got[factKey{cons.Key(), sub}], want, dominators)
				}
			}
		}
		history = append(history, tu)
	}
}
