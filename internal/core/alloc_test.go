package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBottomUpSteadyStateAllocs pins the per-arrival allocation budget of
// BottomUp.Process on a warm store. Before the interned-id/flat-cell
// refactor the hot loop allocated a fresh key string per visited
// constraint and a Vals slice per emitted fact (thousands of objects per
// arrival at the Fig 7 warm point — 4244 allocs/op measured pre-refactor,
// 2017 after, a >50% drop). At steady state the remaining allocations are
// the occasional fact-arena block and cell regrowth: the returned facts
// slice reuses the previous arrival's storage, so fewer than one object per
// arrival remains, which AllocsPerRun's truncating average reports as 0 (a
// facts slice allocated per arrival reads 1). The race detector adds one
// object per arrival of its own, and the budget with it.
//
// The lattice queue is held to zero: every subspace pass refills it, and
// after warm-up it must do so in the storage it already has (popping it
// with queue = queue[1:] gave that storage away, one re-grown queue per
// pass).
func TestBottomUpSteadyStateAllocs(t *testing.T) {
	const (
		n        = 560
		warm     = 500
		maxAvg   = 0.0 + raceAllocs // under one object per arrival
		measured = 50               // arrivals timed by AllocsPerRun
	)
	rng := rand.New(rand.NewSource(77))
	tb := randomTable(t, rng, n, 3, 2, 2, 4)
	alg, err := NewBottomUp(Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer alg.Close()
	for i := 0; i < warm; i++ {
		alg.Process(tb.At(i))
	}
	i := warm
	queue := alg.queue[:1]
	avg := testing.AllocsPerRun(measured, func() {
		alg.Process(tb.At(i))
		i++
	})
	if i > n {
		t.Fatalf("stream exhausted: need %d tuples, have %d", i, n)
	}
	if got := alg.queue[:1]; &got[0] != &queue[0] || cap(got) != cap(queue) {
		t.Errorf("the lattice queue was reallocated during %d steady-state arrivals (capacity %d → %d)",
			i-warm, cap(queue), cap(got))
	}
	if avg > maxAvg {
		t.Errorf("BottomUp.Process steady-state allocations = %.1f/op, budget %.0f "+
			"(a per-arrival, per-visited-constraint or per-fact allocation crept back into the hot path)",
			avg, maxAvg)
	}
}

// TestEmittedFactsShareConstraintValues pins the aliasing contract of
// Fact.Constraint.Vals: the facts of one arrival over one constraint share
// a backing array, an append to one copies instead of spilling into the
// next constraint's values, and no later arrival writes a value slice that
// an earlier fact still holds.
func TestEmittedFactsShareConstraintValues(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tb := randomTable(t, rng, 120, 3, 3, 3, 4)
	for _, alg := range allAlgorithms(t, Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}) {
		name := alg.Name()
		type kept struct {
			fact Fact
			vals []int32 // copy taken at arrival time
		}
		var all []kept
		shared := false
		for _, tu := range tb.Tuples() {
			facts := alg.Process(tu)
			byMask := map[uint32][]int32{}
			for _, f := range facts {
				v := f.Constraint.Vals
				if len(v) != cap(v) {
					t.Fatalf("%s: Vals %v has spare capacity %d", name, v, cap(v)-len(v))
				}
				mask := uint32(f.Constraint.BoundMask())
				if prev, ok := byMask[mask]; ok && &prev[0] == &v[0] {
					shared = true
				}
				byMask[mask] = v
				all = append(all, kept{f, append([]int32(nil), v...)})
			}
		}
		if !shared {
			t.Errorf("%s: no two facts of an arrival shared a constraint's values", name)
		}
		for _, k := range all {
			if !slices.Equal(k.fact.Constraint.Vals, k.vals) {
				t.Fatalf("%s: a retained fact's constraint changed from %v to %v", name, k.vals, k.fact.Constraint.Vals)
			}
		}
		alg.Close()
	}
}
