package core

import (
	"math/rand"
	"testing"
)

// TestBottomUpSteadyStateAllocs pins the per-arrival allocation budget of
// BottomUp.Process on a warm store. Before the interned-id/flat-cell
// refactor the hot loop allocated a fresh key string per visited
// constraint and a Vals slice per emitted fact (thousands of objects per
// arrival at the Fig 7 warm point — 4244 allocs/op measured pre-refactor,
// 2017 after, a >50% drop). At steady state the remaining allocations are
// the occasional cell regrowth: the returned facts slice reuses the
// previous arrival's storage, so fewer than one object per arrival
// remains, which AllocsPerRun's truncating average reports as 0 (a facts
// slice allocated per arrival reads 1). The race detector adds one
// object per arrival of its own, and the budget with it.
//
// The lattice queue is held to zero: every walk refills it, and after
// warm-up it must do so in the storage it already has (popping it with
// queue = queue[1:] gave that storage away, one re-grown queue per walk).
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
