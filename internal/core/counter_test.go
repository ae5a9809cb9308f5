package core

import (
	"testing"

	"repro/internal/lattice"
	"repro/internal/store"
)

// countOf is |σ_C(R)| as cc counts it, found by C's key; 0 for a
// constraint it never saw.
func countOf(cc *ContextCounter, c lattice.Constraint) int64 {
	if id, ok := cc.in.Lookup(c.Key()); ok {
		return cc.SizeOf(id)
	}
	return 0
}

func TestContextCounter(t *testing.T) {
	tb := table4(t)
	cc := NewContextCounter(3, -1)
	for _, tu := range tb.Tuples() {
		cc.Observe(tu)
	}
	// ContextSize answers by mask for the last arrival, t5 = (a1,b1,c1): ⊤
	// counts everything, 〈a1,*,*〉 holds t1, t2, t5 and 〈a1,b1,c1〉 t2, t5.
	t5 := tb.Tuples()[4]
	for mask, want := range map[lattice.Mask]int64{0: 5, 0b001: 3, 0b111: 2} {
		if got := cc.ContextSize(mask); got != want {
			t.Errorf("ContextSize(%03b) = %d, want %d", mask, got, want)
		}
	}
	for mask := lattice.Mask(0); mask < 8; mask++ {
		if got, want := cc.ContextSize(mask), countOf(cc, lattice.FromTuple(t5, mask)); got != want {
			t.Errorf("ContextSize(%03b) = %d, the count under t5's constraint is %d", mask, got, want)
		}
	}
	full := lattice.FromTuple(t5, 0b111)
	// Never-seen constraints count zero.
	if got := countOf(cc, lattice.Constraint{Vals: []int32{99, lattice.Wildcard, lattice.Wildcard}}); got != 0 {
		t.Errorf("unknown context size = %d", got)
	}

	// Unobserve reverses exactly.
	cc.Unobserve(t5)
	if got := countOf(cc, full); got != 1 {
		t.Errorf("after unobserve |σ_abc| = %d, want 1", got)
	}
	if got := countOf(cc, lattice.Top(3)); got != 4 {
		t.Errorf("after unobserve |σ_⊤| = %d, want 4", got)
	}

	// Each → Set round trip (engine persistence) onto a second counter over
	// the same key table: the ids come in order, and the restored counts
	// must be the live kind, which further arrivals and deletions move.
	cc2 := NewContextCounterOver(cc.in, 3, -1)
	last := -1
	cc.Each(func(id store.ConstraintID, n int64) {
		if int(id) <= last || n <= 0 {
			t.Errorf("Each visited constraint %d (count %d) after %d", id, n, last)
		}
		last = int(id)
		cc2.Set(id, n)
	})
	if cc2.Len() != cc.Len() {
		t.Errorf("restored counter has %d counts, want %d", cc2.Len(), cc.Len())
	}
	for id := 0; id < cc.in.Len(); id++ {
		if got, want := cc2.SizeOf(store.ConstraintID(id)), cc.SizeOf(store.ConstraintID(id)); got != want {
			t.Errorf("restored count of constraint %d = %d, want %d", id, got, want)
		}
	}
	cc2.Observe(t5)
	if got := cc2.ContextSize(0b111); got != 2 {
		t.Errorf("restored counter after observe |σ_abc| = %d, want 2", got)
	}
	if got := countOf(cc, full); got != 1 {
		t.Errorf("a second counter over the table moved the first: |σ_abc| = %d, want 1", got)
	}
}

func TestContextCounterRespectsCap(t *testing.T) {
	tb := table4(t)
	cc := NewContextCounter(3, 1)
	for _, tu := range tb.Tuples() {
		cc.Observe(tu)
	}
	// The last arrival is t5 = (a1,b1,c1).
	if got := cc.ContextSize(0b011); got != 0 {
		t.Errorf("bound-2 constraint counted %d under d̂=1", got)
	}
	if got := countOf(cc, lattice.FromTuple(tb.Tuples()[4], 0b011)); got != 0 {
		t.Errorf("bound-2 constraint counted %d under d̂=1", got)
	}
	if got := cc.ContextSize(0b001); got != 3 {
		t.Errorf("bound-1 constraint = %d, want 3", got)
	}
}

// TestContextCounterProbesAllocateNothing: once the key table knows a
// tuple's constraints, observing, unobserving and sizing them builds every
// key in stack scratch; retracting what was never counted assigns no id; and
// Len follows the constraints that have a count, not every one ever seen.
func TestContextCounterProbesAllocateNothing(t *testing.T) {
	tb := table4(t)
	cc := NewContextCounter(3, -1)
	cc.Unobserve(tb.Tuples()[0])
	if cc.in.Len() != 0 || cc.Len() != 0 {
		t.Errorf("unobserving an unseen tuple interned %d constraints and left %d counts", cc.in.Len(), cc.Len())
	}
	for _, tu := range tb.Tuples() {
		cc.Observe(tu)
	}
	tu := tb.Tuples()[4]
	if avg := testing.AllocsPerRun(100, func() {
		cc.Observe(tu)
		cc.ContextSize(0b111)
		cc.Unobserve(tu)
	}); avg != 0 {
		t.Errorf("Observe+ContextSize+Unobserve of seen constraints = %.0f allocs, want 0", avg)
	}
	for _, tu := range tb.Tuples() {
		cc.Unobserve(tu)
	}
	cc.Each(func(id store.ConstraintID, n int64) {
		t.Errorf("constraint %d kept count %d after every tuple was unobserved", id, n)
	})
	if cc.Len() != 0 {
		t.Errorf("Len of an emptied counter = %d", cc.Len())
	}
}
