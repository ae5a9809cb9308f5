package core

import (
	"testing"

	"repro/internal/lattice"
	"repro/internal/store"
)

func TestContextCounter(t *testing.T) {
	tb := table4(t)
	cc := NewContextCounter(3, -1)
	for _, tu := range tb.Tuples() {
		cc.Observe(tu)
	}
	// ⊤ counts everything.
	if got := cc.ContextSize(lattice.Top(3)); got != 5 {
		t.Errorf("|σ_⊤| = %d, want 5", got)
	}
	// 〈a1,*,*〉 holds t1, t2, t5.
	a1, _ := tb.Dict().Lookup(0, "a1")
	c := lattice.Constraint{Vals: []int32{a1, lattice.Wildcard, lattice.Wildcard}}
	if got := cc.ContextSize(c); got != 3 {
		t.Errorf("|σ_a1| = %d, want 3", got)
	}
	// 〈a1,b1,c1〉 holds t2, t5.
	b1, _ := tb.Dict().Lookup(1, "b1")
	c1, _ := tb.Dict().Lookup(2, "c1")
	full := lattice.Constraint{Vals: []int32{a1, b1, c1}}
	if got := cc.ContextSize(full); got != 2 {
		t.Errorf("|σ_abc| = %d, want 2", got)
	}
	// Never-seen constraints count zero.
	if got := cc.ContextSize(lattice.Constraint{Vals: []int32{99, lattice.Wildcard, lattice.Wildcard}}); got != 0 {
		t.Errorf("unknown context size = %d", got)
	}

	// Unobserve reverses exactly.
	cc.Unobserve(tb.Tuples()[4]) // t5 = (a1,b1,c1)
	if got := cc.ContextSize(full); got != 1 {
		t.Errorf("after unobserve |σ_abc| = %d, want 1", got)
	}
	if got := cc.ContextSize(lattice.Top(3)); got != 4 {
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
	cc2.Observe(tb.Tuples()[4])
	if got := cc2.ContextSize(full); got != 2 {
		t.Errorf("restored counter after observe |σ_abc| = %d, want 2", got)
	}
	if got := cc.ContextSize(full); got != 1 {
		t.Errorf("a second counter over the table moved the first: |σ_abc| = %d, want 1", got)
	}
}

func TestContextCounterRespectsCap(t *testing.T) {
	tb := table4(t)
	cc := NewContextCounter(3, 1)
	for _, tu := range tb.Tuples() {
		cc.Observe(tu)
	}
	a1, _ := tb.Dict().Lookup(0, "a1")
	b1, _ := tb.Dict().Lookup(1, "b1")
	two := lattice.Constraint{Vals: []int32{a1, b1, lattice.Wildcard}}
	if got := cc.ContextSize(two); got != 0 {
		t.Errorf("bound-2 constraint counted %d under d̂=1", got)
	}
	one := lattice.Constraint{Vals: []int32{a1, lattice.Wildcard, lattice.Wildcard}}
	if got := cc.ContextSize(one); got != 3 {
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
	full := lattice.Constraint{Vals: tu.Dims}
	if avg := testing.AllocsPerRun(100, func() {
		cc.Observe(tu)
		cc.ContextSize(full)
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
