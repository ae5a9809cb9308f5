package situfact

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/store"
)

// TestProminenceCostsNoHeapObjectPerConstraint: a context count is a column
// over the µ store's constraint ids, so what prominence tracking adds to an
// engine's heap is eight bytes a constraint in one slice (and the ranking's
// scratch) — no key of its own, no object per constraint. The same narrow
// stream goes through an engine with prominence and one without; the
// difference, per interned constraint, is held to a fraction of an object.
// A counter keyed by its own copy of the constraint keys cost 1.5 objects and
// 78 B per constraint here; the column measures 0.001 and 10.4 B.
func TestProminenceCostsNoHeapObjectPerConstraint(t *testing.T) {
	const maxObjects, maxBytes = 0.05, 16.0
	schema, rows := nbaRows(t, 4, 4, 3000)
	// heapOf is the live heap an engine holds after the stream. It collects
	// twice: what one cycle only unlinks, the next one frees.
	heapOf := func(opt Options) (objects, bytes float64, constraints int) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		eng, err := New(schema, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for _, r := range rows {
			if _, err := eng.Append(r.Dims, r.Measures); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		constraints = eng.mem.Interner().Len()
		runtime.KeepAlive(eng)
		return float64(after.HeapObjects) - float64(before.HeapObjects), float64(after.HeapAlloc) - float64(before.HeapAlloc), constraints
	}
	plainObjects, plainBytes, n := heapOf(Options{MaxBoundDims: 4, DisableProminence: true})
	objects, bytes, withCounts := heapOf(Options{MaxBoundDims: 4})
	runtime.KeepAlive(rows) // or the last collection frees them and flatters the second delta
	if withCounts != n || n < 5000 {
		t.Fatalf("%d constraints interned with prominence, %d without: want the same table, of some size", withCounts, n)
	}
	perObjects, perBytes := (objects-plainObjects)/float64(n), (bytes-plainBytes)/float64(n)
	t.Logf("%d constraints: prominence adds %.3f heap objects and %.1f B per constraint", n, perObjects, perBytes)
	if perObjects > maxObjects {
		t.Errorf("prominence keeps %.3f heap objects per constraint, budget %.2f", perObjects, maxObjects)
	}
	if perBytes > maxBytes {
		t.Errorf("prominence keeps %.1f B of heap per constraint, budget %.0f", perBytes, maxBytes)
	}
}

// TestContextCountsMatchLiveRows is the counter's model check at engine
// level: after every step of a seeded history — appends over small value
// domains and, where the algorithm retracts, deletes that empty whole
// constraints — the count under every id of the key table is |σ_C(R)| counted
// from the rows the test fed, Len is the number of ids with a count, and
// after an append ContextSize reads each of the arrival's counts by mask.
// Under the BottomUp family every constraint of C^t has a block once
// discovery returns (Invariant 1: t is in some skyline of each), so counting
// an arrival interns nothing and the store's id assignment — hence snapshot
// order — is what it was before counts shared the table.
func TestContextCountsMatchLiveRows(t *testing.T) {
	schema := poolSchema(t)
	for _, algo := range []Algorithm{AlgoBottomUp, AlgoSBottomUp, AlgoTopDown, AlgoSTopDown} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", algo, seed), func(t *testing.T) {
				eng, err := New(schema, Options{Algorithm: algo, MaxBoundDims: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				in := eng.disc.(interface{ Store() store.Store }).Store().Interner()
				_, bottomUp := eng.disc.(*core.BottomUp)
				rng := rand.New(rand.NewSource(seed))
				var live [][]string // the model: dimension values of the rows not deleted
				var ids []int64     // their tuple ids
				emptied := 0
				for step := 0; step < 120; step++ {
					if bottomUp && len(live) > 0 && rng.Intn(3) == 0 {
						i := rng.Intn(len(live))
						if err := eng.Delete(ids[i]); err != nil {
							t.Fatal(err)
						}
						live, ids = append(live[:i], live[i+1:]...), append(ids[:i], ids[i+1:]...)
					} else {
						dims := []string{poolTeams[rng.Intn(3)], fmt.Sprintf("p%d", rng.Intn(4)), fmt.Sprintf("m%d", rng.Intn(2))}
						// Engine.apply, with the key table measured around the count.
						tu, err := eng.table.Append(dims, []float64{float64(rng.Intn(9)), float64(rng.Intn(9))})
						if err != nil {
							t.Fatal(err)
						}
						eng.disc.Process(tu)
						known := in.Len()
						eng.counter.Observe(tu)
						if bottomUp && in.Len() != known {
							t.Fatalf("step %d: counting tuple %d interned %d constraints discovery had not", step, tu.ID, in.Len()-known)
						}
						// What the ranking reads by mask is the count under C's id,
						// which the loop below checks against the rows.
						for _, m := range lattice.CtMasks(3, 2) {
							id, _ := in.LookupTuple(tu, m)
							if got, want := eng.counter.ContextSize(m), eng.counter.SizeOf(id); got != want {
								t.Fatalf("step %d: ContextSize(%03b) = %d for tuple %d, its constraint counts %d", step, m, got, tu.ID, want)
							}
						}
						live, ids = append(live, dims), append(ids, tu.ID)
					}
					counted := 0
					for id := 0; id < in.Len(); id++ {
						cons, err := lattice.ParseKey(in.Key(store.ConstraintID(id)), 3)
						if err != nil {
							t.Fatal(err)
						}
						want := int64(0)
					rows:
						for _, dims := range live {
							for dim, v := range cons.Vals {
								if v != lattice.Wildcard && eng.table.Dict().Decode(dim, v) != dims[dim] {
									continue rows
								}
							}
							want++
						}
						if got := eng.counter.SizeOf(store.ConstraintID(id)); got != want {
							t.Fatalf("step %d: constraint %d %v counts %d, the live rows say %d", step, id, cons.Vals, got, want)
						}
						if want > 0 {
							counted++
						}
					}
					if eng.counter.Len() != counted {
						t.Fatalf("step %d: Len = %d, %d constraints have a count", step, eng.counter.Len(), counted)
					}
					emptied = max(emptied, in.Len()-counted)
				}
				if bottomUp && emptied == 0 {
					t.Error("no delete emptied a constraint: the history does not test retraction to zero")
				}
			})
		}
	}
}
