package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// TestDiscoveryHeapPerStoredEntry bounds what BottomUp's Invariant 1 — a
// tuple is stored in every µ(C,M) where it is a skyline tuple, the space
// the paper's Fig 10 reports as the price of its speed — costs in heap:
// everything SBottomUp keeps for a stream (cells, constraint table, tuple
// registry, vector arena), divided by the entries it stores, on the
// Fig 7a shape and on a narrow one. A stored entry is a 32-bit id in a
// pointer-free block or id arena, and a constraint only the arrival that
// made it satisfies is a one-member block, one id, so each shape's budget
// is its measured cost plus about a fifth: a few words per entry and far
// under one heap object per cell. A per-entry copy of the measure vector
// (99 B and 1.02 objects per entry on the wide shape), a heap object per
// member list (13.7 B and 0.21 objects per cell there) or a dense block of
// slots per one-member constraint (10.2 B and 0.016 objects there) breaks
// it. The same state restored into a new engine, as a snapshot restore
// builds it, holds the same budget.
//
// Building the live store is also held to a budget of bytes allocated per
// entry (TotalAlloc), which counts what the store copied and dropped on the
// way. The id arena's pages never move, and a fact is two masks and a size,
// so building allocates 7.2 B per entry on the wide shape and 31.5 B on the
// narrow one; with a copy of each fact's constraint values it allocated
// 7.8 B and 33.7 B, and with an arena grown by doubling and copying 21.0 B
// and 45.6 B. The budgets lie between the first two.
func TestDiscoveryHeapPerStoredEntry(t *testing.T) {
	for _, tc := range []struct {
		d, m, rows                          int
		maxBytesPerEntry, maxObjectsPerCell float64
		maxAllocPerEntry                    float64
	}{
		{5, 7, 400, 7.3, 0.012, 7.5}, // measured 5.6 B per entry, 0.010 objects per cell
		{4, 4, 3000, 18.4, 0.13, 33}, // measured 15.2 B per entry, 0.106 objects per cell
	} {
		t.Run(fmt.Sprintf("d=%d,m=%d", tc.d, tc.m), func(t *testing.T) {
			g, err := gen.NewNBA(gen.NBAConfig{Seed: 2014}, tc.d, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			tb := relation.NewTable(g.Schema())
			if err := g.Fill(tb, tc.rows); err != nil {
				t.Fatal(err)
			}
			cfg := Config{Schema: tb.Schema(), MaxBound: 4, MaxMeasure: -1}
			budget := func(what string, maxAlloc float64, build func() Discoverer) Discoverer {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				alg := build()
				runtime.GC()
				runtime.ReadMemStats(&after)
				st := alg.StoreStats()
				bytesPerEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(st.StoredTuples)
				objectsPerCell := float64(after.HeapObjects-before.HeapObjects) / float64(st.Cells)
				allocPerEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(st.StoredTuples)
				t.Logf("%s: %d entries in %d cells: %.1f B of heap per entry, %.3f heap objects per cell, %.1f B allocated per entry",
					what, st.StoredTuples, st.Cells, bytesPerEntry, objectsPerCell, allocPerEntry)
				if bytesPerEntry > tc.maxBytesPerEntry {
					t.Errorf("%s: discovery keeps %.1f B of heap per stored entry, budget %.1f", what, bytesPerEntry, tc.maxBytesPerEntry)
				}
				if objectsPerCell > tc.maxObjectsPerCell {
					t.Errorf("%s: discovery keeps %.3f heap objects per cell, budget %.3f", what, objectsPerCell, tc.maxObjectsPerCell)
				}
				if maxAlloc > 0 && allocPerEntry > maxAlloc {
					t.Errorf("%s: building the store allocated %.1f B per stored entry, budget %.1f", what, allocPerEntry, maxAlloc)
				}
				return alg
			}
			live := budget("live", tc.maxAllocPerEntry, func() Discoverer {
				alg, err := NewSBottomUp(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, tu := range tb.Tuples() {
					alg.Process(tu)
				}
				return alg
			}).(*BottomUp)
			restored := budget("restored", 0, func() Discoverer { return restoreCopy(t, live, cfg, tb.Tuples()) })
			if live.StoreStats() != restored.StoreStats() {
				t.Errorf("restored store counts %+v, live %+v", restored.StoreStats(), live.StoreStats())
			}
			// Or a collection frees them and flatters a delta.
			runtime.KeepAlive(tb)
			runtime.KeepAlive(live)
		})
	}
}

// restoreCopy builds a new SBottomUp holding alg's cells, the way a snapshot
// restore does: the live constraints' keys in one string, the store sized
// once, one RestoreConstraint per constraint, every tuple registered.
func restoreCopy(t *testing.T, alg *BottomUp, cfg Config, tuples []*relation.Tuple) *BottomUp {
	t.Helper()
	re, err := NewSBottomUp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	from, to := alg.Store().(*store.Memory), re.Store().(*store.Memory)
	var keys strings.Builder
	var live []store.ConstraintID
	for c := store.ConstraintID(0); int(c) < from.Interner().Len(); c++ {
		if from.Live(c) > 0 {
			live = append(live, c)
			keys.WriteString(string(from.Interner().Key(c)))
		}
	}
	to.Grow(len(live))
	all, at := keys.String(), 0
	var masks, sizes, ids []uint32
	for _, c := range live {
		masks, sizes, ids = masks[:0], sizes[:0], ids[:0]
		from.EachCell(c, func(mask subspace.Mask, cell store.Cell) {
			masks, sizes, ids = append(masks, mask), append(sizes, uint32(cell.Len())), append(ids, cell.IDs()...)
		})
		n := len(from.Interner().Key(c))
		if _, _, err := to.RestoreConstraint(lattice.Key(all[at:at+n]), masks, sizes, ids); err != nil {
			t.Fatal(err)
		}
		at += n
	}
	for _, tu := range tuples {
		re.RegisterTuple(tu)
	}
	re.RestoreMetrics(alg.Metrics())
	to.RestoreStats(from.Stats())
	return re
}
