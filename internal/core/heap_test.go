package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/relation"
)

// TestDiscoveryHeapPerStoredEntry bounds what BottomUp's Invariant 1 — a
// tuple is stored in every µ(C,M) where it is a skyline tuple, the space
// the paper's Fig 10 reports as the price of its speed — costs in heap:
// everything SBottomUp keeps for a stream (cells, constraint table, tuple
// registry, vector arena), divided by the entries it stores, on the
// Fig 7a shape and on a narrow one. A stored entry is a 32-bit id in a
// pointer-free block, so the budget is a few words per entry and well
// under one heap object per cell; a per-entry copy of the measure vector
// (99 B and 1.02 objects per entry on the wide shape) or a heap object
// per cell breaks it several times over.
func TestDiscoveryHeapPerStoredEntry(t *testing.T) {
	const maxBytesPerEntry, maxObjectsPerCell = 24.0, 0.5
	for _, tc := range []struct{ d, m, rows int }{
		{5, 7, 400},  // measured 13.3 B per entry, 0.21 objects per cell
		{4, 4, 3000}, // measured 21.2 B per entry, 0.37 objects per cell
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
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			alg, err := NewDiscoverer("sbottomup", Config{Schema: tb.Schema(), MaxBound: 4, MaxMeasure: -1})
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range tb.Tuples() {
				alg.Process(tu)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			st := alg.StoreStats()
			bytesPerEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(st.StoredTuples)
			objectsPerCell := float64(after.HeapObjects-before.HeapObjects) / float64(st.Cells)
			t.Logf("%d entries in %d cells: %.1f B of heap per entry, %.2f heap objects per cell",
				st.StoredTuples, st.Cells, bytesPerEntry, objectsPerCell)
			if bytesPerEntry > maxBytesPerEntry {
				t.Errorf("discovery keeps %.1f B of heap per stored entry, budget %.0f", bytesPerEntry, maxBytesPerEntry)
			}
			if objectsPerCell > maxObjectsPerCell {
				t.Errorf("discovery keeps %.2f heap objects per cell, budget %.1f", objectsPerCell, maxObjectsPerCell)
			}
			runtime.KeepAlive(tb) // or the second collection frees the table and flatters the delta
		})
	}
}
