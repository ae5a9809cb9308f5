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
// pointer-free block or id arena, so each shape's budget is its measured
// cost plus about a fifth: a few words per entry and far under one heap
// object per cell. A per-entry copy of the measure vector (99 B and 1.02
// objects per entry on the wide shape) or a heap object per member list
// (13.7 B and 0.21 objects per cell there) breaks it.
func TestDiscoveryHeapPerStoredEntry(t *testing.T) {
	for _, tc := range []struct {
		d, m, rows                          int
		maxBytesPerEntry, maxObjectsPerCell float64
	}{
		{5, 7, 400, 12.3, 0.02},  // measured 10.2 B per entry, 0.016 objects per cell
		{4, 4, 3000, 21.6, 0.16}, // measured 18.0 B per entry, 0.134 objects per cell
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
			t.Logf("%d entries in %d cells: %.1f B of heap per entry, %.3f heap objects per cell",
				st.StoredTuples, st.Cells, bytesPerEntry, objectsPerCell)
			if bytesPerEntry > tc.maxBytesPerEntry {
				t.Errorf("discovery keeps %.1f B of heap per stored entry, budget %.1f", bytesPerEntry, tc.maxBytesPerEntry)
			}
			if objectsPerCell > tc.maxObjectsPerCell {
				t.Errorf("discovery keeps %.3f heap objects per cell, budget %.3f", objectsPerCell, tc.maxObjectsPerCell)
			}
			runtime.KeepAlive(tb) // or the second collection frees the table and flatters the delta
		})
	}
}
