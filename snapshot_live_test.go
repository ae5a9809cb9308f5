package situfact

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateLiveSnapshot = flag.Bool("update", false, "rewrite testdata/live_snapshot.golden from this run")

// TestLiveSnapshotGolden pins what discovery leaves behind, byte for byte:
// fixed NBA rows stream through an Engine under bottomup and sbottomup, with
// a few deletes between them, and the snapshot taken at the end must hash,
// and the engine's work and store counters read, as recorded in
// testdata/live_snapshot.golden. The shapes cover the wide daemon shape
// (d=5, m=7, d̂=4: 127 subspaces, more than one 64-subspace walk), the same
// with m̂=3 (63 subspaces, so SBottomUp's full-space cells are kept but
// report nothing) and the narrow one (d=4, m=4). A change to the lattice
// walk, the cell scans or the store that moves a cell member, a counter or
// the order of a cell's members fails here; only the order of one
// arrival's facts may change. `go test -run TestLiveSnapshotGolden -update .`
// rewrites the golden.
func TestLiveSnapshotGolden(t *testing.T) {
	cases := []struct {
		name      string
		d, m, n   int
		dhat, mh  int
		deleteGap int // every deleteGap-th arrival also deletes the row seven before it
	}{
		{"wide", wideDims, wideMeasures, 160, wideDhat, 0, 40},
		{"wide-mhat3", wideDims, wideMeasures, 160, wideDhat, 3, 40},
		{"narrow", 4, 4, 600, 4, 0, 100},
	}
	var out strings.Builder
	for _, tc := range cases {
		schema, rows := nbaRows(t, tc.d, tc.m, tc.n)
		for _, algo := range []Algorithm{AlgoBottomUp, AlgoSBottomUp} {
			eng, err := New(schema, Options{Algorithm: algo, MaxBoundDims: tc.dhat, MaxMeasureDims: tc.mh})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rows {
				if _, err := eng.append(r.Dims, r.Measures, 0); err != nil {
					t.Fatal(err)
				}
				if i > 0 && i%tc.deleteGap == 0 {
					if err := eng.Delete(int64(i - 7)); err != nil {
						t.Fatal(err)
					}
				}
			}
			buf, err := eng.appendSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			m := eng.Metrics()
			fmt.Fprintf(&out, "%s/%s bytes=%d sha256=%x\n", tc.name, algo, len(buf), sha256.Sum256(buf))
			fmt.Fprintf(&out, "%s/%s tuples=%d comparisons=%d traversed=%d facts=%d stored_tuples=%d cells=%d reads=%d writes=%d\n",
				tc.name, algo, m.Tuples, m.Comparisons, m.Traversed, m.Facts, m.StoredTuples, m.Cells, m.Reads, m.Writes)
			eng.Close()
		}
	}
	path := filepath.Join("testdata", "live_snapshot.golden")
	if *updateLiveSnapshot {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, "live snapshots", strings.Split(out.String(), "\n"), strings.Split(string(want), "\n"))
}
