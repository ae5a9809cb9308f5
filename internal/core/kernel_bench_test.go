package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCmpKernel pins the batched dominance kernel (kernel.go)
// against its one- and two-row-per-pass baselines on a Fig 7 warm-point
// cell shape: NBA gamelogs at d=5, m=7 keep cells of a few dozen stored
// rows hot, and the full 7-measure vector is the widest compare the
// figure exercises. Sub-benchmarks are named by pass width — 1rows is
// the PR4 single-row kernel, 4rows the production scanFirstDom — so
// `-bench CmpKernel` reads as a before/after column. Two workloads:
// "survive" never finds a dominator (every row visited, the steady-state
// cost of a skyline-bound arrival), "domEarly" is dominated a third of
// the way in (Invariant 1's break path).
func BenchmarkCmpKernel(b *testing.B) {
	const (
		w      = 7  // Fig 7 measure width (m=7)
		n      = 64 // warm-cell stored rows
		stride = 1 + w
	)
	idx := make([]uint8, w)
	for i := range idx {
		idx[i] = uint8(i)
	}
	rows := kernelBenchRows(n, w, stride)
	kernels := []struct {
		name string
		scan func(tv, rows []float64, n, stride int, idx []uint8, rem []int) (int, bool, []int)
	}{
		{"1rows", scanFirstDom1},
		{"2rows", scanFirstDom2},
		{"4rows", scanFirstDom},
	}
	workloads := []struct {
		name string
		tv   []float64
	}{
		// Beats even the planted row on measure 0: incomparable with all
		// n rows, the scan runs its full length.
		{"survive", kernelBenchTuple(w, 5)},
		// Loses to the planted dominator at index n/3 but beats every
		// random row on measure 0: Invariant 1's break path, a third in.
		{"domEarly", kernelBenchTuple(w, 3)},
	}
	for _, k := range kernels {
		for _, wl := range workloads {
			b.Run(fmt.Sprintf("%s/%s", k.name, wl.name), func(b *testing.B) {
				var visited int
				for i := 0; i < b.N; i++ {
					v, _, _ := k.scan(wl.tv, rows, n, stride, idx, nil)
					visited += v
				}
				b.ReportMetric(float64(visited)/float64(b.N), "rowsvisited/op")
			})
		}
	}
}

// kernelBenchRows packs n stored rows of width w: random measure values
// in [1, 2) (pairwise incomparable with high probability) plus one
// planted row at index n/3 that is constant 4 on every measure — the
// dominator the domEarly workload breaks on.
func kernelBenchRows(n, w, stride int) []float64 {
	rng := rand.New(rand.NewSource(7))
	rows := make([]float64, n*stride)
	for r := 0; r < n; r++ {
		rows[r*stride] = float64(r) // id slot, never compared
		for j := 0; j < w; j++ {
			rows[r*stride+1+j] = 1 + rng.Float64()
		}
	}
	for j := 0; j < w; j++ {
		rows[(n/3)*stride+1+j] = 4
	}
	return rows
}

// kernelBenchTuple is an arriving vector that is `first` on measure 0 and
// 0.5 elsewhere: it loses to a stored row only if that row beats `first`,
// so first=5 survives the planted 4s and first=3 does not.
func kernelBenchTuple(w int, first float64) []float64 {
	tv := make([]float64, w)
	for j := range tv {
		tv[j] = 0.5
	}
	tv[0] = first
	return tv
}

// TestCmpKernelBenchAgreement guards the benchmark itself: all three
// pass widths must agree on verdict and rows visited for both workloads
// (the bit-identical-counters contract the kernels are built on), and
// the workloads must exercise the paths their names claim.
func TestCmpKernelBenchAgreement(t *testing.T) {
	const w, n, stride = 7, 64, 8
	idx := make([]uint8, w)
	for i := range idx {
		idx[i] = uint8(i)
	}
	rows := kernelBenchRows(n, w, stride)
	for _, tc := range []struct {
		name        string
		tv          []float64
		wantVisited int
		wantDom     bool
	}{
		{"survive", kernelBenchTuple(w, 5), n, false},
		{"domEarly", kernelBenchTuple(w, 3), n/3 + 1, true},
	} {
		v1, d1, _ := scanFirstDom1(tc.tv, rows, n, stride, idx, nil)
		v2, d2, _ := scanFirstDom2(tc.tv, rows, n, stride, idx, nil)
		v4, d4, _ := scanFirstDom(tc.tv, rows, n, stride, idx, nil)
		if v1 != v2 || v1 != v4 || d1 != d2 || d1 != d4 {
			t.Errorf("%s: kernels disagree: 1rows (%d,%v) 2rows (%d,%v) 4rows (%d,%v)",
				tc.name, v1, d1, v2, d2, v4, d4)
		}
		if v1 != tc.wantVisited || d1 != tc.wantDom {
			t.Errorf("%s: visited %d dominated %v, want %d %v",
				tc.name, v1, d1, tc.wantVisited, tc.wantDom)
		}
	}
}

// scanFirstDom1 and scanFirstDom2 are the one- and two-row-per-pass
// forms of scanFirstDom, kept as benchmark baselines (scanFirstDom1 is
// the shape of the pre-batching inner loop): BenchmarkCmpKernel pins the
// production four-row kernel against them at Fig-7 warm points.
func scanFirstDom1(tv, rows []float64, n, stride int, idx []uint8, rem []int) (visited int, dominated bool, _ []int) {
	for i, k := 0, 0; i < n; i, k = i+1, k+stride {
		d, ds := cmpVecs(tv, rows[k+1:k+stride], idx)
		if d {
			return i + 1, true, rem
		}
		if ds {
			rem = append(rem, i)
		}
	}
	return n, false, rem
}

func scanFirstDom2(tv, rows []float64, n, stride int, idx []uint8, rem []int) (visited int, dominated bool, _ []int) {
	i, k := 0, 0
	for ; i+2 <= n; i, k = i+2, k+2*stride {
		dom, doms := cmpVecs2(tv, rows, k, k+stride, idx)
		if dom|doms == 0 {
			continue
		}
		for l := 0; l < 2; l++ {
			if dom&(1<<l) != 0 {
				return i + l + 1, true, rem
			}
			if doms&(1<<l) != 0 {
				rem = append(rem, i+l)
			}
		}
	}
	if i < n {
		d, ds := cmpVecs(tv, rows[k+1:k+stride], idx)
		if d {
			return i + 1, true, rem
		}
		if ds {
			rem = append(rem, i)
		}
	}
	return n, false, rem
}

// cmpVecs2 is the two-row form of cmpVecs4.
func cmpVecs2(tv, rows []float64, k0, k1 int, idx []uint8) (dom, doms uint8) {
	var gt, lt uint8
	for _, j := range idx {
		a, o := tv[j], int(j)+1
		b0, b1 := rows[k0+o], rows[k1+o]
		if a > b0 {
			gt |= 1
		} else if a < b0 {
			lt |= 1
		}
		if a > b1 {
			gt |= 2
		} else if a < b1 {
			lt |= 2
		}
		if gt&lt == 3 { // every lane incomparable: no verdict can emerge
			return 0, 0
		}
	}
	return lt &^ gt, gt &^ lt
}
