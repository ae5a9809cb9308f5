package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// BenchmarkCmpKernel times the batched dominance scan (kernel.go) against
// the row-at-a-time cmpVecs loop it replaced, on a Fig 7 warm-point cell
// shape: NBA gamelogs at d=5, m=7 keep cells of a few dozen members hot,
// and the full 7-measure vector is the widest compare the figure
// exercises. The cell's members are scattered over a 4 096-tuple arena, as
// a skyline's are. Sub-benchmarks are named by pass width — 1rows is the
// reference loop, 4rows the production scanFirstDom. Two workloads:
// "survive" never finds a dominator (every member visited, the
// steady-state cost of a skyline-bound arrival), "domEarly" is dominated a
// third of the way in (Invariant 1's break path).
func BenchmarkCmpKernel(b *testing.B) {
	const w, n = 7, 64 // Fig 7 measure width (m=7), warm-cell members
	idx := kernelBenchIdx(w)
	arena, ids := kernelBenchCell(n, w)
	kernels := []struct {
		name string
		scan func(tv, arena []float64, ids []uint32, m int, idx []uint8, rem []int) (int, bool, []int)
	}{
		{"1rows", scanFirstDom1},
		{"4rows", scanFirstDom},
	}
	workloads := []struct {
		name string
		tv   []float64
	}{
		// Beats even the planted member on measure 0: incomparable with all
		// n members, the scan runs its full length.
		{"survive", kernelBenchTuple(w, 5)},
		// Loses to the planted dominator at index n/3 but beats every
		// random member on measure 0: Invariant 1's break path, a third in.
		{"domEarly", kernelBenchTuple(w, 3)},
	}
	for _, k := range kernels {
		for _, wl := range workloads {
			b.Run(fmt.Sprintf("%s/%s", k.name, wl.name), func(b *testing.B) {
				var visited int
				for i := 0; i < b.N; i++ {
					v, _, _ := k.scan(wl.tv, arena, ids, w, idx, nil)
					visited += v
				}
				b.ReportMetric(float64(visited)/float64(b.N), "rowsvisited/op")
			})
		}
	}
}

func kernelBenchIdx(w int) []uint8 {
	idx := make([]uint8, w)
	for i := range idx {
		idx[i] = uint8(i)
	}
	return idx
}

// kernelBenchCell builds a vector arena of 4 096 tuples, w wide, and a cell
// of n of them in no arena order: random measure values in [1, 2)
// (pairwise incomparable with high probability), plus one planted member at
// index n/3 whose row is constant 4 on every measure — the dominator the
// domEarly workload breaks on. Rows of non-members are constant 9, so a
// scan that strays from the id list finds a dominator at once.
func kernelBenchCell(n, w int) (arena []float64, ids []uint32) {
	const tuples = 4096
	rng := rand.New(rand.NewSource(7))
	arena = make([]float64, tuples*w)
	for i := range arena {
		arena[i] = 9
	}
	for _, id := range rng.Perm(tuples)[:n] {
		ids = append(ids, uint32(id))
		for j := 0; j < w; j++ {
			arena[id*w+j] = 1 + rng.Float64()
		}
	}
	for j := 0; j < w; j++ {
		arena[int(ids[n/3])*w+j] = 4
	}
	return arena, ids
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

// TestCmpKernelBenchAgreement guards the benchmark and the kernels: on the
// benchmark's cell, on every prefix of it (each tail length of the
// four-member passes) and on a cell that repeats members, the batched scans
// must agree with the row-at-a-time cmpVecs loop on verdict, members
// visited and the indices they report — the counters-do-not-move contract
// the kernels are built on — and the workloads must exercise the paths
// their names claim.
func TestCmpKernelBenchAgreement(t *testing.T) {
	const w, n = 7, 64
	idx := kernelBenchIdx(w)
	arena, ids := kernelBenchCell(n, w)
	for _, tc := range []struct {
		name        string
		tv          []float64
		wantVisited int
		wantDom     bool
	}{
		{"survive", kernelBenchTuple(w, 5), n, false},
		{"domEarly", kernelBenchTuple(w, 3), n/3 + 1, true},
	} {
		v, d, _ := scanFirstDom(tc.tv, arena, ids, w, idx, nil)
		if v != tc.wantVisited || d != tc.wantDom {
			t.Errorf("%s: visited %d dominated %v, want %d %v", tc.name, v, d, tc.wantVisited, tc.wantDom)
		}
	}
	// Members the candidate dominates (rows of 0.25s) and a repeated
	// dominator, spread over every lane of a pass.
	mixed := append([]uint32(nil), ids...)
	low := []uint32{mixed[1], mixed[6], mixed[11], mixed[16]}
	for _, id := range low {
		for j := 0; j < w; j++ {
			arena[int(id)*w+j] = 0.25
		}
	}
	mixed = append(mixed, low[0], ids[n/3], low[3], ids[n/3])
	for _, cell := range [][]uint32{ids, mixed} {
		for _, first := range []float64{5, 3} {
			tv := kernelBenchTuple(w, first)
			for k := 0; k <= len(cell); k++ {
				v1, d1, rem1 := scanFirstDom1(tv, arena, cell[:k], w, idx, nil)
				v4, d4, rem4 := scanFirstDom(tv, arena, cell[:k], w, idx, nil)
				if v1 != v4 || d1 != d4 || !slices.Equal(rem1, rem4) {
					t.Fatalf("first=%g, %d members: scanFirstDom (%d,%v,%v), row at a time (%d,%v,%v)",
						first, k, v4, d4, rem4, v1, d1, rem1)
				}
				var dom1, doms1 []int
				for i, id := range cell[:k] {
					d, ds := cmpVecs(tv, arena[int(id)*w:int(id)*w+w], idx)
					if d {
						dom1 = append(dom1, i)
					}
					if ds {
						doms1 = append(doms1, i)
					}
				}
				dom4, doms4 := scanAll(tv, arena, cell[:k], w, idx, nil, nil)
				if !slices.Equal(dom1, dom4) || !slices.Equal(doms1, doms4) {
					t.Fatalf("first=%g, %d members: scanAll (%v,%v), row at a time (%v,%v)",
						first, k, dom4, doms4, dom1, doms1)
				}
			}
		}
	}
}

// scanFirstDom1 is scanFirstDom one row per pass — the cmpVecs loop the
// batched kernel replaced, kept as its reference.
func scanFirstDom1(tv, arena []float64, ids []uint32, m int, idx []uint8, rem []int) (visited int, dominated bool, _ []int) {
	for i, id := range ids {
		k := int(id) * m
		d, ds := cmpVecs(tv, arena[k:k+m], idx)
		if d {
			return i + 1, true, rem
		}
		if ds {
			rem = append(rem, i)
		}
	}
	return len(ids), false, rem
}
