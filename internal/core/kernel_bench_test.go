package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/subspace"
)

// BenchmarkCmpKernel times the batched dominance scan (kernel.go, TopDown's
// scanAll) against the row-at-a-time cmpVecs loop it replaced, on a Fig 7
// warm-point cell shape: NBA gamelogs at d=5, m=7 keep cells of a few dozen
// members hot, and the full 7-measure vector is the widest compare the
// figure exercises. The cell's members are scattered over a 4 096-tuple
// arena, as a skyline's are. Sub-benchmarks are named by pass width — 1rows
// is the reference loop, 4rows the production scanAll. Two workloads:
// "survive" is incomparable with every member (each four-row pass bails out
// once all its lanes are), "dominated" loses to one member a third of the
// way in; scanAll visits every member either way.
func BenchmarkCmpKernel(b *testing.B) {
	const w, n = 7, 64 // Fig 7 measure width (m=7), warm-cell members
	idx := kernelBenchIdx(w)
	arena, ids := kernelBenchCell(n, w)
	kernels := []struct {
		name string
		scan func(tv, arena []float64, ids []uint32, m int, idx []uint8, dom, doms []int) ([]int, []int)
	}{
		{"1rows", scanAll1},
		{"4rows", scanAll},
	}
	workloads := []struct {
		name string
		tv   []float64
	}{
		// Beats even the planted member on measure 0: incomparable with all
		// n members.
		{"survive", kernelBenchTuple(w, 5)},
		// Loses to the planted dominator at index n/3 but beats every
		// random member on measure 0.
		{"dominated", kernelBenchTuple(w, 3)},
	}
	for _, k := range kernels {
		for _, wl := range workloads {
			b.Run(fmt.Sprintf("%s/%s", k.name, wl.name), func(b *testing.B) {
				var dom, doms []int
				for i := 0; i < b.N; i++ {
					dom, doms = k.scan(wl.tv, arena, ids, w, idx, dom[:0], doms[:0])
				}
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
// dominated workload loses to. Rows of non-members are constant 9, so a
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
// four-member passes) and on a cell that repeats members, the batched scan
// must report the members the candidate dominates and is dominated by
// exactly as the row-at-a-time cmpVecs loop does, and so must the relation
// BottomUp caches per member (relTo) — the counters-do-not-move contract
// the kernels are built on. The workloads must exercise the paths their
// names claim.
func TestCmpKernelBenchAgreement(t *testing.T) {
	const w, n = 7, 64
	idx := kernelBenchIdx(w)
	arena, ids := kernelBenchCell(n, w)
	for _, tc := range []struct {
		name    string
		tv      []float64
		wantDom []int
	}{
		{"survive", kernelBenchTuple(w, 5), nil},
		{"dominated", kernelBenchTuple(w, 3), []int{n / 3}},
	} {
		if dom, doms := scanAll(tc.tv, arena, ids, w, idx, nil, nil); !slices.Equal(dom, tc.wantDom) || len(doms) != 0 {
			t.Errorf("%s: dominated by %v, dominates %v; want dominated by %v, dominates none", tc.name, dom, doms, tc.wantDom)
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
	full := subspace.Full(w)
	for _, cell := range [][]uint32{ids, mixed} {
		for _, first := range []float64{5, 3} {
			tv := kernelBenchTuple(w, first)
			for k := 0; k <= len(cell); k++ {
				dom1, doms1 := scanAll1(tv, arena, cell[:k], w, idx, nil, nil)
				dom4, doms4 := scanAll(tv, arena, cell[:k], w, idx, nil, nil)
				if !slices.Equal(dom1, dom4) || !slices.Equal(doms1, doms4) {
					t.Fatalf("first=%g, %d members: scanAll (%v,%v), row at a time (%v,%v)",
						first, k, dom4, doms4, dom1, doms1)
				}
			}
			var domR, domsR []int
			for i, id := range cell {
				rel := subspace.CompareVecs(tv, arena[int(id)*w:int(id)*w+w])
				if rel.DominatedIn(full) {
					domR = append(domR, i)
				}
				if rel.DominatesIn(full) {
					domsR = append(domsR, i)
				}
			}
			if dom1, doms1 := scanAll1(tv, arena, cell, w, idx, nil, nil); !slices.Equal(dom1, domR) || !slices.Equal(doms1, domsR) {
				t.Fatalf("first=%g, %d members: relation (%v,%v), row at a time (%v,%v)",
					first, len(cell), domR, domsR, dom1, doms1)
			}
		}
	}
}

// scanAll1 is scanAll one row per pass — the cmpVecs loop the batched
// kernel replaced, kept as its reference.
func scanAll1(tv, arena []float64, ids []uint32, m int, idx []uint8, dom, doms []int) ([]int, []int) {
	for i, id := range ids {
		k := int(id) * m
		d, ds := cmpVecs(tv, arena[k:k+m], idx)
		if d {
			dom = append(dom, i)
		}
		if ds {
			doms = append(doms, i)
		}
	}
	return dom, doms
}
