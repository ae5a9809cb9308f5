package core

import "math/bits"

// Batched dominance kernels. TopDown spends most of its time comparing an
// arriving tuple's oriented vector against every member of a µ(C,M) cell. A
// cell is a list of tuple ids; member id's vector is the m-wide row at id·m
// of the algorithm's vector arena (base.vecs). The single-row kernel
// cmpVecs (core.go) compares one row per call; cmpVecs4 tests the candidate
// against four members' rows per pass, so the candidate's coordinates and
// the subspace's index list load once per pass instead of once per row.
// Per-row verdicts are bit-identical to cmpVecs; only the early-exit
// granularity moves — a multi-row pass bails out when EVERY lane has
// become incomparable, where the single-row kernel bails per row. Work
// counters are unaffected: callers charge Comparisons per row visited.
// (BottomUp does not scan rows per subspace: it compares each member once
// per arrival over 𝕄 and tests subspaces on the cached relation, relTo.)
//
// Lane encoding: bit l of the returned masks refers to row l of the pass.
// dom bit set = that row dominates the candidate (t ≺ u); doms bit set =
// the candidate dominates that row (t ≻ u).

// cmpVecs4 compares tv against the four rows starting at element offsets
// k0..k3 of the arena, over the measure indices idx — the pass width of
// scanAll.
func cmpVecs4(tv, arena []float64, k0, k1, k2, k3 int, idx []uint8) (dom, doms uint8) {
	var gt, lt uint8
	for _, j := range idx {
		a, o := tv[j], int(j)
		b0, b1, b2, b3 := arena[k0+o], arena[k1+o], arena[k2+o], arena[k3+o]
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
		if a > b2 {
			gt |= 4
		} else if a < b2 {
			lt |= 4
		}
		if a > b3 {
			gt |= 8
		} else if a < b3 {
			lt |= 8
		}
		if gt&lt == 15 {
			return 0, 0
		}
	}
	return lt &^ gt, gt &^ lt
}

// scanAll compares tv against every member of a cell, four per pass,
// appending the indices of members that dominate tv to dom and of members
// tv dominates to doms (both in member order). TopDown visits every member
// of a cell — no early break — so the caller charges len(ids) Comparisons.
func scanAll(tv, arena []float64, ids []uint32, m int, idx []uint8, dom, doms []int) ([]int, []int) {
	i, n := 0, len(ids)
	for ; i+4 <= n; i += 4 {
		db, dsb := cmpVecs4(tv, arena, int(ids[i])*m, int(ids[i+1])*m, int(ids[i+2])*m, int(ids[i+3])*m, idx)
		for b := db; b != 0; b &= b - 1 {
			dom = append(dom, i+bits.TrailingZeros8(b))
		}
		for b := dsb; b != 0; b &= b - 1 {
			doms = append(doms, i+bits.TrailingZeros8(b))
		}
	}
	for ; i < n; i++ {
		k := int(ids[i]) * m
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
