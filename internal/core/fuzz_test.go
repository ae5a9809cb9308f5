package core

import (
	"testing"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/subspace"
)

// FuzzEquivalence drives STopDown, BottomUp and SBottomUp against the Oracle
// with a fuzzer-chosen stream: every byte pair encodes one tuple (two
// dimension values, two measure values, all from tiny domains to maximise
// ties and shared lattices). Any divergence in the discovered fact sets
// fails, and so does a BottomUp-family fact whose skyline size is not the
// brute-force |λ_M(σ_C(R))| over the stream so far.
//
// Run the seeds with `go test`; explore with
// `go test -fuzz FuzzEquivalence ./internal/core`.
func FuzzEquivalence(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78})
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x00, 0x01, 0x42, 0x99, 0x42, 0x99})
	f.Add([]byte("situational facts are contextual skylines"))

	s, err := relation.NewSchema("fuzz",
		[]relation.DimAttr{{Name: "d1"}, {Name: "d2"}},
		[]relation.MeasureAttr{
			{Name: "m1", Direction: relation.LargerBetter},
			{Name: "m2", Direction: relation.SmallerBetter},
		})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 { // keep the oracle affordable
			data = data[:64]
		}
		cfg := Config{Schema: s, MaxBound: -1, MaxMeasure: -1}
		oracle, err := NewOracle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		std, err := NewSTopDown(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bu, err := NewBottomUp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sbu, err := NewSBottomUp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var history []*relation.Tuple
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			tu, err := relation.NewTuple(s, int64(i/2),
				[]int32{int32(a & 0x3), int32((a >> 2) & 0x3)},
				[]float64{float64((a >> 4) & 0x7), float64(b & 0x7)})
			if err != nil {
				t.Fatal(err)
			}
			history = append(history, tu)
			want := oracle.Process(tu)
			if got := std.Process(tu); len(got) != len(want) {
				t.Fatalf("tuple %d: STopDown %d facts, oracle %d", tu.ID, len(got), len(want))
			} else if ok, why := sameFacts(want, got); !ok {
				t.Fatalf("tuple %d: STopDown diverged: %s", tu.ID, why)
			}
			for _, alg := range []*BottomUp{bu, sbu} {
				got := alg.Process(tu)
				if len(got) != len(want) {
					t.Fatalf("tuple %d: %s %d facts, oracle %d", tu.ID, alg.Name(), len(got), len(want))
				} else if ok, why := sameFacts(want, got); !ok {
					t.Fatalf("tuple %d: %s diverged: %s", tu.ID, alg.Name(), why)
				}
				for _, f := range got {
					if n := skylineCount(history, f.Constraint, f.Subspace); int(f.SkylineSize) != n {
						t.Fatalf("tuple %d: %s fact (%v, %b) carries skyline size %d, λ_M(σ_C(R)) holds %d",
							tu.ID, alg.Name(), f.Constraint.Vals, f.Subspace, f.SkylineSize, n)
					}
				}
			}
		}
	})
}

// skylineCount is |λ_M(σ_C(R))| over history, by brute force.
func skylineCount(history []*relation.Tuple, c lattice.Constraint, m subspace.Mask) int {
	n := 0
	for _, u := range history {
		if inContextualSkyline(u, history, c, m) {
			n++
		}
	}
	return n
}
