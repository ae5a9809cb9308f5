package core

import (
	"math"
	"math/rand"
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
				checkArrival(t, alg, tu, history, want)
			}
		}
	})
}

// checkArrival processes tu, the last tuple of history, on alg and checks
// its facts against the oracle's, want, and each fact's skyline size
// against the brute-force |λ_M(σ_C(R))|.
func checkArrival(t *testing.T, alg *BottomUp, tu *relation.Tuple, history []*relation.Tuple, want []Fact) {
	t.Helper()
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

// TestStampWrapAround runs BottomUp and SBottomUp across the wrap of both
// 32-bit scratch stamps: the per-pass epoch (pruned, queued and ancestor
// marks) and the per-arrival key stamp (constraint ids, fact values, fresh
// constraints). A long-running engine reaches the epoch's after about 33 M
// wide arrivals. Three arrivals mark the scratch with small stamps, then both
// jump to just below 2^32 and wrap within the next arrival, so one that did
// not clear the marks would meet those small stamps again at once. Every
// arrival is checked as FuzzEquivalence checks it.
func TestStampWrapAround(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tb := randomTable(t, rng, 60, 3, 2, 3, 4)
	cfg := Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	oracle, err := NewOracle(cfg)
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
	algs := []*BottomUp{bu, sbu}
	var history []*relation.Tuple
	for i, tu := range tb.Tuples() {
		if i == 3 {
			for _, alg := range algs {
				alg.epoch, alg.keyStamp = math.MaxUint32-2, math.MaxUint32-2
			}
		}
		history = append(history, tu)
		want := oracle.Process(tu)
		for _, alg := range algs {
			checkArrival(t, alg, tu, history, want)
		}
	}
	for _, alg := range algs {
		if alg.epoch >= math.MaxUint32-2 || alg.keyStamp >= math.MaxUint32-2 {
			t.Errorf("%s: stamps at epoch %d, key %d: not wrapped", alg.Name(), alg.epoch, alg.keyStamp)
		}
	}
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
