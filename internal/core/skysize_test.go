package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/relation"
)

// TestDiscoverySizesAreSkylines: every fact the BottomUp family emits
// carries |λ_M(σ_C(R))| including the arrival — the length, read back from
// the store once Process has returned, of the cell discovery appended the
// arrival to. The stream is the paper's Fig 7a shape (NBA, d = 5, m = 7),
// uncapped, under a d̂ cap and under an m̂ cap (where SBottomUp keeps
// µ(C, 𝕄) without reporting it).
func TestDiscoverySizesAreSkylines(t *testing.T) {
	const rows = 300
	g, err := gen.NewNBA(gen.NBAConfig{Seed: 2014}, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	tb := relation.NewTable(g.Schema())
	if err := g.Fill(tb, rows); err != nil {
		t.Fatal(err)
	}
	for _, ctor := range []func(Config) (*BottomUp, error){NewBottomUp, NewSBottomUp} {
		for _, caps := range []struct {
			name       string
			dhat, mhat int
		}{{"uncapped", -1, -1}, {"dhat=2", 2, -1}, {"mhat=3", -1, 3}} {
			alg, err := ctor(Config{Schema: tb.Schema(), MaxBound: caps.dhat, MaxMeasure: caps.mhat})
			if err != nil {
				t.Fatal(err)
			}
			t.Run(alg.Name()+"/"+caps.name, func(t *testing.T) {
				defer alg.Close()
				facts := 0
				for _, tu := range tb.Tuples() {
					for _, f := range alg.Process(tu) {
						if want := alg.SkylineSize(f.Constraint, f.Subspace); int(f.SkylineSize) != want {
							t.Fatalf("tuple %d, fact (%v, %b): carries skyline size %d, the store's cell holds %d",
								tu.ID, f.Constraint.Vals, f.Subspace, f.SkylineSize, want)
						}
						facts++
					}
				}
				if facts < 100*rows {
					t.Fatalf("only %d facts over %d arrivals: not the wide shape", facts, rows)
				}
			})
		}
	}
}
