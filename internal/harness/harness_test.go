package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestCaseStudy(t *testing.T) {
	out := runFigures(t, false).caseStudy
	if !strings.Contains(out, "Case study") || !strings.Contains(out, "arrivals with prominent facts") {
		t.Errorf("case study output malformed:\n%s", out)
	}
}

func TestStreamSpecErrors(t *testing.T) {
	if _, err := (StreamSpec{Dataset: "nope", D: 5, M: 7, N: 1}).Build(); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := (StreamSpec{Dataset: "generic:nope", D: 2, M: 2, N: 1}).Build(); err == nil {
		t.Error("unknown generic distribution accepted")
	}
	if _, err := (StreamSpec{Dataset: "nba", D: 99, M: 7, N: 1}).Build(); err == nil {
		t.Error("bad d accepted")
	}
}

func TestStreamSpecGeneric(t *testing.T) {
	for _, dist := range []string{"independent", "correlated", "anti-correlated"} {
		tb, err := (StreamSpec{Dataset: "generic:" + dist, D: 3, M: 3, N: 50, Seed: 1}).Build()
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if tb.Len() != 50 {
			t.Errorf("%s: %d rows", dist, tb.Len())
		}
	}
}

func TestNewDiscovererRegistry(t *testing.T) {
	tb, err := (StreamSpec{Dataset: "nba", D: 4, M: 4, N: 1, Seed: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	for _, id := range []AlgorithmID{BruteForce, BaselineSeq, BaselineIdx, CCSC,
		BottomUp, TopDown, SBottomUp, STopDown, FSBottomUp, FSTopDown} {
		d, err := NewDiscoverer(id, cfg, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		d.Process(tb.At(0))
		d.Close()
	}
	if _, err := NewDiscoverer("nope", cfg, ""); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
