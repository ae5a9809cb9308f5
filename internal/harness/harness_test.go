package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// tiny returns laptop-instant parameters for smoke tests.
func tiny() Params {
	return Params{N: 200, Checkpoints: 4, Seed: 7}
}

func checkResult(t *testing.T, res *Result, err error, wantSeries int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", res.Title, len(res.Series), wantSeries)
	}
	for _, s := range res.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Fatalf("%s/%s: bad series lengths %d/%d", res.Title, s.Label, len(s.X), len(s.Y))
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), res.Title) {
		t.Error("rendered output missing title")
	}
	buf.Reset()
	if err := res.RenderCSV(&buf); err != nil {
		t.Fatalf("RenderCSV: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "x,series,y") {
		t.Error("CSV output missing header")
	}
}

func TestFig7a(t *testing.T) {
	res, err := Fig7a(tiny())
	checkResult(t, res, err, 5)
}

func TestFig7bc(t *testing.T) {
	p := tiny()
	p.N = 60
	res, err := Fig7b(p)
	checkResult(t, res, err, 5)
	for _, s := range res.Series {
		if len(s.X) != 4 {
			t.Errorf("%s: %d sweep points, want 4 (d=4..7)", s.Label, len(s.X))
		}
	}
	res, err = Fig7c(p)
	checkResult(t, res, err, 5)
}

func TestFig8(t *testing.T) {
	res, err := Fig8a(tiny())
	checkResult(t, res, err, 5)
	p := tiny()
	p.N = 60
	res, err = Fig8b(p)
	checkResult(t, res, err, 5)
	res, err = Fig8c(p)
	checkResult(t, res, err, 5)
}

func TestFig9(t *testing.T) {
	res, err := Fig9(tiny())
	checkResult(t, res, err, 5)
}

func TestFig10ShapeHolds(t *testing.T) {
	p := tiny()
	p.N = 600
	res, err := Fig10(p)
	checkResult(t, res, err, 10)
	// The paper's headline memory result: BottomUp stores several times
	// more tuple entries than TopDown, and the S* variants match their
	// bases exactly.
	last := func(label string) float64 {
		for _, s := range res.Series {
			if s.Label == label {
				return s.Y[len(s.Y)-1]
			}
		}
		t.Fatalf("series %q missing", label)
		return 0
	}
	bu, td := last("#BottomUp"), last("#TopDown")
	if bu <= td {
		t.Errorf("BottomUp stored %.0f entries, TopDown %.0f; want BottomUp > TopDown", bu, td)
	}
	if last("#SBottomUp") != bu {
		t.Errorf("SBottomUp storage %.0f != BottomUp %.0f (same materialisation scheme)", last("#SBottomUp"), bu)
	}
	if last("#STopDown") != td {
		t.Errorf("STopDown storage %.0f != TopDown %.0f", last("#STopDown"), td)
	}
}

func TestFig11ShapeHolds(t *testing.T) {
	p := tiny()
	p.N = 600
	res, err := Fig11(p)
	checkResult(t, res, err, 8)
	last := func(label string) float64 {
		for _, s := range res.Series {
			if s.Label == label {
				return s.Y[len(s.Y)-1]
			}
		}
		t.Fatalf("series %q missing", label)
		return 0
	}
	if last("cmp:STopDown") > last("cmp:TopDown") {
		t.Errorf("STopDown comparisons (%.0f) exceed TopDown (%.0f)", last("cmp:STopDown"), last("cmp:TopDown"))
	}
	if last("trv:STopDown") > last("trv:TopDown") {
		t.Errorf("STopDown traversals (%.0f) exceed TopDown (%.0f)", last("trv:STopDown"), last("trv:TopDown"))
	}
	if last("trv:SBottomUp") > last("trv:BottomUp") {
		t.Errorf("SBottomUp traversals (%.0f) exceed BottomUp (%.0f)", last("trv:SBottomUp"), last("trv:BottomUp"))
	}
}

func TestFig12and13(t *testing.T) {
	if testing.Short() {
		t.Skip("file-based experiments do real per-cell I/O")
	}
	// Per-cell file I/O makes even one tuple expensive: under the paper's
	// caps (d̂ = 4, every subspace) FSBottomUp writes 31 × 127 cell files for
	// a tuple at d=5, m=7 and 16 256 at d=7 — seconds per tuple, matching the
	// 0.5–2.5 s/tuple the paper itself reports for the FS variants. What is
	// asserted is the shape of each result, which two tuples (one per
	// checkpoint window) over a small lattice (d̂ = m̂ = 2: 16 × 28 files)
	// give; SITUFACT_LONG_TESTS=1 runs the experiments' own caps on streams
	// long enough to read timings off.
	p := tiny()
	p.Checkpoints = 2
	p.MaxBound, p.MaxMeasure = 2, 2
	n, sweepN := 2, 2
	if os.Getenv("SITUFACT_LONG_TESTS") != "" {
		p.MaxBound, p.MaxMeasure = 0, 0 // the experiments' defaults
		n, sweepN = 6, 3
	}
	p.N = n
	res, err := Fig12a(p)
	checkResult(t, res, err, 2)
	p.N = sweepN
	res, err = Fig12b(p)
	checkResult(t, res, err, 2)
	res, err = Fig12c(p)
	checkResult(t, res, err, 2)
	p.N = n
	res, err = Fig13(p)
	checkResult(t, res, err, 2)
}

func TestFig14(t *testing.T) {
	p := tiny()
	p.N = 2500
	p.Tau = 5
	res, err := Fig14(p)
	checkResult(t, res, err, 1)
	total := 0.0
	for _, y := range res.Series[0].Y {
		total += y
	}
	if total == 0 {
		t.Error("no prominent facts found at a low τ — generator or scoring broken")
	}
}

func TestFig15(t *testing.T) {
	p := tiny()
	p.N = 2500
	p.Tau = 5
	res, err := Fig15(p)
	checkResult(t, res, err, 6)
}

func TestCaseStudy(t *testing.T) {
	var buf bytes.Buffer
	p := tiny()
	p.N = 1500
	p.Tau = 10
	if err := CaseStudy(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
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
