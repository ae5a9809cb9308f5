package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden from this run")

// figureCases lists every figure at the parameters its tests run it at:
// small enough for tier-1, large enough for the paper's claims to show.
// SITUFACT_LONG_TESTS=1 runs TestFigureClaims at long instead. The
// file-backed figures (12a–13) run a one-attribute lattice (d̂ = m̂ = 1): a
// file store writes one file per cell, so under the experiments' own caps
// even one tuple costs seconds, matching the 0.5–2.5 s/tuple the paper
// itself reports for them.
var figureCases = []struct {
	id      string
	run     func(Params) (*Result, error)
	p, long Params
}{
	{"fig7a", Fig7a, Params{N: 100, Checkpoints: 4, Seed: 7}, Params{N: 600, Checkpoints: 4, Seed: 7}},
	{"fig7b", Fig7b, Params{N: 20, Checkpoints: 4, Seed: 7}, Params{N: 200, Checkpoints: 4, Seed: 7}},
	{"fig7c", Fig7c, Params{N: 20, Checkpoints: 4, Seed: 7}, Params{N: 200, Checkpoints: 4, Seed: 7}},
	{"fig8a", Fig8a, Params{N: 80, Checkpoints: 4, Seed: 7}, Params{N: 600, Checkpoints: 4, Seed: 7}},
	{"fig8b", Fig8b, Params{N: 20, Checkpoints: 4, Seed: 7}, Params{N: 200, Checkpoints: 4, Seed: 7}},
	{"fig8c", Fig8c, Params{N: 20, Checkpoints: 4, Seed: 7}, Params{N: 200, Checkpoints: 4, Seed: 7}},
	{"fig9", Fig9, Params{N: 80, Checkpoints: 4, Seed: 7}, Params{N: 600, Checkpoints: 4, Seed: 7}},
	{"fig10", Fig10, Params{N: 80, Checkpoints: 4, Seed: 7}, Params{N: 600, Checkpoints: 4, Seed: 7}},
	{"fig11", Fig11, Params{N: 600, Checkpoints: 4, Seed: 7}, Params{N: 3000, Checkpoints: 4, Seed: 7}},
	{"fig12a", Fig12a, Params{N: 4, Checkpoints: 2, Seed: 7, MaxBound: 1, MaxMeasure: 1}, Params{N: 6, Checkpoints: 2, Seed: 7}},
	{"fig12b", Fig12b, Params{N: 2, Checkpoints: 2, Seed: 7, MaxBound: 1, MaxMeasure: 1}, Params{N: 3, Checkpoints: 2, Seed: 7}},
	{"fig12c", Fig12c, Params{N: 2, Checkpoints: 2, Seed: 7, MaxBound: 1, MaxMeasure: 1}, Params{N: 3, Checkpoints: 2, Seed: 7}},
	{"fig13", Fig13, Params{N: 4, Checkpoints: 2, Seed: 7, MaxBound: 1, MaxMeasure: 1}, Params{N: 6, Checkpoints: 2, Seed: 7}},
	{"fig14", Fig14, Params{N: 1500, Checkpoints: 4, Seed: 7, Tau: 5}, Params{N: 5000, Checkpoints: 4, Seed: 7, Tau: 5}},
	{"fig15", Fig15, Params{N: 1500, Checkpoints: 4, Seed: 7, Tau: 5}, Params{N: 5000, Checkpoints: 4, Seed: 7, Tau: 5}},
}

// caseStudyParams are the parameters TestCaseStudy and the golden run the
// §VII case study at.
var caseStudyParams = Params{N: 1500, Checkpoints: 4, Seed: 7, Tau: 10}

// figureSet is every figure of figureCases run once, plus the case study's
// text; the tests that read them share one run.
type figureSet struct {
	res       map[string]*Result
	caseStudy string
}

// figureRuns holds the one run of figureCases at their test parameters
// (false) and at their long ones (true).
var figureRuns = map[bool]*struct {
	once sync.Once
	set  figureSet
	err  error
}{false: {}, true: {}}

// runFigures runs figureCases (at long when asked) and the case study once
// per test binary, as many at a time as GOMAXPROCS allows.
func runFigures(t *testing.T, long bool) figureSet {
	t.Helper()
	run := figureRuns[long]
	run.once.Do(func() {
		run.set.res = map[string]*Result{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		fail := func(err error) {
			mu.Lock()
			if run.err == nil {
				run.err = err
			}
			mu.Unlock()
		}
		for _, fc := range figureCases {
			p := fc.p
			if long {
				p = fc.long
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				res, err := fc.run(p)
				if err != nil {
					fail(fmt.Errorf("%s: %w", fc.id, err))
					return
				}
				mu.Lock()
				run.set.res[fc.id] = res
				mu.Unlock()
			}()
		}
		var buf bytes.Buffer
		if err := CaseStudy(&buf, caseStudyParams); err != nil {
			fail(fmt.Errorf("casestudy: %w", err))
		}
		run.set.caseStudy = buf.String()
		wg.Wait()
	})
	if run.err != nil {
		t.Fatal(run.err)
	}
	return run.set
}

// countFigures are the figures whose y values are §VI/§VII counts rather
// than timings; the golden pins their y values as well as their x values.
var countFigures = map[string]bool{"fig10": true, "fig11": true, "fig14": true, "fig15": true}

// TestFiguresGolden pins every figure's title, series labels and x values,
// the y values of every count-valued series (Fig 10's stored entries and
// MB, Fig 11's comparisons and traversals, Figs 14 and 15), the comparison
// counts behind every C-CSC timing series and the case study's text, byte
// for byte. Timings are never pinned.
// `go test ./internal/harness -run TestFiguresGolden -update` rewrites
// testdata/figures.golden; any other change to it changes what a figure
// reports.
func TestFiguresGolden(t *testing.T) {
	set := runFigures(t, false)
	var out bytes.Buffer
	for _, fc := range figureCases {
		res := set.res[fc.id]
		fmt.Fprintf(&out, "== %s: %s\n", fc.id, res.Title)
		for _, s := range res.Series {
			fmt.Fprintf(&out, "%s\n  x: %v\n", s.Label, s.X)
			if countFigures[fc.id] {
				fmt.Fprintf(&out, "  y: %v\n", s.Y)
			}
			if s.Label == string(CCSC) {
				cmp := make([]int64, len(s.Counts))
				for i, c := range s.Counts {
					cmp[i] = c.Comparisons
				}
				fmt.Fprintf(&out, "  comparisons: %v\n", cmp)
			}
		}
	}
	fmt.Fprintf(&out, "== casestudy\n%s", set.caseStudy)

	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d differs:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// counter is one of §VI's counters as a Series records it.
type counter struct {
	name string
	of   func(Counts) int64
}

var (
	comparisons = counter{"comparisons", func(c Counts) int64 { return c.Comparisons }}
	traversed   = counter{"traversed constraints", func(c Counts) int64 { return c.Traversed }}
	stored      = counter{"stored tuples", func(c Counts) int64 { return c.StoredTuples }}
	fileReads   = counter{"file reads", func(c Counts) int64 { return c.Reads }}
	fileWrites  = counter{"file writes", func(c Counts) int64 { return c.Writes }}
)

// operand is one side of a claim: a number read off one series of a
// figure. The zero operand is the constant 0.
type operand struct {
	series, what string
	of           func(Series) float64
}

// end reads a counter at the series' last point: the run's total for a
// sweep figure, the count after the last arrival for one charted against n.
func end(series string, c counter) operand {
	return operand{series, c.name, func(s Series) float64 { return float64(c.of(s.Counts[len(s.Counts)-1])) }}
}

// win reads a counter's increase over the last checkpoint window: the work
// behind the per-tuple time a figure charted against n plots last.
func win(series string, c counter) operand {
	return operand{series, c.name + " in the last window", func(s Series) float64 {
		n := len(s.Counts)
		return float64(c.of(s.Counts[n-1]) - c.of(s.Counts[n-2]))
	}}
}

// yAt reads the series' y at x (0 when x is not charted).
func yAt(series string, x float64) operand {
	return operand{series, fmt.Sprintf("y at x=%g", x), func(s Series) float64 { v, _ := lookup(s, x); return v }}
}

// minY reads the series' smallest y.
func minY(series string) operand {
	return operand{series, "smallest y", func(s Series) float64 { return slices.Min(s.Y) }}
}

// peakY reads the series' largest y among xs.
func peakY(series string, xs ...float64) operand {
	return operand{series, fmt.Sprintf("largest y at x in %v", xs), func(s Series) float64 {
		m := 0.0
		for _, x := range xs {
			v, _ := lookup(s, x)
			m = max(m, v)
		}
		return m
	}}
}

// several is the factor the claims read "several times" as.
const several = 5

// figureClaims is the paper's evaluation, figure by figure: each row is a
// claim as the inequality a op k·b between two numbers read off the
// figure's series. Times are never asserted; the counters behind them
// are. A claim of a figure charted against n reads the last checkpoint
// window, where the paper's per-tuple time is read; a sweep figure's reads
// the last sweep point (d or m = 7).
var figureClaims = []struct {
	fig, claim string
	a          operand
	op         string
	k          float64
	b          operand
}{
	{"fig7a", "BottomUp compares less per tuple than the baselines", win("BottomUp", comparisons), "<", 1, win("BaselineSeq", comparisons)},
	{"fig7a", "BottomUp compares less per tuple than the baselines", win("BottomUp", comparisons), "<", 1, win("BaselineIdx", comparisons)},
	{"fig7a", "BottomUp compares less per tuple than C-CSC", win("BottomUp", comparisons), "<", 1, win("C-CSC", comparisons)},
	{"fig7a", "TopDown compares less per tuple than the baselines", win("TopDown", comparisons), "<", 1, win("BaselineSeq", comparisons)},
	{"fig7a", "TopDown compares less per tuple than the baselines", win("TopDown", comparisons), "<", 1, win("BaselineIdx", comparisons)},
	{"fig7a", "TopDown compares less per tuple than C-CSC", win("TopDown", comparisons), "<", 1, win("C-CSC", comparisons)},
	{"fig7b", "BottomUp compares less than C-CSC at d=7", end("BottomUp", comparisons), "<", 1, end("C-CSC", comparisons)},
	{"fig7b", "TopDown compares less than C-CSC at d=7", end("TopDown", comparisons), "<", 1, end("C-CSC", comparisons)},
	{"fig7b", "TopDown compares less than BaselineSeq at d=7", end("TopDown", comparisons), "<", 1, end("BaselineSeq", comparisons)},
	{"fig7c", "BottomUp compares less than C-CSC at m=7", end("BottomUp", comparisons), "<", 1, end("C-CSC", comparisons)},
	{"fig7c", "TopDown compares less than C-CSC at m=7", end("TopDown", comparisons), "<", 1, end("C-CSC", comparisons)},
	{"fig7c", "TopDown compares less than BaselineSeq at m=7", end("TopDown", comparisons), "<", 1, end("BaselineSeq", comparisons)},
	{"fig8a", "sharing cuts TopDown's comparisons per tuple at least in half", win("STopDown", comparisons), "<", 0.5, win("TopDown", comparisons)},
	{"fig8a", "sharing saves BottomUp comparisons per tuple", win("SBottomUp", comparisons), "<", 1, win("BottomUp", comparisons)},
	{"fig8a", "BottomUp traverses fewer constraints per tuple than TopDown", win("BottomUp", traversed), "<", 1, win("TopDown", traversed)},
	{"fig8b", "sharing saves TopDown comparisons at d=7", end("STopDown", comparisons), "<", 1, end("TopDown", comparisons)},
	{"fig8b", "sharing saves BottomUp comparisons at d=7", end("SBottomUp", comparisons), "<", 1, end("BottomUp", comparisons)},
	{"fig8b", "BottomUp traverses fewer constraints than TopDown at d=7", end("BottomUp", traversed), "<", 1, end("TopDown", traversed)},
	{"fig8c", "sharing saves TopDown comparisons at m=7", end("STopDown", comparisons), "<", 1, end("TopDown", comparisons)},
	{"fig8c", "sharing saves BottomUp comparisons at m=7", end("SBottomUp", comparisons), "<", 1, end("BottomUp", comparisons)},
	{"fig8c", "BottomUp traverses fewer constraints than TopDown at m=7", end("BottomUp", traversed), "<", 1, end("TopDown", traversed)},
	{"fig9", "BottomUp stores several times TopDown's tuples on weather (its heap runs out)", end("BottomUp", stored), ">", several, end("TopDown", stored)},
	{"fig9", "SBottomUp stores what BottomUp stores on weather", end("SBottomUp", stored), "==", 1, end("BottomUp", stored)},
	{"fig9", "sharing saves TopDown comparisons per tuple on weather", win("STopDown", comparisons), "<", 1, win("TopDown", comparisons)},
	{"fig10", "BottomUp stores several times TopDown's tuples", end("#BottomUp", stored), ">", several, end("#TopDown", stored)},
	{"fig10", "SBottomUp stores what BottomUp stores (same materialisation)", end("#SBottomUp", stored), "==", 1, end("#BottomUp", stored)},
	{"fig10", "STopDown stores what TopDown stores (same materialisation)", end("#STopDown", stored), "==", 1, end("#TopDown", stored)},
	{"fig11", "STopDown makes far fewer comparisons than TopDown", end("cmp:STopDown", comparisons), "<", 0.5, end("cmp:TopDown", comparisons)},
	{"fig11", "STopDown traverses no more constraints than TopDown", end("trv:STopDown", traversed), "<=", 1, end("trv:TopDown", traversed)},
	{"fig11", "sharing saves SBottomUp traversals", end("trv:SBottomUp", traversed), "<", 1, end("trv:BottomUp", traversed)},
	{"fig11", "but SBottomUp ≈ BottomUp on traversals (boundary constraints)", end("trv:SBottomUp", traversed), ">", 0.8, end("trv:BottomUp", traversed)},
	{"fig11", "and SBottomUp ≈ BottomUp on comparisons (boundary constraints)", end("cmp:SBottomUp", comparisons), ">", 0.8, end("cmp:BottomUp", comparisons)},
	{"fig12a", "FSTopDown reads fewer cell files than FSBottomUp", end("FSTopDown", fileReads), "<", 1, end("FSBottomUp", fileReads)},
	{"fig12a", "FSTopDown writes fewer cell files than FSBottomUp", end("FSTopDown", fileWrites), "<", 1, end("FSBottomUp", fileWrites)},
	{"fig12b", "FSTopDown reads fewer cell files than FSBottomUp at d=7", end("FSTopDown", fileReads), "<", 1, end("FSBottomUp", fileReads)},
	{"fig12b", "FSTopDown writes fewer cell files than FSBottomUp at d=7", end("FSTopDown", fileWrites), "<", 1, end("FSBottomUp", fileWrites)},
	{"fig12c", "FSTopDown reads fewer cell files than FSBottomUp at m=7", end("FSTopDown", fileReads), "<", 1, end("FSBottomUp", fileReads)},
	{"fig12c", "FSTopDown writes fewer cell files than FSBottomUp at m=7", end("FSTopDown", fileWrites), "<", 1, end("FSBottomUp", fileWrites)},
	{"fig13", "FSTopDown reads fewer cell files than FSBottomUp on weather", end("FSTopDown", fileReads), "<", 1, end("FSBottomUp", fileReads)},
	{"fig13", "FSTopDown writes fewer cell files than FSBottomUp on weather", end("FSTopDown", fileWrites), "<", 1, end("FSBottomUp", fileWrites)},
	{"fig14", "new contexts keep forming: every 1K bucket has prominent facts", minY("τ=5"), ">", 1, operand{}},
	{"fig15", "bound(C) humps at 1–2 (τ): above 0 bound attributes", peakY("b=,τ=5", 1, 2), ">", 1, yAt("b=,τ=5", 0)},
	{"fig15", "bound(C) humps at 1–2 (τ): above 3 bound attributes", peakY("b=,τ=5", 1, 2), ">", 1, yAt("b=,τ=5", 3)},
	{"fig15", "bound(C) humps at 1–2 (10τ): above 0 bound attributes", peakY("b=,τ=50", 1, 2), ">", 1, yAt("b=,τ=50", 0)},
	{"fig15", "bound(C) humps at 1–2 (10τ): above 3 bound attributes", peakY("b=,τ=50", 1, 2), ">", 1, yAt("b=,τ=50", 3)},
	{"fig15", "|M| humps at 2 (τ): above single measures", yAt("m=,τ=5", 2), ">", 1, yAt("m=,τ=5", 1)},
	{"fig15", "|M| humps at 2 (τ): above three measures", yAt("m=,τ=5", 2), ">", 1, yAt("m=,τ=5", 3)},
	{"fig15", "|M| humps at 2 (10τ): above single measures", yAt("m=,τ=50", 2), ">", 1, yAt("m=,τ=50", 1)},
	{"fig15", "|M| humps at 2 (10τ): above three measures", yAt("m=,τ=50", 2), ">", 1, yAt("m=,τ=50", 3)},
}

// TestFigureClaims checks every figure's claims (figureClaims) on one run
// of figureCases, and that each figure renders with well-formed series.
// SITUFACT_LONG_TESTS=1 checks them at the cases' long parameters.
func TestFigureClaims(t *testing.T) {
	set := runFigures(t, os.Getenv("SITUFACT_LONG_TESTS") != "")
	for _, fc := range figureCases {
		t.Run(fc.id, func(t *testing.T) {
			res := set.res[fc.id]
			checkRenders(t, res)
			read := func(o operand) float64 {
				if o.series == "" {
					return 0
				}
				for _, s := range res.Series {
					if s.Label == o.series {
						return o.of(s)
					}
				}
				t.Fatalf("%s: no series %q", fc.id, o.series)
				return 0
			}
			claims := 0
			for _, c := range figureClaims {
				if c.fig != fc.id {
					continue
				}
				claims++
				a, b := read(c.a), read(c.b)
				held := map[string]bool{"<": a < c.k*b, "<=": a <= c.k*b, "==": a == c.k*b, ">": a > c.k*b}[c.op]
				if !held {
					t.Errorf("%s: %s: %s %s = %.0f, want %s %g × %s %s = %.0f",
						fc.id, c.claim, c.a.series, c.a.what, a, c.op, c.k, c.b.series, c.b.what, b)
				}
			}
			if claims == 0 {
				t.Errorf("%s: no claim in figureClaims", fc.id)
			}
		})
	}
}

// checkRenders requires every series to have as many y values (and
// counters, where recorded) as x values, and the figure to render as text
// under its title and as CSV.
func checkRenders(t *testing.T, res *Result) {
	t.Helper()
	for _, s := range res.Series {
		if len(s.X) == 0 || len(s.Y) != len(s.X) || (s.Counts != nil && len(s.Counts) != len(s.X)) {
			t.Fatalf("%s/%s: %d x, %d y, %d counts", res.Title, s.Label, len(s.X), len(s.Y), len(s.Counts))
		}
	}
	var text, csv bytes.Buffer
	if err := res.Render(&text); err != nil || !strings.Contains(text.String(), res.Title) {
		t.Errorf("Render: %v, title present: %v", err, strings.Contains(text.String(), res.Title))
	}
	if err := res.RenderCSV(&csv); err != nil || !strings.HasPrefix(csv.String(), "x,series,y\n") {
		t.Errorf("RenderCSV: %v, header present: %v", err, strings.HasPrefix(csv.String(), "x,series,y\n"))
	}
}
