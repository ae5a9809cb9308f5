// Package harness drives the experiments of the paper's evaluation
// (Sultana et al., ICDE 2014, §VI–VII): per-tuple execution time under
// varying n, d and m; memory and stored-tuple counts; comparison and
// traversal counters; file-based variants; and the prominence case study.
// Each exported Fig* function regenerates the series of one figure of the
// paper and returns a renderable Result.
//
// Absolute numbers differ from the paper (different hardware, language and
// — necessarily — synthetic rather than proprietary data); the reproduced
// property is the SHAPE of each figure: orderings, gaps in orders of
// magnitude, growth trends and crossovers. Every series of Figs 7–13
// records §VI's counters beside its time (Series.Counts), and
// TestFigureClaims checks each figure's claim against those counts.
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/store"
)

// AlgorithmID names an algorithm in experiment configurations.
type AlgorithmID string

// The algorithm identifiers, matching the paper's names.
const (
	BruteForce  AlgorithmID = "BruteForce"
	BaselineSeq AlgorithmID = "BaselineSeq"
	BaselineIdx AlgorithmID = "BaselineIdx"
	CCSC        AlgorithmID = "C-CSC"
	BottomUp    AlgorithmID = "BottomUp"
	TopDown     AlgorithmID = "TopDown"
	SBottomUp   AlgorithmID = "SBottomUp"
	STopDown    AlgorithmID = "STopDown"
	FSBottomUp  AlgorithmID = "FSBottomUp" // file-backed SBottomUp
	FSTopDown   AlgorithmID = "FSTopDown"  // file-backed STopDown
)

// NewDiscoverer instantiates an algorithm through core's registry. FSBottomUp
// and FSTopDown are SBottomUp and STopDown on a file store under dir (one
// fresh subdirectory per instance; a new temp directory when dir is "").
func NewDiscoverer(id AlgorithmID, cfg core.Config, dir string) (core.Discoverer, error) {
	name := strings.ToLower(strings.ReplaceAll(string(id), "-", ""))
	if id == FSBottomUp || id == FSTopDown {
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "situfact-cells-*"); err != nil {
				return nil, err
			}
		}
		fs, err := store.NewFile(filepath.Join(dir, name), cfg.Schema)
		if err != nil {
			return nil, err
		}
		cfg.Store = fs
		name = strings.TrimPrefix(name, "f")
	}
	return core.NewDiscoverer(name, cfg)
}

// StreamSpec describes a workload stream.
type StreamSpec struct {
	// Dataset is "nba", "weather", or "generic:<dist>" (independent,
	// correlated, anti-correlated).
	Dataset string
	// D, M select the dimension/measure space (Tables V and VI).
	D, M int
	// N is the stream length.
	N int
	// Seed makes the stream deterministic.
	Seed int64
}

// Build materialises the stream as a table.
func (s StreamSpec) Build() (*relation.Table, error) {
	var g interface {
		Schema() *relation.Schema
		Fill(tb *relation.Table, n int) error
	}
	var err error
	switch dist, generic := strings.CutPrefix(s.Dataset, "generic:"); {
	case s.Dataset == "nba":
		g, err = gen.NewNBA(gen.NBAConfig{Seed: s.Seed}, s.D, s.M)
	case s.Dataset == "weather":
		g, err = gen.NewWeather(gen.WeatherConfig{Seed: s.Seed}, s.D, s.M)
	case generic:
		dists := []gen.Distribution{gen.Independent, gen.Correlated, gen.AntiCorrelated}
		i := slices.IndexFunc(dists, func(d gen.Distribution) bool { return d.String() == dist })
		if i < 0 {
			return nil, fmt.Errorf("harness: unknown generic distribution in %q", s.Dataset)
		}
		g, err = gen.NewGeneric(gen.GenericConfig{Seed: s.Seed, D: s.D, M: s.M, Dist: dists[i]})
	default:
		return nil, fmt.Errorf("harness: unknown dataset %q", s.Dataset)
	}
	if err != nil {
		return nil, err
	}
	tb := relation.NewTable(g.Schema())
	return tb, g.Fill(tb, s.N)
}

// Counts are §VI's counters after a checkpoint's last arrival: the
// algorithm's cumulative work (core.Metrics: comparisons and traversed
// constraints) and its µ store's state and I/O (store.Stats: stored tuples,
// cells, reads and writes).
type Counts struct {
	core.Metrics
	store.Stats
}

// Series is one labelled line of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Counts holds the counters behind each point of a Figs 7–13 series,
	// whatever its y charts; nil for Figs 14 and 15, whose y values are
	// themselves counts.
	Counts []Counts
}

// Result is a rendered experiment: the textual equivalent of one figure.
type Result struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render writes the result as an aligned text table (one x column, one
// column per series), preceded by title and followed by notes.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n#   y: %s\n", r.Title, r.YLabel); err != nil {
		return err
	}
	// Collect the union of x values.
	xsSet := map[float64]bool{}
	for _, s := range r.Series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	header := fmt.Sprintf("%-14s", r.XLabel)
	for _, s := range r.Series {
		header += fmt.Sprintf("%16s", s.Label)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, x := range xs {
		row := fmt.Sprintf("%-14g", x)
		for _, s := range r.Series {
			v, ok := lookup(s, x)
			if ok {
				row += fmt.Sprintf("%16.4g", v)
			} else {
				row += fmt.Sprintf("%16s", "-")
			}
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the result as CSV (x, label, y rows).
func (r *Result) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "x,series,y\n"); err != nil {
		return err
	}
	for _, s := range r.Series {
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%g,%s,%g\n", s.X[i], s.Label, s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func lookup(s Series, x float64) (float64, bool) {
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i], true
		}
	}
	return 0, false
}
