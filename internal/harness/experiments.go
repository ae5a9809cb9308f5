package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

// Params carries the experiment knobs, mirroring the paper's §VI-A. Zero
// values select per-experiment defaults scaled down from the paper's
// (317K-tuple / 16 GB JVM) setting to laptop budgets; pass explicit values
// to scale up.
type Params struct {
	N           int     // stream length
	D, M        int     // dimension / measure space (Tables V, VI)
	MaxBound    int     // d̂ (paper: 4 for §VI, 3 for §VII)
	MaxMeasure  int     // m̂ (paper: m for §VI, 3 for §VII)
	Tau         float64 // τ for prominence experiments
	Seed        int64
	Checkpoints int
}

func (p Params) withDefaults(n, d, m int) Params {
	if p.N == 0 {
		p.N = n
	}
	if p.D == 0 {
		p.D = d
	}
	if p.M == 0 {
		p.M = m
	}
	if p.MaxBound == 0 {
		p.MaxBound = 4
	}
	if p.MaxMeasure == 0 {
		p.MaxMeasure = -1
	}
	if p.Checkpoints == 0 {
		p.Checkpoints = 10
	}
	return p
}

func (p Params) config(s *relation.Schema) core.Config {
	return core.Config{Schema: s, MaxBound: p.MaxBound, MaxMeasure: p.MaxMeasure}
}

// point is one checkpoint of one algorithm's pass over a stream.
type point struct {
	x  float64 // tuples processed
	ms float64 // average ms per tuple over the checkpoint's window
	Counts
	tupleBytes int // relation.EncodedSize of the stream's schema
}

// column is one quantity a figure charts for each algorithm: a series
// labelled prefix+algorithm, one y per point.
type column struct {
	prefix string
	y      func(point) float64
}

var (
	msPerTuple = []column{{"", func(pt point) float64 { return pt.ms }}}
	memory     = []column{
		{"#", func(pt point) float64 { return float64(pt.StoredTuples) }},
		{"MB:", func(pt point) float64 { return float64(pt.StoredTuples) * float64(pt.tupleBytes) / (1 << 20) }},
	}
	work = []column{
		{"cmp:", func(pt point) float64 { return float64(pt.Comparisons) }},
		{"trv:", func(pt point) float64 { return float64(pt.Traversed) }},
	}
)

// figure declares one experiment of §VI: the stream, the algorithms fed
// it, what varies along x and which columns are charted. Every series
// records the counters behind each of its points, whatever it charts.
type figure struct {
	title, dataset string
	algs           []AlgorithmID
	// sweep is "" to chart against the tuple id, one point per checkpoint;
	// "dimension" or "measure" sweeps d or m over 4–7, one point per run,
	// charting its average time per tuple.
	sweep  string
	chart  []column // msPerTuple when nil (sweeps chart only that)
	ylabel string   // the y axis of a chart other than msPerTuple
	notes  []string
}

// run builds the stream once per sweep point and feeds it to each
// algorithm in turn.
func (f figure) run(p Params) (*Result, error) {
	dir, err := os.MkdirTemp("", "situfact-fs-*") // file-backed stores
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &Result{
		Title:  f.title,
		XLabel: "tuple id",
		YLabel: f.ylabel,
		Notes: []string{fmt.Sprintf("dataset=%s n=%d d=%d m=%d d̂=%d m̂=%d seed=%d",
			f.dataset, p.N, p.D, p.M, p.MaxBound, p.MaxMeasure, p.Seed)},
	}
	cols := f.chart
	if cols == nil {
		cols, res.YLabel = msPerTuple, "execution time per tuple (ms), checkpoint window average"
	}
	vals, checkpoints := []int{0}, p.Checkpoints
	if f.sweep != "" {
		vals, checkpoints = []int{4, 5, 6, 7}, 1
		res.XLabel = "number of " + f.sweep + " attributes"
		res.YLabel = "execution time per tuple (ms), run average"
		res.Notes[0] = fmt.Sprintf("dataset=%s n=%d d̂=%d m̂=%d seed=%d", f.dataset, p.N, p.MaxBound, p.MaxMeasure, p.Seed)
	}
	res.Series = make([]Series, len(f.algs)*len(cols))
	for _, v := range vals {
		q := p
		switch f.sweep {
		case "dimension":
			q.D = v
		case "measure":
			q.M = v
		}
		tb, err := StreamSpec{Dataset: f.dataset, D: q.D, M: q.M, N: q.N, Seed: q.Seed}.Build()
		if err != nil {
			return nil, err
		}
		for i, id := range f.algs {
			d, err := NewDiscoverer(id, q.config(tb.Schema()), filepath.Join(dir, fmt.Sprint(v)))
			if err != nil {
				return nil, err
			}
			pts, avg := feed(d, tb, checkpoints)
			if err := d.Close(); err != nil {
				return nil, err
			}
			for j, col := range cols {
				s := &res.Series[i*len(cols)+j]
				s.Label = col.prefix + string(id)
				for _, pt := range pts {
					if f.sweep != "" {
						pt.x = float64(v)
					}
					s.X, s.Y, s.Counts = append(s.X, pt.x), append(s.Y, col.y(pt)), append(s.Counts, pt.Counts)
				}
			}
			if f.sweep == "" && f.chart == nil {
				note := fmt.Sprintf("%s: overall avg %.4g ms/tuple", id, avg)
				if last := pts[len(pts)-1]; strings.HasPrefix(string(id), "FS") {
					note += fmt.Sprintf(", %d file reads, %d file writes", last.Reads, last.Writes)
				}
				res.Notes = append(res.Notes, note)
			}
		}
	}
	res.Notes = append(res.Notes, f.notes...)
	return res, nil
}

// feed processes the table's tuples in order, recording a point after
// every window of n/checkpoints arrivals and after the last one. It also
// returns the overall average ms per tuple.
func feed(d core.Discoverer, tb *relation.Table, checkpoints int) (pts []point, avgMs float64) {
	n, tupleBytes := tb.Len(), relation.EncodedSize(tb.Schema())
	window := max(n/checkpoints, 1)
	var windowDur, totalDur time.Duration
	count := 0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d.Process(tb.At(i))
		el := time.Since(t0)
		windowDur += el
		totalDur += el
		count++
		if count == window || i == n-1 {
			pts = append(pts, point{
				x:          float64(i + 1),
				ms:         float64(windowDur.Microseconds()) / float64(count) / 1000.0,
				Counts:     Counts{d.Metrics(), d.StoreStats()},
				tupleBytes: tupleBytes,
			})
			windowDur, count = 0, 0
		}
	}
	return pts, float64(totalDur.Microseconds()) / float64(n) / 1000.0
}

var (
	fig7Algs = []AlgorithmID{BaselineSeq, BaselineIdx, CCSC, BottomUp, TopDown}
	fig8Algs = []AlgorithmID{CCSC, BottomUp, TopDown, SBottomUp, STopDown}
	fsAlgs   = []AlgorithmID{FSBottomUp, FSTopDown}
)

// Fig7a: per-tuple time vs n for the baselines, C-CSC, BottomUp, TopDown
// (NBA, d=5, m=7). Expected shape: BottomUp/TopDown beat the baselines by
// orders of magnitude and C-CSC by about one order.
func Fig7a(p Params) (*Result, error) {
	return figure{title: "Fig 7a — time/tuple vs n: baselines vs lattice algorithms (NBA)",
		dataset: "nba", algs: fig7Algs}.run(p.withDefaults(4000, 5, 7))
}

// Fig7b: vs d (4–7), NBA, m=7, fixed n.
func Fig7b(p Params) (*Result, error) {
	return figure{title: "Fig 7b — time/tuple vs d (NBA, m=7)",
		dataset: "nba", algs: fig7Algs, sweep: "dimension"}.run(p.withDefaults(2000, 5, 7))
}

// Fig7c: vs m (4–7), NBA, d=5, fixed n.
func Fig7c(p Params) (*Result, error) {
	return figure{title: "Fig 7c — time/tuple vs m (NBA, d=5)",
		dataset: "nba", algs: fig7Algs, sweep: "measure"}.run(p.withDefaults(2000, 5, 7))
}

// Fig8a: per-tuple time vs n for C-CSC and the four lattice algorithms
// (NBA, d=5, m=7). Expected: sharing (S*) helps; bottom-up beats top-down
// on time.
func Fig8a(p Params) (*Result, error) {
	return figure{title: "Fig 8a — time/tuple vs n: sharing variants (NBA)",
		dataset: "nba", algs: fig8Algs}.run(p.withDefaults(12000, 5, 7))
}

// Fig8b: vs d.
func Fig8b(p Params) (*Result, error) {
	return figure{title: "Fig 8b — time/tuple vs d (NBA, m=7)",
		dataset: "nba", algs: fig8Algs, sweep: "dimension"}.run(p.withDefaults(4000, 5, 7))
}

// Fig8c: vs m.
func Fig8c(p Params) (*Result, error) {
	return figure{title: "Fig 8c — time/tuple vs m (NBA, d=5)",
		dataset: "nba", algs: fig8Algs, sweep: "measure"}.run(p.withDefaults(4000, 5, 7))
}

// Fig9: weather dataset, time vs n. In the paper the bottom-up family
// exhausts the 16 GB heap early on this (larger) dataset; here the note
// reports the stored-tuple gap instead of crashing the host.
func Fig9(p Params) (*Result, error) {
	return figure{title: "Fig 9 — time/tuple vs n (weather)", dataset: "weather", algs: fig8Algs,
		notes: []string{"paper: BottomUp/SBottomUp exhaust the 16GB JVM heap shortly after 0.2M tuples on this dataset; see Fig 10 for the storage gap that causes it"},
	}.run(p.withDefaults(12000, 5, 7))
}

// Fig10 charts memory consumption vs n: (a) estimated resident bytes of
// the µ store, (b) number of stored skyline tuples. Expected shape:
// BottomUp ≫ TopDown by several ×; C-CSC in between (here C-CSC stores
// less than TopDown); the S* variants match their base algorithms exactly
// (same materialisation scheme).
func Fig10(p Params) (*Result, error) {
	return figure{title: "Fig 10 — memory: stored skyline tuples (b) and estimated MB (a) vs n (NBA)",
		dataset: "nba", algs: fig8Algs, chart: memory,
		ylabel: "stored tuple entries (series '#') and estimated MB (series 'MB')",
		notes:  []string{"MB estimate = stored entries × encoded tuple size (see relation.EncodedSize); Fig 10a proxy"},
	}.run(p.withDefaults(12000, 5, 7))
}

// Fig11 charts cumulative work vs n: (a) tuple comparisons, (b) traversed
// constraints, for the four lattice algorithms. Expected: STopDown ≪
// TopDown on both; SBottomUp ≈ BottomUp (the paper's boundary-constraint
// explanation).
func Fig11(p Params) (*Result, error) {
	return figure{title: "Fig 11 — cumulative comparisons (cmp) and traversed constraints (trv) vs n (NBA)",
		dataset: "nba", algs: []AlgorithmID{BottomUp, TopDown, SBottomUp, STopDown}, chart: work, ylabel: "cumulative count",
	}.run(p.withDefaults(12000, 5, 7))
}

// Fig12a: file-based variants vs n (NBA). Expected: FSTopDown beats
// FSBottomUp by multiple times (fewer non-empty cells → fewer file reads
// and writes), inverting the in-memory time ordering.
func Fig12a(p Params) (*Result, error) {
	// seconds/tuple: keep the default run short
	return figure{title: "Fig 12a — file-based time/tuple vs n (NBA)",
		dataset: "nba", algs: fsAlgs}.run(p.withDefaults(120, 5, 7))
}

// Fig12b: file-based vs d.
func Fig12b(p Params) (*Result, error) {
	return figure{title: "Fig 12b — file-based time/tuple vs d (NBA, m=7)",
		dataset: "nba", algs: fsAlgs, sweep: "dimension"}.run(p.withDefaults(40, 5, 7))
}

// Fig12c: file-based vs m.
func Fig12c(p Params) (*Result, error) {
	return figure{title: "Fig 12c — file-based time/tuple vs m (NBA, d=5)",
		dataset: "nba", algs: fsAlgs, sweep: "measure"}.run(p.withDefaults(40, 5, 7))
}

// Fig13: file-based variants on the weather dataset vs n.
func Fig13(p Params) (*Result, error) {
	return figure{title: "Fig 13 — file-based time/tuple vs n (weather)",
		dataset: "weather", algs: fsAlgs}.run(p.withDefaults(120, 5, 7))
}
