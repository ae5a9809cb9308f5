package situfact

// Benchmarks regenerating every table and figure of the paper's evaluation
// in testing.B form: one benchmark (family) per figure, one sub-benchmark
// per algorithm/parameter point. Each iteration processes ONE arriving
// tuple against a pre-warmed state, so ns/op is the per-tuple discovery
// latency the paper charts.
//
// For the full experiment drivers (checkpointed series, counters, file
// I/O, prominence distributions) run `go run ./cmd/situbench -exp all`;
// for the daemon end to end, `bash bench/run.sh` (bench/README.md).

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/prominence"
	"repro/internal/relation"
)

const benchWarmup = 600 // tuples pre-processed before timing starts

// warmupFor scales the warmup to the algorithm's per-tuple cost so the
// whole suite stays runnable: C-CSC is ~an order slower than the lattice
// algorithms, and the file-backed variants cost SECONDS per tuple (their
// I/O cost is the very thing Figs 12–13 measure).
func warmupFor(id harness.AlgorithmID, base int) int {
	switch id {
	case harness.CCSC:
		return base / 4
	case harness.FSBottomUp, harness.FSTopDown:
		return 6
	default:
		return base
	}
}

// benchStream builds an endless NBA (or weather) feed for benchmarks.
type benchStream struct {
	tb   *relation.Table
	next int
	fill func(n int) error
}

func newBenchStream(b testing.TB, dataset string, d, m int) *benchStream {
	b.Helper()
	switch dataset {
	case "nba":
		g, err := gen.NewNBA(gen.NBAConfig{Seed: 42}, d, m)
		if err != nil {
			b.Fatal(err)
		}
		tb := relation.NewTable(g.Schema())
		return &benchStream{tb: tb, fill: func(n int) error { return g.Fill(tb, n) }}
	case "weather":
		g, err := gen.NewWeather(gen.WeatherConfig{Seed: 42}, d, m)
		if err != nil {
			b.Fatal(err)
		}
		tb := relation.NewTable(g.Schema())
		return &benchStream{tb: tb, fill: func(n int) error { return g.Fill(tb, n) }}
	default:
		b.Fatalf("unknown dataset %s", dataset)
		return nil
	}
}

func (s *benchStream) tuple(b testing.TB, i int) *relation.Tuple {
	for i >= s.tb.Len() {
		if err := s.fill(4096); err != nil {
			b.Fatal(err)
		}
	}
	return s.tb.At(i)
}

// benchAlgorithm measures per-tuple Process latency after warmup.
func benchAlgorithm(b *testing.B, dataset string, d, m int, id harness.AlgorithmID, warmup int) {
	b.Helper()
	s := newBenchStream(b, dataset, d, m)
	cfg := core.Config{Schema: s.tb.Schema(), MaxBound: 4, MaxMeasure: -1}
	dir := ""
	if id == harness.FSBottomUp || id == harness.FSTopDown {
		dir = b.TempDir()
	}
	disc, err := harness.NewDiscoverer(id, cfg, dir)
	if err != nil {
		b.Fatal(err)
	}
	defer disc.Close()
	for i := 0; i < warmup; i++ {
		disc.Process(s.tuple(b, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disc.Process(s.tuple(b, warmup+i))
	}
	b.StopTimer()
	met := disc.Metrics()
	if met.Tuples > 0 {
		b.ReportMetric(float64(met.Comparisons)/float64(met.Tuples), "cmp/tuple")
		b.ReportMetric(float64(met.Traversed)/float64(met.Tuples), "constraints/tuple")
	}
	b.ReportMetric(float64(disc.StoreStats().StoredTuples), "stored-entries")
}

// BenchmarkFig7 covers Figure 7: baselines vs BottomUp/TopDown on NBA.
// 7a is the n-series (per-tuple latency at the warm point); 7b/7c sweep d
// and m.
func BenchmarkFig7(b *testing.B) {
	algs := []harness.AlgorithmID{harness.BaselineSeq, harness.BaselineIdx, harness.CCSC,
		harness.BottomUp, harness.TopDown}
	for _, id := range algs {
		b.Run(fmt.Sprintf("a/n/%s", id), func(b *testing.B) {
			benchAlgorithm(b, "nba", 5, 7, id, warmupFor(id, benchWarmup))
		})
	}
	for _, d := range []int{4, 5, 6, 7} {
		for _, id := range algs {
			b.Run(fmt.Sprintf("b/d=%d/%s", d, id), func(b *testing.B) {
				benchAlgorithm(b, "nba", d, 7, id, warmupFor(id, benchWarmup/2))
			})
		}
	}
	for _, m := range []int{4, 5, 6, 7} {
		for _, id := range algs {
			b.Run(fmt.Sprintf("c/m=%d/%s", m, id), func(b *testing.B) {
				benchAlgorithm(b, "nba", 5, m, id, warmupFor(id, benchWarmup/2))
			})
		}
	}
}

// BenchmarkFig8 covers Figure 8: the sharing variants on NBA.
func BenchmarkFig8(b *testing.B) {
	algs := []harness.AlgorithmID{harness.CCSC, harness.BottomUp, harness.TopDown,
		harness.SBottomUp, harness.STopDown}
	for _, id := range algs {
		b.Run(fmt.Sprintf("a/n/%s", id), func(b *testing.B) {
			benchAlgorithm(b, "nba", 5, 7, id, warmupFor(id, benchWarmup))
		})
	}
	for _, d := range []int{4, 5, 6, 7} {
		for _, id := range algs {
			b.Run(fmt.Sprintf("b/d=%d/%s", d, id), func(b *testing.B) {
				benchAlgorithm(b, "nba", d, 7, id, warmupFor(id, benchWarmup/2))
			})
		}
	}
	for _, m := range []int{4, 5, 6, 7} {
		for _, id := range algs {
			b.Run(fmt.Sprintf("c/m=%d/%s", m, id), func(b *testing.B) {
				benchAlgorithm(b, "nba", 5, m, id, warmupFor(id, benchWarmup/2))
			})
		}
	}
}

// BenchmarkFig9 covers Figure 9: the weather dataset.
func BenchmarkFig9(b *testing.B) {
	for _, id := range []harness.AlgorithmID{harness.CCSC, harness.BottomUp, harness.TopDown,
		harness.SBottomUp, harness.STopDown} {
		b.Run(string(id), func(b *testing.B) {
			benchAlgorithm(b, "weather", 5, 7, id, warmupFor(id, benchWarmup))
		})
	}
}

// BenchmarkFig10 covers Figure 10 (memory): the stored-entries custom
// metric reported by every sub-benchmark is Fig 10b's quantity; multiply
// by the encoded tuple size for the Fig 10a estimate.
func BenchmarkFig10(b *testing.B) {
	for _, id := range []harness.AlgorithmID{harness.CCSC, harness.BottomUp, harness.TopDown,
		harness.SBottomUp, harness.STopDown} {
		b.Run(string(id), func(b *testing.B) {
			benchAlgorithm(b, "nba", 5, 7, id, warmupFor(id, benchWarmup))
		})
	}
}

// BenchmarkFig11 covers Figure 11 (work counters): cmp/tuple and
// constraints/tuple custom metrics are Fig 11a and Fig 11b respectively.
func BenchmarkFig11(b *testing.B) {
	for _, id := range []harness.AlgorithmID{harness.BottomUp, harness.TopDown,
		harness.SBottomUp, harness.STopDown} {
		b.Run(string(id), func(b *testing.B) {
			benchAlgorithm(b, "nba", 5, 7, id, warmupFor(id, benchWarmup))
		})
	}
}

// BenchmarkFig12 covers Figure 12: file-based FSBottomUp vs FSTopDown on
// NBA (a: warm per-tuple latency; b/c: d and m sweeps).
func BenchmarkFig12(b *testing.B) {
	fsAlgs := []harness.AlgorithmID{harness.FSBottomUp, harness.FSTopDown}
	for _, id := range fsAlgs {
		b.Run(fmt.Sprintf("a/n/%s", id), func(b *testing.B) {
			benchAlgorithm(b, "nba", 5, 7, id, warmupFor(id, benchWarmup))
		})
	}
	for _, d := range []int{4, 6} { // two sweep points: full sweep via cmd/situbench
		for _, id := range fsAlgs {
			b.Run(fmt.Sprintf("b/d=%d/%s", d, id), func(b *testing.B) {
				benchAlgorithm(b, "nba", d, 7, id, warmupFor(id, benchWarmup))
			})
		}
	}
	for _, m := range []int{4, 6} {
		for _, id := range fsAlgs {
			b.Run(fmt.Sprintf("c/m=%d/%s", m, id), func(b *testing.B) {
				benchAlgorithm(b, "nba", 5, m, id, warmupFor(id, benchWarmup))
			})
		}
	}
}

// BenchmarkFig13 covers Figure 13: file-based variants on weather.
func BenchmarkFig13(b *testing.B) {
	for _, id := range []harness.AlgorithmID{harness.FSBottomUp, harness.FSTopDown} {
		b.Run(string(id), func(b *testing.B) {
			benchAlgorithm(b, "weather", 5, 7, id, warmupFor(id, benchWarmup))
		})
	}
}

// BenchmarkFig14_15 covers Figures 14–15 and the §VII case study: the full
// prominent-fact pipeline (discovery + context counting + scoring +
// threshold test) per arriving tuple under d̂=3, m̂=3.
func BenchmarkFig14_15(b *testing.B) {
	s := newBenchStream(b, "nba", 5, 7)
	cfg := core.Config{Schema: s.tb.Schema(), MaxBound: 3, MaxMeasure: 3}
	alg, err := core.NewSBottomUp(cfg)
	if err != nil {
		b.Fatal(err)
	}
	counter := core.NewContextCounter(5, 3)
	process := func(i int) int {
		tu := s.tuple(b, i)
		facts := alg.Process(tu)
		counter.Observe(tu)
		scored := prominence.Score(facts, counter, alg)
		return len(prominence.Prominent(scored, 50))
	}
	for i := 0; i < benchWarmup; i++ {
		process(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	promFacts := 0
	for i := 0; i < b.N; i++ {
		promFacts += process(benchWarmup + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(promFacts)/float64(b.N)*1000, "prominent/1Ktuples")
}

// BenchmarkTable1Quickstart measures the end-to-end public API on the
// paper's Table I mini-world (the quickstart workload): 7 arrivals with
// prominence ranking.
func BenchmarkTable1Quickstart(b *testing.B) {
	rows := []struct {
		d []string
		m []float64
	}{
		{[]string{"Bogues", "Feb", "1991-92", "Hornets", "Hawks"}, []float64{4, 12, 5}},
		{[]string{"Seikaly", "Feb", "1991-92", "Heat", "Hawks"}, []float64{24, 5, 15}},
		{[]string{"Sherman", "Dec", "1993-94", "Celtics", "Nets"}, []float64{13, 13, 5}},
		{[]string{"Wesley", "Feb", "1994-95", "Celtics", "Nets"}, []float64{2, 5, 2}},
		{[]string{"Wesley", "Feb", "1994-95", "Celtics", "Timberwolves"}, []float64{3, 5, 3}},
		{[]string{"Strickland", "Jan", "1995-96", "Blazers", "Celtics"}, []float64{27, 18, 8}},
		{[]string{"Wesley", "Feb", "1995-96", "Celtics", "Nets"}, []float64{12, 13, 5}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		schema, err := NewSchemaBuilder("gamelog").
			Dimension("player").Dimension("month").Dimension("season").
			Dimension("team").Dimension("opp_team").
			Measure("points", LargerBetter).
			Measure("assists", LargerBetter).
			Measure("rebounds", LargerBetter).
			Build()
		if err != nil {
			b.Fatal(err)
		}
		eng, err := New(schema, Options{})
		if err != nil {
			b.Fatal(err)
		}
		var last *Arrival
		for _, r := range rows {
			if last, err = eng.Append(r.d, r.m); err != nil {
				b.Fatal(err)
			}
		}
		if len(last.Facts) != 195 {
			b.Fatalf("|S_t7| = %d", len(last.Facts))
		}
		eng.Close()
	}
}

// BenchmarkPoolAppend measures sharded ingest throughput on the NBA feed,
// partitioned by team: each iteration accounts for one arriving row, fanned
// to the pool in batches of 64 via AppendBatch. ns/op is the amortised
// per-row ingest latency — with GOMAXPROCS ≥ the shard count it falls as
// shards grow, since batches are absorbed by the shards concurrently while
// per-shard results stay exactly sequential. (On a single-core box the
// sweep degenerates to measuring fan-out overhead.) Each shard count runs
// two modes: pipelined, the AppendBatch of 64 rows through the shard
// writers, and single, one Append per row, the path of a single-row POST:
// its ns/op is one row's whole round trip.
func BenchmarkPoolAppend(b *testing.B) {
	const batch = 64
	const nRows = 4096
	for _, shards := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"pipelined", "single"} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(b *testing.B) {
				s := newBenchStream(b, "nba", 5, 7)
				s.tuple(b, nRows-1) // force generation
				dict := s.tb.Dict()
				d := s.tb.Schema().NumDims()
				rows := make([]Row, nRows)
				for i := range rows {
					tu := s.tb.At(i)
					dims := make([]string, d)
					for j := 0; j < d; j++ {
						dims[j] = dict.Decode(j, tu.Dims[j])
					}
					rows[i] = Row{Dims: dims, Measures: tu.Raw}
				}
				pool, err := NewPool(WrapSchema(s.tb.Schema()), PoolOptions{
					Shards:   shards,
					ShardDim: "team",
					Engine:   Options{MaxBoundDims: 3, MaxMeasureDims: 3},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer pool.Close()
				// One reusable batch buffer: allocating it inside the timed
				// loop would charge harness cost to allocs/op, masking the
				// engine's own allocation behaviour.
				chunk := make([]Row, batch)
				b.ReportAllocs()
				b.ResetTimer()
				if mode == "single" {
					for i := 0; i < b.N; i++ {
						r := rows[i%nRows]
						if _, err := pool.Append(r.Dims, r.Measures); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					for i := 0; i < b.N; i += batch {
						n := batch
						if rem := b.N - i; rem < n {
							n = rem
						}
						for j := 0; j < n; j++ {
							chunk[j] = rows[(i+j)%nRows]
						}
						if _, err := pool.AppendBatch(chunk[:n]); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(pool.Metrics().StoredTuples), "stored-entries")
			})
		}
	}
}

// BenchmarkEngineAppendWide is one whole Engine.Append — discovery, scoring
// and fact materialisation — per iteration at the paper's Fig 7a shape
// (NBA d=5, m=7, d̂=4; the stream of TestEngineAppendAllocsScaleWithConstraints),
// against an engine warmed with 300 rows. An arrival there has some two
// thousand facts (reported as facts/row), so ns/op and allocs/op show what a
// fact costs after it is discovered. The sub-benchmarks time the same rows
// on the same warm engine under each cap on the facts an arrival carries:
// /all (Append), /top5 (what a daemon ack carries) and /count (a batch ack
// or an unobserved replay: the count alone).
func BenchmarkEngineAppendWide(b *testing.B) {
	const warm, span = 300, 200
	schema, rows := wideStream(b, warm+span)
	benchEngineAppend(b, schema, Options{MaxBoundDims: wideDhat}, rows, warm, []int{math.MaxInt, 5, 0})
}

// BenchmarkEngineAppendNarrow is BenchmarkEngineAppendWide at the narrow
// shape (NBA d=4, m=4, d̂=4) against an engine warmed with 3 000 rows: some
// tens of facts an arrival, so discovery's fixed costs per arrival and per
// visited cell weigh more than at the wide shape. /top5 and /count only.
func BenchmarkEngineAppendNarrow(b *testing.B) {
	const warm, span = 3000, 2000
	schema, rows := nbaRows(b, 4, 4, warm+span)
	benchEngineAppend(b, schema, Options{MaxBoundDims: 4}, rows, warm, []int{5, 0})
}

// benchEngineAppend times one Engine.append per iteration of the rows after
// the first warm, one sub-benchmark per cap k (all, top5 or count). The
// engine is rebuilt every len(rows)-warm arrivals, outside the timer, so
// every iteration count measures the same depth of relation.
func benchEngineAppend(b *testing.B, schema *Schema, opt Options, rows []Row, warm int, caps []int) {
	span := len(rows) - warm
	for _, k := range caps {
		name := map[int]string{math.MaxInt: "all", 5: "top5", 0: "count"}[k]
		b.Run(name, func(b *testing.B) {
			var eng *Engine
			defer func() { eng.Close() }()
			facts := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%span == 0 {
					b.StopTimer()
					if eng != nil {
						eng.Close()
					}
					var err error
					if eng, err = New(schema, opt); err != nil {
						b.Fatal(err)
					}
					// Warmed at k = 0, so a profile holds only the timed
					// arrivals' ranking.
					for _, r := range rows[:warm] {
						if _, err := eng.append(r.Dims, r.Measures, 0); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				r := rows[warm+i%span]
				arr, err := eng.append(r.Dims, r.Measures, k)
				if err != nil {
					b.Fatal(err)
				}
				facts += arr.FactCount
			}
			b.StopTimer()
			b.ReportMetric(float64(facts)/float64(b.N), "facts/row")
		})
	}
}

// benchQueryPool is the read benchmarks' pool: the first 4 096 rows of the
// NBA feed (d=5, m=7) under d̂=3, m̂=3, sharded by team and fully ingested —
// some hundreds of thousands of fact groups. It returns the rows too, for
// benchmarks that keep ingesting.
func benchQueryPool(tb testing.TB, shards int) (*Pool, []Row) {
	tb.Helper()
	const nRows = 4096
	s := newBenchStream(tb, "nba", 5, 7)
	s.tuple(tb, nRows-1)
	dict := s.tb.Dict()
	d := s.tb.Schema().NumDims()
	rows := make([]Row, nRows)
	for i := range rows {
		tu := s.tb.At(i)
		dims := make([]string, d)
		for j := 0; j < d; j++ {
			dims[j] = dict.Decode(j, tu.Dims[j])
		}
		rows[i] = Row{Dims: dims, Measures: tu.Raw}
	}
	pool, err := NewPool(WrapSchema(s.tb.Schema()), PoolOptions{
		Shards:   shards,
		ShardDim: "team",
		Engine:   Options{MaxBoundDims: 3, MaxMeasureDims: 3},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := pool.AppendBatch(rows); err != nil {
		pool.Close()
		tb.Fatal(err)
	}
	return pool, rows
}

// BenchmarkPoolQuery measures the read path against a warmed pool on the
// NBA feed: ns/op is one QueryFacts page (limit 100, cursor-advanced so
// successive iterations walk the whole fact set) while the "mixed" mode
// interleaves one appended row per page, so the page pays for read-lock
// acquisition against live ingest rather than an idle pool.
func BenchmarkPoolQuery(b *testing.B) {
	const pageLimit = 100
	for _, shards := range []int{1, 4} {
		for _, mode := range []string{"page", "mixed"} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(b *testing.B) {
				pool, rows := benchQueryPool(b, shards)
				defer pool.Close()
				filter := FactFilter{Shard: AllShards, TupleID: -1}
				cursor := ""
				next := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "mixed" {
						if _, err := pool.Append(rows[next%len(rows)].Dims, rows[next%len(rows)].Measures); err != nil {
							b.Fatal(err)
						}
						next++
					}
					page, err := pool.QueryFacts(filter, cursor, pageLimit)
					if err != nil {
						b.Fatal(err)
					}
					cursor = page.NextCursor // wraps to "" at the end: restart
				}
			})
		}
	}
}

// BenchmarkPoolTopFacts is one leaderboard fill — Pool.TopFacts(10), what a
// GET /v1/facts/top costs behind the read cache — on the 4-shard query
// pool. The walk probes the context counter once per live constraint and
// materialises ten facts per shard; cells/op is what the scan it replaced
// had to materialise and sort instead.
func BenchmarkPoolTopFacts(b *testing.B) {
	pool, _ := benchQueryPool(b, 4)
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if facts, err := pool.TopFacts(10); err != nil || len(facts) != 10 {
			b.Fatalf("TopFacts(10) = %d facts, %v", len(facts), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(pool.IndexStats().Entries), "cells/op")
}

// BenchmarkPoolQueryDeepCursor pins the pagination complexity class: one
// page at depth 0 versus one page deep in the cursor chain, on the
// reference scan (query_oracle_test.go — it re-walks and re-sorts every
// fact before the cursor, so a deep page costs O(n)) and the served
// indexed path (seek + O(page) walk, so depth must not matter). The
// index/deep:first ratio staying near 1 while scan/deep grows with the
// fact count is the index's acceptance number.
func BenchmarkPoolQueryDeepCursor(b *testing.B) {
	const pageLimit = 100
	pool, _ := benchQueryPool(b, 4)
	defer pool.Close()
	filter := FactFilter{Shard: AllShards, TupleID: -1}
	// Walk once to find the chain's midpoint cursor — the "deep" page.
	// The scan produces byte-identical cursors, so one walk serves both.
	var cursors []string
	cursor := ""
	for {
		page, err := pool.QueryFacts(filter, cursor, pageLimit)
		if err != nil {
			b.Fatal(err)
		}
		if page.NextCursor == "" {
			break
		}
		cursors = append(cursors, page.NextCursor)
		cursor = page.NextCursor
	}
	if len(cursors) < 4 {
		b.Fatalf("only %d pages — too shallow to measure depth", len(cursors)+1)
	}
	deep := cursors[len(cursors)/2]
	b.Logf("%d pages of %d; deep page at depth %d", len(cursors)+1, pageLimit, len(cursors)/2+1)
	for _, path := range []struct {
		name  string
		query func(FactFilter, string, int) (FactPage, error)
	}{{"scan", pool.scanFacts}, {"index", pool.QueryFacts}} {
		for _, probe := range []struct{ name, cursor string }{{"first", ""}, {"deep", deep}} {
			b.Run(fmt.Sprintf("%s/%s", path.name, probe.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := path.query(filter, probe.cursor, pageLimit); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// snapshotShapes are the preloads of the two gated benchmark workloads a
// snapshot dominates (bench/spec.go: restart-follow and wide-single), four
// shards by team: the state a daemon checkpoints during set-up and restores
// on restart and on follower bootstrap.
var snapshotShapes = []struct {
	name          string
	d, m, dhat, n int
}{
	{"narrow_d4_m4_n10000", 4, 4, 4, 10000},
	{"wide_d5_m7_n150", 5, 7, 4, 150},
}

// snapshotBenchPool ingests the first n games of the league at the shape.
func snapshotBenchPool(tb testing.TB, d, m, dhat, n int) *Pool {
	tb.Helper()
	schema, rows := nbaRows(tb, d, m, n)
	pool, err := NewPool(schema, PoolOptions{
		Shards: 4, ShardDim: "team", Engine: Options{MaxBoundDims: dhat},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := pool.AppendBatch(rows); err != nil {
		pool.Close()
		tb.Fatal(err)
	}
	return pool
}

// snapshotDirBytes sums the shard snapshot files of a checkpoint directory.
func snapshotDirBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no shard snapshots in %s (%v)", dir, err)
	}
	var total int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			tb.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

// BenchmarkPoolCheckpoint is one Pool.Checkpoint of a loaded pool per
// iteration — encode under each shard's lock, atomic file write, manifest
// commit — at the two gated shapes; bytes/row is what it leaves on disk.
func BenchmarkPoolCheckpoint(b *testing.B) {
	for _, sh := range snapshotShapes {
		b.Run(sh.name, func(b *testing.B) {
			pool := snapshotBenchPool(b, sh.d, sh.m, sh.dhat, sh.n)
			defer pool.Close()
			dir := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.Checkpoint(dir, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(snapshotDirBytes(b, dir))/float64(sh.n), "bytes/row")
		})
	}
}

// BenchmarkPoolRestore is one RestorePool of that checkpoint per iteration:
// what a restart pays before it replays its journal tail, and a follower
// before it asks for one.
func BenchmarkPoolRestore(b *testing.B) {
	for _, sh := range snapshotShapes {
		b.Run(sh.name, func(b *testing.B) {
			pool := snapshotBenchPool(b, sh.d, sh.m, sh.dhat, sh.n)
			defer pool.Close()
			dir := b.TempDir()
			if _, err := pool.Checkpoint(dir, nil); err != nil {
				b.Fatal(err)
			}
			schema := pool.schema
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restored, _, err := RestorePool(schema, dir)
				if err != nil {
					b.Fatal(err)
				}
				if restored.Len() != sh.n {
					b.Fatalf("restored %d rows, want %d", restored.Len(), sh.n)
				}
				restored.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(snapshotDirBytes(b, dir))/float64(sh.n), "bytes/row")
		})
	}
}

// BenchmarkPoolReplayWAL is one ReplayWAL per iteration onto a pool
// restored from a checkpoint: the wide shape (d=5, m=7, d̂=4), four shards
// by team, 150 checkpointed rows and a 250-row journal tail — what a
// restart pays after RestorePool. rows/s is the tail's replay rate.
func BenchmarkPoolReplayWAL(b *testing.B) {
	const preload, tail = 150, 250
	schema, rows := nbaRows(b, 5, 7, preload+tail)
	dir := b.TempDir()
	walDir := filepath.Join(dir, "wal")
	check := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	pool, err := NewPool(schema, PoolOptions{Shards: 4, ShardDim: "team", Engine: Options{MaxBoundDims: 4}})
	check(err)
	w, err := OpenWAL(pool, walDir, WALOptions{})
	check(err)
	check(pool.AttachWAL(w))
	_, err = pool.AppendBatch(rows[:preload])
	check(err)
	_, err = pool.Checkpoint(dir, nil)
	check(err)
	_, err = pool.AppendBatch(rows[preload:])
	check(err)
	check(w.Close())
	check(pool.Close())
	restore := func() *Pool {
		p, _, err := RestorePool(schema, dir)
		check(err)
		return p
	}
	p := restore()
	w, err = OpenWAL(p, walDir, WALOptions{})
	check(err)
	defer w.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			b.StopTimer()
			p = restore()
			b.StartTimer()
		}
		st, err := p.ReplayWAL(w, nil)
		if err != nil || st.Applied != tail || st.Skipped != preload {
			b.Fatalf("ReplayWAL = %+v, %v; want %d applied and %d skipped", st, err, tail, preload)
		}
		b.StopTimer()
		p.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(tail*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// TestMain keeps the benchmark file's imports exercised under plain
// `go test` as well.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
