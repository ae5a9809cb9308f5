// Command situfact streams CSV rows through the discovery engine and
// prints situational facts as they emerge — the "newsroom monitor" use
// case of the paper's introduction.
//
// The input's first CSV row must be a header; the -dims and -measures
// flags partition the columns. Measures default to larger-is-better;
// prefix a name with '-' for smaller-is-better (e.g. -measures
// points,assists,-fouls).
//
// Usage:
//
//	situfact -dims player,team,opp_team -measures points,rebounds,-fouls \
//	         [-algo sbottomup] [-dhat 3] [-mhat 3] [-tau 100] [-top 3] \
//	         [-shards 4] [-shard-dim team] [-batch 64] [input.csv]
//
// With no input file, rows are read from stdin, enabling live pipelines:
//
//	tail -f gamelog.csv | situfact -dims ... -measures ...
//
// -shards N partitions the stream by the -shard-dim value across N engines
// running in parallel (batches of -batch rows are fanned out together). A
// sharded run is a situfact.Pool, which runs only bottomup or sbottomup: any
// other -algo fails before the input is read. Every algorithm runs as a
// single engine.
// Sharded mode trades latency for throughput: output appears only when a
// batch fills (or at EOF), so a slow live feed can sit on buffered rows
// indefinitely. For tail -f–style pipelines use -batch 1 (per-row
// processing, still sharded) or a single engine.
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	situfact "repro"
)

// config carries every run parameter; flags fill one in main.
type config struct {
	dims     string  // comma-separated dimension column names
	measures string  // comma-separated measure column names ('-' prefix = smaller-is-better)
	algo     string  // algorithm name (core registry)
	dhat     int     // max bound dimension attributes (0 = no cap)
	mhat     int     // max measure subspace size (0 = no cap)
	tau      float64 // only print arrivals with max prominence ≥ τ
	top      int     // facts to print per arrival
	quiet    bool    // summary only
	shards   int     // engine count; ≤ 1 = single engine
	shardDim string  // dimension routing rows to shards; "" = first dimension
	batch    int     // rows fanned out per AppendBatch in sharded mode
}

func main() {
	var cfg config
	flag.StringVar(&cfg.dims, "dims", "", "comma-separated dimension column names (required)")
	flag.StringVar(&cfg.measures, "measures", "", "comma-separated measure column names; '-' prefix = smaller-is-better (required)")
	flag.StringVar(&cfg.algo, "algo", "sbottomup", "algorithm: "+strings.Join(situfact.Algorithms(), "|"))
	flag.IntVar(&cfg.dhat, "dhat", 0, "max bound dimension attributes (0 = no cap)")
	flag.IntVar(&cfg.mhat, "mhat", 0, "max measure subspace size (0 = no cap)")
	flag.Float64Var(&cfg.tau, "tau", 0, "only print arrivals whose max prominence ≥ τ (0 = print every arrival with facts)")
	flag.IntVar(&cfg.top, "top", 3, "facts to print per arrival")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress per-arrival output; print summary only")
	flag.IntVar(&cfg.shards, "shards", 1, "partition the stream across this many engines (≤ 1 = single engine); sharded runs take -algo bottomup or sbottomup only")
	flag.StringVar(&cfg.shardDim, "shard-dim", "", "dimension column whose value routes a row to its shard (default: first of -dims)")
	flag.IntVar(&cfg.batch, "batch", 64, "rows fanned out together per batch in sharded mode (output waits for a full batch; use 1 for live feeds)")
	flag.Parse()

	if cfg.dims == "" || cfg.measures == "" {
		flag.Usage()
		os.Exit(2)
	}
	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, os.Stdout, cfg); err != nil {
		fatal(err)
	}
}

// sink abstracts the two front-ends (single engine, sharded pool) for the
// streaming loop. append returns the arrivals that became ready with this
// row — one per row for the engine, a whole batch at fan-out points for
// the pool — paired with the dimension values of the rows they belong to;
// flush drains whatever is still buffered at EOF.
type sink interface {
	append(dims []string, measures []float64) ([]*situfact.Arrival, [][]string, error)
	flush() ([]*situfact.Arrival, [][]string, error)
	metrics() situfact.Metrics
	algorithm() string
	close() error
}

func run(in io.Reader, out io.Writer, cfg config) error {
	schema, specs, err := situfact.ParseSchema("stream", cfg.dims, cfg.measures)
	if err != nil {
		return err
	}
	dimNames := schema.DimensionNames()
	measureNames := make([]string, len(specs))
	for i, sp := range specs {
		measureNames[i] = sp.Name
	}
	opt := situfact.Options{
		Algorithm:      situfact.Algorithm(cfg.algo),
		MaxBoundDims:   cfg.dhat,
		MaxMeasureDims: cfg.mhat,
	}
	switch opt.Algorithm {
	case situfact.AlgoBruteForce, situfact.AlgoBaselineSeq, situfact.AlgoBaselineIdx, situfact.AlgoCCSC:
		// Baselines have no µ store, so prominence cannot be computed.
		opt.DisableProminence = true
	}
	var snk sink
	if cfg.shards > 1 {
		pool, err := situfact.NewPool(schema, situfact.PoolOptions{
			Shards:   cfg.shards,
			ShardDim: strings.TrimSpace(cfg.shardDim),
			Engine:   opt,
		})
		if err != nil {
			return err
		}
		snk = &poolSink{pool: pool, batch: max(cfg.batch, 1)}
	} else {
		eng, err := situfact.New(schema, opt)
		if err != nil {
			return err
		}
		snk = &engineSink{eng: eng}
	}
	defer snk.close()

	r := csv.NewReader(bufio.NewReader(in))
	header, err := r.Read()
	if err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[strings.TrimSpace(h)] = i
	}
	for _, n := range dimNames {
		if _, ok := col[strings.TrimSpace(n)]; !ok {
			return fmt.Errorf("dimension column %q not in header %v", n, header)
		}
	}
	for _, n := range measureNames {
		if _, ok := col[n]; !ok {
			return fmt.Errorf("measure column %q not in header %v", n, header)
		}
	}

	w := bufio.NewWriter(out)
	defer w.Flush()
	arrivals, printed := 0, 0
	sharded := cfg.shards > 1
	emit := func(arr *situfact.Arrival, dv []string) {
		if n := printArrival(w, arr, dv, cfg, sharded); n > 0 {
			printed++
		}
	}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		dv := make([]string, len(dimNames))
		for i, n := range dimNames {
			dv[i] = rec[col[strings.TrimSpace(n)]]
		}
		mv := make([]float64, len(measureNames))
		for i, n := range measureNames {
			v, err := strconv.ParseFloat(rec[col[n]], 64)
			if err != nil {
				return fmt.Errorf("row %d: measure %s: %w", arrivals+1, n, err)
			}
			mv[i] = v
		}
		arrs, dims, err := snk.append(dv, mv)
		if err != nil {
			return err
		}
		arrivals++
		for i, arr := range arrs {
			emit(arr, dims[i])
		}
	}
	arrs, dims, err := snk.flush()
	if err != nil {
		return err
	}
	for i, arr := range arrs {
		emit(arr, dims[i])
	}
	m := snk.metrics()
	fmt.Fprintf(w, "# %d arrivals, %d printed; algorithm %s", arrivals, printed, snk.algorithm())
	if sharded {
		fmt.Fprintf(w, "; %d shards", cfg.shards)
	}
	fmt.Fprintf(w, "; %d facts total; %d comparisons; %d stored entries\n",
		m.Facts, m.Comparisons, m.StoredTuples)
	return nil
}

// printArrival writes one arrival's facts subject to the quiet/τ/top
// settings, returning the number of lines a caller should count as
// "printed" (0 or 1 arrivals).
func printArrival(w io.Writer, arr *situfact.Arrival, dv []string, cfg config, sharded bool) int {
	if cfg.quiet || len(arr.Facts) == 0 {
		return 0
	}
	prefix := fmt.Sprintf("tuple %d", arr.TupleID)
	if sharded {
		prefix = fmt.Sprintf("shard %d %s", arr.Shard, prefix)
	}
	if cfg.tau > 0 {
		prom := arr.Prominent(cfg.tau)
		if len(prom) == 0 {
			return 0
		}
		fmt.Fprintf(w, "%s (%s):\n", prefix, strings.Join(dv, ","))
		for _, f := range prom[:min(cfg.top, len(prom))] {
			fmt.Fprintf(w, "  PROMINENT %s\n", f)
		}
		return 1
	}
	fmt.Fprintf(w, "%s (%s): %d facts\n", prefix, strings.Join(dv, ","), len(arr.Facts))
	for _, f := range arr.Top(cfg.top) {
		fmt.Fprintf(w, "  %s\n", f)
	}
	return 1
}

// engineSink feeds a single engine; every append returns its arrival.
type engineSink struct {
	eng *situfact.Engine
}

func (s *engineSink) append(dv []string, mv []float64) ([]*situfact.Arrival, [][]string, error) {
	arr, err := s.eng.Append(dv, mv)
	if err != nil {
		return nil, nil, err
	}
	return []*situfact.Arrival{arr}, [][]string{dv}, nil
}
func (s *engineSink) flush() ([]*situfact.Arrival, [][]string, error) { return nil, nil, nil }
func (s *engineSink) metrics() situfact.Metrics                       { return s.eng.Metrics() }
func (s *engineSink) algorithm() string                               { return s.eng.Algorithm() }
func (s *engineSink) close() error                                    { return s.eng.Close() }

// poolSink buffers rows and fans each full batch across the pool's shards
// concurrently; arrivals surface at flush points in input order.
type poolSink struct {
	pool  *situfact.Pool
	batch int
	rows  []situfact.Row
	dims  [][]string
}

func (s *poolSink) append(dv []string, mv []float64) ([]*situfact.Arrival, [][]string, error) {
	s.rows = append(s.rows, situfact.Row{Dims: dv, Measures: mv})
	s.dims = append(s.dims, dv)
	if len(s.rows) < s.batch {
		return nil, nil, nil
	}
	return s.flush()
}

func (s *poolSink) flush() ([]*situfact.Arrival, [][]string, error) {
	if len(s.rows) == 0 {
		return nil, nil, nil
	}
	arrs, err := s.pool.AppendBatch(s.rows)
	dims := s.dims
	s.rows, s.dims = nil, nil
	return arrs, dims, err
}

func (s *poolSink) metrics() situfact.Metrics { return s.pool.Metrics() }
func (s *poolSink) algorithm() string         { return s.pool.Algorithm() }
func (s *poolSink) close() error              { return s.pool.Close() }

func fatal(err error) {
	// The library prefixes its own errors with the package name; avoid
	// "situfact: situfact: …" stutter under the binary-name prefix.
	fmt.Fprintln(os.Stderr, "situfact:", strings.TrimPrefix(err.Error(), "situfact: "))
	os.Exit(1)
}
