// Command bench is the repository's benchmark: one program that builds
// cmd/situfactd, generates each workload's input from a seed, drives the
// daemon the way its users do, checks every answer, and prints every
// metric BENCHMARK.json declares. See README.md in this directory.
//
//	bench -workload W -seed N -seconds S -trace 0   one workload, end-to-end metrics
//	bench -workload W -seed N -seconds S -trace 1   one workload, per-layer metrics + spans
//	bench -seed N [-trace 1]                        every workload in turn
//	bench -sets 2 -seed N                           the whole suite twice, then compare
//	bench -compare a.json b.json                    compare two saved suite documents
//
// The last line of standard output is one JSON object; everything else
// goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) set(name string, v float64) { r.Metrics[name] = value{Value: v} }

// suiteDoc is what a whole-suite run prints and -compare reads: one result
// per workload plus where it was taken.
type suiteDoc struct {
	Seed       int64                         `json:"seed"`
	Seconds    int                           `json:"seconds"`
	Trace      bool                          `json:"trace"`
	GoVersion  string                        `json:"go_version"`
	NumCPU     int                           `json:"nproc"`
	GoMaxProcs int                           `json:"gomaxprocs"`
	Inputs     map[string]string             `json:"input_sha256"`
	Spreads    map[string]map[string]float64 `json:"round_spread"`
	Results    map[string]result             `json:"results"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		wname   = flag.String("workload", "", "workload to run (default: every workload in turn)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 0, "run length the fixed work is sized for (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
		root    = flag.String("root", "", "repository root (default: the directory holding BENCHMARK.json, here or one up)")
		sets    = flag.Int("sets", 0, "run the whole suite this many times and compare consecutive sets")
		compare = flag.Bool("compare", false, "compare the two suite documents named as arguments and exit")
		save    = flag.String("o", "", "also write the suite document to this file")
	)
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	dir, err := findRoot(*root)
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	bf, err := loadBenchmarkFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	e2e, layer, err := specFromFile(bf)
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			logf("bench: -compare needs two suite documents")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), e2e, layer)
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	declared := e2e
	if *trace != 0 {
		declared = layer
	}

	env, err := newEnv(dir)
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	// Daemons die with the benchmark on every exit path, signals included.
	defer env.killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		env.killAll()
		os.Exit(130)
	}()
	built, err := env.build()
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	logf("bench: built cmd/situfactd in %.2fs", built.Seconds())

	one := func(w workload) (result, string, map[string]float64, error) {
		w = w.scaled(*seconds, bf.RunSeconds)
		start := time.Now()
		var res result
		var sha string
		var spreads map[string]float64
		var err error
		if *trace != 0 {
			res, sha, err = runTraced(env, w, *seed, logf)
		} else {
			res, sha, spreads, err = runEndToEnd(env, w, *seed, rounds, e2e, logf)
		}
		if err != nil {
			env.keepLogs(fmt.Sprintf("%s-seed%d", w.Name, *seed))
			env.killAll()
			return res, sha, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := conform(&res, declared); err != nil {
			return res, sha, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		logf("bench: %s seed %d took %.1fs", w.Name, *seed, time.Since(start).Seconds())
		return res, sha, spreads, nil
	}

	if *wname != "" {
		w, err := findWorkload(*wname)
		if err != nil {
			logf("bench: %v", err)
			return 2
		}
		res, sha, _, err := one(w)
		if err != nil {
			logf("bench: %v", err)
			return 1
		}
		logf("input sha256 %s", sha)
		printMetrics(os.Stderr, res, declared)
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct || res.Failed > 0 {
			return 1
		}
		return 0
	}

	suite := func() (*suiteDoc, bool) {
		doc := &suiteDoc{
			Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			Inputs: map[string]string{}, Spreads: map[string]map[string]float64{}, Results: map[string]result{},
		}
		ok := true
		for _, w := range workloads {
			res, sha, spreads, err := one(w)
			if err != nil {
				logf("bench: %v", err)
				ok = false
				continue
			}
			logf("== %s (input sha256 %s)", w.Name, sha)
			printMetrics(os.Stderr, res, declared)
			doc.Results[w.Name], doc.Inputs[w.Name], doc.Spreads[w.Name] = res, sha, spreads
			ok = ok && res.Correct && res.Failed == 0
		}
		return doc, ok
	}
	// One suite, or -sets of them with each compared to the one before.
	status := 0
	var prev *suiteDoc
	for i := 0; i < max(*sets, 1); i++ {
		doc, ok := suite()
		if !ok {
			status = 1
		}
		if *sets > 1 {
			if err := writeJSON(filepath.Join(env.outDir, fmt.Sprintf("set-%d.json", i+1)), doc); err != nil {
				logf("bench: %v", err)
				return 1
			}
		}
		if prev != nil && compareDocs(os.Stdout, prev, doc, declared) != 0 {
			status = 1
		}
		prev = doc
	}
	if *save != "" {
		if err := writeJSON(*save, prev); err != nil {
			logf("bench: %v", err)
			return 1
		}
	}
	line, _ := json.Marshal(prev)
	fmt.Println(string(line))
	return status
}

// findRoot locates the checkout: the named directory, else the working
// directory or its parent, whichever holds BENCHMARK.json beside go.mod.
func findRoot(named string) (string, error) {
	candidates := []string{".", ".."}
	if named != "" {
		candidates = []string{named}
	}
	for _, dir := range candidates {
		ok := true
		for _, f := range []string{"BENCHMARK.json", "go.mod", filepath.Join("cmd", "situfactd", "main.go")} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				ok = false
			}
		}
		if ok {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no checkout here: need BENCHMARK.json, go.mod and cmd/situfactd in %v", candidates)
}

// conform checks that a run emitted exactly the declared metrics, each a
// finite number, and stamps the declared units on them.
func conform(res *result, declared []metric) error {
	for _, m := range declared {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v.Value)
		}
		v.Unit = m.Unit
		res.Metrics[m.Name] = v
	}
	if len(res.Metrics) != len(declared) {
		var extra []string
		names := map[string]bool{}
		for _, m := range declared {
			names[m.Name] = true
		}
		for name := range res.Metrics {
			if !names[name] {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("measured metrics %v are not declared in BENCHMARK.json", extra)
	}
	return nil
}

func printMetrics(f *os.File, res result, declared []metric) {
	for _, m := range declared {
		v := res.Metrics[m.Name]
		fmt.Fprintf(f, "%-34s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	fmt.Fprintf(f, "%-34s %14v\n%-34s %14d\n%-34s %14d\n", "correct", res.Correct, "attempted", res.Attempted, "failed", res.Failed)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Which round an end-to-end metric reports.
//
// medianOfRounds: set-up time, as the contract prescribes, and the two that
// interference does not touch report the median round.
//
// The latency median is taken over the REQUESTS, each at the fastest of its
// five rounds (fastestOfRounds): every round sends the same requests in the
// same per-connection order into the same per-shard state, so a request's
// five timings are five measurements of one operation, and interference
// only ever adds to one. Over five sets of ten to twenty runs that median
// spread 5.7–7.6% between quartiles where the median over all rounds'
// samples pooled spread 6.0–10.9%, the best round's median 5.6–13.8%.
//
// Every other end-to-end metric is one timing per round, reported as the
// BEST round. Interference on the machines this runs on is one-sided and
// comes in spells: the same two-core spin loop takes 360 ms or 460 ms for
// seconds to tens of seconds at a time, so a run's median round flips
// between the two regimes from run to run — over ten runs of one seed the
// median round's throughput spread 9.2% between quartiles, the best
// round's 3.6% — while the fastest round is the undisturbed one.
var medianOfRounds = map[string]bool{"setup_s": true, "daemon_peak_rss_mb": true, "disk_bytes_per_row": true}

// scaledByCalib: the timings, reported at the nominal machine speed
// (calib.go). The value is +1 for a time, which a slow machine makes
// longer, and -1 for a rate.
var scaledByCalib = map[string]float64{
	"setup_s": 1, "ingest_p50_ms": 1, "restart_s": 1, "follower_sync_s": 1, "daemon_cpu_ms_per_row": 1,
	"ingest_rows_per_s": -1,
}

// runEndToEnd runs the workload's rounds with tracing off and reports one
// value per end-to-end metric, plus how far the rounds spread.
func runEndToEnd(e *env, w workload, seed int64, rounds int, e2e []metric, logf func(string, ...any)) (result, string, map[string]float64, error) {
	r, err := newRunner(e, w, seed, logf)
	if err != nil {
		return result{}, "", nil, err
	}
	res := result{Correct: true, Metrics: map[string]value{}}
	perRound := map[string][]float64{}
	var writeMs [][]float64
	var calib []float64
	for i := 0; i < rounds; i++ {
		rd, err := r.run()
		if err != nil {
			return res, r.plan.sha256, nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		res.Attempted += rd.ops.attempted
		res.Failed += rd.ops.failed
		if rd.ops.wrong != nil {
			res.Correct = false
			logf("bench: %s round %d: WRONG: %v", w.Name, i+1, rd.ops.wrong)
		}
		for name, v := range rd.e2e {
			perRound[name] = append(perRound[name], v)
		}
		writeMs = append(writeMs, rd.writes.latMs)
		calib = append(calib, rd.calib...)
		line, _ := json.Marshal(rd.e2e)
		logf("bench: %s round %d: %s calibration %.3fs", w.Name, i+1, line, rd.calib)
		logf("bench: %s round %d: %d write requests (%d sampled), %d reads (%d sampled); batches mean %.2f max %d",
			w.Name, i+1, rd.writes.attempted, len(rd.writes.latMs), rd.reads.attempted, len(rd.reads.latMs),
			meanBatch(rd.before, rd.after), rd.after.Ingest.MaxBatch)
	}
	speed := calibNominal.Seconds() / median(calib)
	logf("bench: %s: calibration median %.4fs of %d, nominal %.4fs: timings are reported times %.4f",
		w.Name, median(calib), len(calib), calibNominal.Seconds(), speed)
	spreads := map[string]float64{}
	for _, m := range e2e {
		vs := perRound[m.Name]
		if len(vs) == 0 {
			continue // conform reports it
		}
		var v float64
		switch {
		case medianOfRounds[m.Name]:
			v = median(vs)
		case m.Name == "ingest_p50_ms":
			v = median(fastestOfRounds(writeMs))
		case m.Better == "higher":
			v = percentile(vs, 1)
		default:
			v = percentile(vs, 0)
		}
		if dir := scaledByCalib[m.Name]; dir != 0 {
			logf("bench: %s: %s as timed %.6g %s", w.Name, m.Name, v, m.Unit)
			v *= math.Pow(speed, dir)
		}
		res.set(m.Name, v)
		spreads[m.Name] = spread(vs)
	}
	return res, r.plan.sha256, spreads, nil
}

// fastestOfRounds returns each request's shortest latency over the rounds,
// which all time the same requests in the same order. Rounds of different
// lengths (a request failed) are pooled instead.
func fastestOfRounds(rounds [][]float64) []float64 {
	var pooled []float64
	same := true
	for _, r := range rounds {
		pooled = append(pooled, r...)
		same = same && len(r) == len(rounds[0])
	}
	if !same {
		return pooled
	}
	best := pooled[:len(rounds[0])]
	for _, r := range rounds[1:] {
		for i, v := range r {
			best[i] = min(best[i], v)
		}
	}
	return best
}

// meanBatch is the pipeline's realised batch size between two scrapes.
func meanBatch(before, after *daemonMetrics) float64 {
	if b := after.Ingest.Batches - before.Ingest.Batches; b > 0 {
		return float64(after.Ingest.Enqueued-before.Ingest.Enqueued) / float64(b)
	}
	return 0
}
