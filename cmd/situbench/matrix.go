package main

// Multicore matrix mode: situbench -matrix <situfactd-binary> sweeps a
// grid of daemon configurations (shards × discovery workers per shard ×
// connections × delete fraction), launching a FRESH daemon per trial and
// driving each point with the fixed-work load generator (load.go), so
// every point ingests the same rows into an initially empty relation and
// the numbers are comparable across points and across binaries.
//
// The daemon is configured through flags every binary in the repo's
// BENCH_PR*.json lineage understands: workers > 1 selects
// -algo parallel-bottomup -workers N, workers == 1 the default
// sbottomup — so the same command benchmarks an old binary (before) and
// a new one (after).
//
// Each point runs -matrix-trials times and keeps the median-throughput
// trial's report. -matrix-json writes the whole sweep as one JSON
// document (schema situbench-matrix/v1) stamped with the host's
// GOMAXPROCS, the raw material of BENCH_PR6.json's multicore comparison.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// matrixParams configures one sweep.
type matrixParams struct {
	Binary      string        // situfactd binary to launch per point
	Shards      []int         // -shards values
	Workers     []int         // discovery workers per shard (1 = sbottomup)
	Conns       []int         // generator connection counts
	DeleteFracs []float64     // -load-delete-frac values
	Rows        int64         // fixed work per point (appended rows)
	Trials      int           // trials per point; the median-throughput one is kept
	Batch       int           // rows per request
	Card        int           // distinct values per dimension
	Timeout     time.Duration // per-trial cap (fixed-work runs that exceed it fail)
	Seed        int64
	JSONPath    string // when non-empty, write the matrix report here
}

// matrixPoint is one grid point's outcome.
type matrixPoint struct {
	Shards     int         `json:"shards"`
	Workers    int         `json:"workers"`
	Conns      int         `json:"conns"`
	DeleteFrac float64     `json:"delete_frac"`
	Trials     int         `json:"trials"`
	Report     *loadReport `json:"report"` // the median-throughput trial
}

// matrixReport is the -matrix-json document.
type matrixReport struct {
	Schema     string        `json:"schema"` // "situbench-matrix/v1"
	Binary     string        `json:"binary"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Rows       int64         `json:"rows"`
	Batch      int           `json:"batch"`
	Card       int           `json:"card"`
	Seed       int64         `json:"seed"`
	Points     []matrixPoint `json:"points"`
}

// matrixDims/matrixMeasures are the fixed daemon schema of every matrix
// point: the grid varies concurrency shape, not relation shape.
const (
	matrixDims     = "player,team,opp"
	matrixMeasures = "points,rebounds"
)

// runMatrix executes the sweep and writes one summary line per point.
func runMatrix(w io.Writer, p matrixParams) error {
	if p.Rows <= 0 {
		p.Rows = 4000
	}
	if p.Trials <= 0 {
		p.Trials = 1
	}
	if p.Timeout <= 0 {
		p.Timeout = 2 * time.Minute
	}
	if _, err := exec.LookPath(p.Binary); err != nil {
		return fmt.Errorf("matrix: situfactd binary %q: %w", p.Binary, err)
	}
	rep := matrixReport{
		Schema:     "situbench-matrix/v1",
		Binary:     p.Binary,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Rows:       p.Rows,
		Batch:      p.Batch,
		Card:       p.Card,
		Seed:       p.Seed,
	}
	fmt.Fprintf(w, "matrix: %s — %d rows/point, gomaxprocs=%d, %d trial(s)/point\n",
		p.Binary, p.Rows, rep.GoMaxProcs, p.Trials)
	for _, shards := range p.Shards {
		for _, workers := range p.Workers {
			for _, conns := range p.Conns {
				for _, df := range p.DeleteFracs {
					point, err := runMatrixPoint(p, shards, workers, conns, df)
					if err != nil {
						return fmt.Errorf("matrix point shards=%d workers=%d conns=%d delete-frac=%g: %w",
							shards, workers, conns, df, err)
					}
					rep.Points = append(rep.Points, point)
					fmt.Fprintf(w, "shards=%d workers=%d conns=%d delete-frac=%g: %.1f rows/s (p99 %.2f ms, %d queue resizes)\n",
						shards, workers, conns, df,
						point.Report.RowsPerSec, point.Report.P99Ms, point.Report.QueueResizes)
				}
			}
		}
	}
	if p.JSONPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(p.JSONPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runMatrixPoint measures one grid point: Trials fresh-daemon runs, the
// median-throughput report kept.
func runMatrixPoint(p matrixParams, shards, workers, conns int, deleteFrac float64) (matrixPoint, error) {
	point := matrixPoint{Shards: shards, Workers: workers, Conns: conns, DeleteFrac: deleteFrac, Trials: p.Trials}
	var reports []*loadReport
	for trial := 0; trial < p.Trials; trial++ {
		rep, err := runMatrixTrial(p, shards, workers, conns, deleteFrac, p.Seed+int64(trial))
		if err != nil {
			return point, err
		}
		reports = append(reports, rep)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].RowsPerSec < reports[j].RowsPerSec })
	point.Report = reports[len(reports)/2]
	return point, nil
}

// runMatrixTrial launches one fresh daemon, runs the fixed-work load
// against it, and tears it down.
func runMatrixTrial(p matrixParams, shards, workers, conns int, deleteFrac float64, seed int64) (*loadReport, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{
		"-addr", addr,
		"-dims", matrixDims,
		"-measures", matrixMeasures,
		"-shards", strconv.Itoa(shards),
	}
	if workers > 1 {
		args = append(args, "-algo", "parallel-bottomup", "-workers", strconv.Itoa(workers))
	}
	cmd := exec.Command(p.Binary, args...)
	var daemonLog bytes.Buffer
	cmd.Stdout, cmd.Stderr = &daemonLog, &daemonLog
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", p.Binary, err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	defer stopDaemon(cmd, exited)
	base := "http://" + addr
	if err := waitHealthy(base, 10*time.Second, exited); err != nil {
		return nil, fmt.Errorf("%w; daemon log:\n%s", err, tail(daemonLog.String(), 2048))
	}
	rep, err := executeLoad(io.Discard, loadParams{
		URL:        base,
		Conns:      conns,
		Duration:   p.Timeout,
		Batch:      p.Batch,
		Card:       p.Card,
		Dist:       "uniform",
		DeleteFrac: deleteFrac,
		Rows:       p.Rows,
		Seed:       seed,
	})
	if err != nil {
		return nil, fmt.Errorf("%w; daemon log:\n%s", err, tail(daemonLog.String(), 2048))
	}
	return rep, nil
}

// freePort reserves an ephemeral localhost port and releases it for the
// daemon. The tiny reuse race is harmless here: the daemon's bind fails,
// waitHealthy times out, and the point errors out rather than mismeasures.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port, nil
}

// waitHealthy polls GET /healthz until the daemon answers 200, it exits
// (bad flags, bind failure), or the timeout lapses.
func waitHealthy(base string, timeout time.Duration, exited <-chan struct{}) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return fmt.Errorf("daemon exited before becoming healthy")
		default:
		}
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy after %s", timeout)
}

// stopDaemon SIGTERMs the daemon and waits briefly for the graceful path,
// escalating to SIGKILL so a wedged trial cannot hang the sweep.
func stopDaemon(cmd *exec.Cmd, exited <-chan struct{}) {
	if cmd.Process == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-exited
	}
}

// tail returns the last at-most-n bytes of s, for error context.
func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n:]
}

// parseIntList parses a comma-separated int list ("1,4,8").
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s %q: want positive comma-separated ints", flagName, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloatList parses a comma-separated float list ("0,0.1").
func parseFloatList(flagName, s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 || v >= 1 {
			return nil, fmt.Errorf("bad %s %q: want comma-separated fractions in [0, 1)", flagName, s)
		}
		out = append(out, v)
	}
	return out, nil
}
