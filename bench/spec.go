package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// workload is one traffic mix. Every workload runs the same lifecycle
// (set-up → ingest with reads → crash → restart → follower attach, see
// e2e.go), so every end-to-end metric exists on every workload; what
// differs is where the time goes. Row counts are the work of ONE round at
// the default run length and scale linearly with -seconds.
type workload struct {
	Name string
	// D, M, Dhat select the NBA relation shape (paper Tables V/VI) and
	// the daemon's -dhat.
	D, M, Dhat int
	// Preload rows are batch-loaded and checkpointed during set-up: the
	// state a restart restores from its snapshot.
	Preload int
	// Rows are ingested in the measured phase: the tail a restart replays.
	Rows int
	// Batch is rows per append request: 1 = POST /v1/tuples with Top,
	// more = POST /v1/tuples:batch.
	Batch int
	Top   int
	// DeleteEvery makes every n-th writer request a DELETE of a row that
	// writer was acked for earlier (0 = append only).
	DeleteEvery int
	// ReadRate > 0 runs the open-loop reader beside the writers at this
	// many reads/s; 0 runs Reads reads after ingest on a quiet daemon.
	ReadRate int
	Reads    int
	// OracleRows is how many of each shard's first rows are checked
	// against brute force (paper Alg. 2), whose cost is quadratic in rows
	// and linear in the (constraint, subspace) pairs of the shape: 300
	// narrow rows cost about 1.4 s, 10 wide ones about 2 s.
	OracleRows int
	// Flags are daemon flags beyond the common set.
	Flags []string
}

// The common daemon shape of every workload (ISSUE: 4 shards by team,
// group-commit WAL, pipeline on, defaults otherwise) and the load shape:
// one generator process, two connections (nproc = 2).
const (
	shards     = 4
	shardDim   = "team"
	conns      = 2
	rounds     = 5
	warmupFrac = 0.05 // share of a round's requests excluded from latency samples
)

var workloads = []workload{
	{
		Name: "wide-single",
		D:    5, M: 7, Dhat: 4,
		Preload: 150, Rows: 250, Batch: 1, Top: 5, Reads: 600, OracleRows: 10,
	},
	{
		Name: "narrow-single",
		D:    4, M: 4, Dhat: 4,
		Preload: 2000, Rows: 3000, Batch: 1, Top: 5, Reads: 600, OracleRows: 300,
	},
	{
		Name: "narrow-batch-mixed",
		D:    4, M: 4, Dhat: 4,
		Preload: 2000, Rows: 12000, Batch: 32, DeleteEvery: 20, ReadRate: 100, OracleRows: 300,
		Flags: []string{"-read-cache-ttl", "100ms"},
	},
	{
		Name: "restart-follow",
		D:    4, M: 4, Dhat: 4,
		Preload: 10000, Rows: 1500, Batch: 1, Top: 5, Reads: 600, OracleRows: 300,
	},
}

// metric is one reported number. Bound is 0 for per-layer metrics.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks one workload, naming the offending field in the error.
func (w workload) validate() error {
	bad := func(field string, format string, args ...any) error {
		return fmt.Errorf("workload %q: %s: %s", w.Name, field, fmt.Sprintf(format, args...))
	}
	switch {
	case !nameRE.MatchString(w.Name):
		return bad("name", "must match %s", nameRE)
	case w.D < 4 || w.D > 8:
		return bad("d", "NBA dimension spaces exist for 4..8, got %d", w.D)
	case w.M < 4 || w.M > 7:
		return bad("m", "NBA measure spaces exist for 4..7, got %d", w.M)
	case w.Dhat < 1 || w.Dhat > w.D:
		return bad("dhat", "must be in 1..d, got %d", w.Dhat)
	case w.Preload < 0:
		return bad("preload", "must be >= 0, got %d", w.Preload)
	case w.Rows < 1:
		return bad("rows", "must be >= 1, got %d", w.Rows)
	case w.Batch < 1 || w.Batch > 4096:
		return bad("batch", "must be in 1..4096, got %d", w.Batch)
	case w.Top < 0:
		return bad("top", "must be >= 0, got %d", w.Top)
	case w.DeleteEvery < 0 || w.DeleteEvery == 1:
		return bad("delete_every", "must be 0 or >= 2 (a writer cannot only delete), got %d", w.DeleteEvery)
	case w.ReadRate < 0 || w.ReadRate > 10000:
		return bad("read_rate", "must be in 0..10000, got %d", w.ReadRate)
	case w.ReadRate == 0 && w.Reads < 1:
		return bad("reads", "a workload without a concurrent reader needs reads >= 1, got %d", w.Reads)
	case w.ReadRate > 0 && w.Reads != 0:
		return bad("reads", "is fixed by read_rate and the ingest time, must be 0, got %d", w.Reads)
	case w.OracleRows < 1:
		return bad("oracle_rows", "must be >= 1, got %d", w.OracleRows)
	case len(w.Flags)%2 != 0:
		return bad("flags", "must be flag/value pairs, got %d strings", len(w.Flags))
	}
	return nil
}

// validateSpec checks the tables this program reports against each other
// and against the contract's limits.
func validateSpec(ws []workload, e2e, layer []metric) error {
	if len(ws) < 2 || len(ws) > 8 {
		return fmt.Errorf("workloads: need 2..8, got %d", len(ws))
	}
	if len(e2e) < 1 || len(e2e) > 16 {
		return fmt.Errorf("end_to_end: need 1..16 metrics, got %d", len(e2e))
	}
	if len(layer) < 1 || len(layer) > 128 {
		return fmt.Errorf("per_layer: need 1..128 metrics, got %d", len(layer))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if err := w.validate(); err != nil {
			return err
		}
		if seen[w.Name] {
			return fmt.Errorf("workload %q: name: used twice", w.Name)
		}
		seen[w.Name] = true
	}
	setup := false
	for i, m := range append(append([]metric(nil), e2e...), layer...) {
		list := "end_to_end"
		if i >= len(e2e) {
			list = "per_layer"
		}
		bad := func(field, format string, args ...any) error {
			return fmt.Errorf("%s metric %q: %s: %s", list, m.Name, field, fmt.Sprintf(format, args...))
		}
		switch {
		case !nameRE.MatchString(m.Name):
			return bad("name", "must match %s", nameRE)
		case seen[m.Name]:
			return bad("name", "used twice")
		case !unitRE.MatchString(m.Unit):
			return bad("unit", "%q must match %s", m.Unit, unitRE)
		case m.Better != "lower" && m.Better != "higher":
			return bad("better", "must be lower or higher, got %q", m.Better)
		case list == "end_to_end" && (m.Bound <= 0 || m.Bound > 0.25):
			return bad("bound", "must be in (0, 0.25], got %v", m.Bound)
		case list == "per_layer" && m.Bound != 0:
			return bad("bound", "per-layer metrics have none, got %v", m.Bound)
		}
		seen[m.Name] = true
		if m.Name == "setup_s" && list == "end_to_end" {
			if m.Unit != "s" || m.Better != "lower" {
				return bad("unit", "setup_s must be in s, lower is better")
			}
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end: setup_s is missing")
	}
	return nil
}

// loadBenchmarkFile reads BENCHMARK.json.
func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// specFromFile returns the workload and metric tables, taking names,
// bounds and units from BENCHMARK.json so the file is the single place
// they are declared, and refusing a file this program does not implement.
func specFromFile(bf *benchmarkFile) (e2e, layer []metric, err error) {
	if len(bf.Workloads) != len(workloads) {
		return nil, nil, fmt.Errorf("BENCHMARK.json names %d workloads, this program implements %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			return nil, nil, fmt.Errorf("BENCHMARK.json workload %d is %q, this program implements %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return nil, nil, fmt.Errorf("BENCHMARK.json workload %q: why: must be one line of 1..200 characters, got %d", w.Name, len(w.Why))
		}
	}
	if err := validateSpec(workloads, bf.EndToEnd, bf.PerLayer); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf.EndToEnd, bf.PerLayer, nil
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// scaled returns the workload with its row, read and oracle counts scaled
// to a run of the given length; the frozen counts above are for
// defaultSeconds.
func (w workload) scaled(seconds, defaultSeconds int) workload {
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		v := n * seconds / defaultSeconds
		if v < 1 {
			v = 1
		}
		return v
	}
	w.Preload = scale(w.Preload)
	w.Rows = scale(w.Rows)
	w.Reads = scale(w.Reads)
	w.OracleRows = max(2, scale(w.OracleRows))
	// The latency samples and the delete schedule need a few requests
	// per connection to mean anything.
	w.Rows = max(w.Rows, (8+w.DeleteEvery)*conns*w.Batch)
	return w
}
