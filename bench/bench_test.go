package main

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) (*benchmarkFile, []metric, []metric) {
	t.Helper()
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer, err := specFromFile(bf)
	if err != nil {
		t.Fatal(err)
	}
	return bf, e2e, layer
}

// BENCHMARK.json and this program describe the same benchmark, within the
// contract's limits.
func TestBenchmarkFile(t *testing.T) {
	bf, e2e, layer := loadSpec(t)
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings", len(bf.Command))
	}
	for _, arg := range bf.Command[1:] {
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "bench/") {
			t.Errorf("command names %q, outside paths", arg)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(e2e) > 16 || len(layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(e2e), len(layer))
	}
}

// corruptions lists, per workload field, a value validate must refuse.
var corruptions = []struct {
	field string
	set   func(w *workload)
}{
	{"name", func(w *workload) { w.Name = "has space" }},
	{"name", func(w *workload) { w.Name = "" }},
	{"d", func(w *workload) { w.D = 3 }},
	{"d", func(w *workload) { w.D = 9 }},
	{"m", func(w *workload) { w.M = 8 }},
	{"dhat", func(w *workload) { w.Dhat = 0 }},
	{"dhat", func(w *workload) { w.Dhat = w.D + 1 }},
	{"preload", func(w *workload) { w.Preload = -1 }},
	{"rows", func(w *workload) { w.Rows = 0 }},
	{"batch", func(w *workload) { w.Batch = 0 }},
	{"batch", func(w *workload) { w.Batch = 5000 }},
	{"top", func(w *workload) { w.Top = -1 }},
	{"delete_every", func(w *workload) { w.DeleteEvery = 1 }},
	{"delete_every", func(w *workload) { w.DeleteEvery = -2 }},
	{"read_rate", func(w *workload) { w.ReadRate = -5 }},
	{"reads", func(w *workload) { w.ReadRate, w.Reads = 0, 0 }},
	{"reads", func(w *workload) { w.ReadRate, w.Reads = 100, 7 }},
	{"oracle_rows", func(w *workload) { w.OracleRows = 0 }},
	{"flags", func(w *workload) { w.Flags = []string{"-read-cache-ttl"} }},
}

// Every workload is valid as shipped, and any single corrupted field is
// refused with an error that names the field — as a table over every
// corruption and as a random sweep over (workload, corruption) pairs.
func TestWorkloadValidation(t *testing.T) {
	refuse := func(w workload, field string, set func(*workload)) {
		t.Helper()
		w.Flags = append([]string(nil), w.Flags...)
		set(&w)
		err := w.validate()
		if err == nil {
			t.Errorf("%s with a bad %s: accepted", w.Name, field)
		} else if !strings.Contains(err.Error(), ": "+field+": ") {
			t.Errorf("%s with a bad %s: error %q does not name the field", w.Name, field, err)
		}
	}
	for _, w := range workloads {
		if err := w.validate(); err != nil {
			t.Errorf("shipped workload: %v", err)
		}
		if err := w.scaled(1, 60).validate(); err != nil {
			t.Errorf("shipped workload scaled down: %v", err)
		}
	}
	for _, c := range corruptions {
		refuse(workloads[0], c.field, c.set)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		c := corruptions[rng.Intn(len(corruptions))]
		refuse(workloads[rng.Intn(len(workloads))].scaled(1+rng.Intn(30), 12), c.field, c.set)
	}
}

func TestSpecValidation(t *testing.T) {
	_, e2e, layer := loadSpec(t)
	clone := func(ms []metric) []metric { return append([]metric(nil), ms...) }
	for _, c := range []struct {
		field string
		spec  func() ([]workload, []metric, []metric)
	}{
		{"name", func() ([]workload, []metric, []metric) {
			ws := append([]workload(nil), workloads...)
			ws[1].Name = ws[0].Name
			return ws, e2e, layer
		}},
		{"workloads", func() ([]workload, []metric, []metric) { return workloads[:1], e2e, layer }},
		{"unit", func() ([]workload, []metric, []metric) {
			l := clone(layer)
			l[0].Unit = "micro seconds"
			return workloads, e2e, l
		}},
		{"better", func() ([]workload, []metric, []metric) {
			e := clone(e2e)
			e[1].Better = "faster"
			return workloads, e, layer
		}},
		{"bound", func() ([]workload, []metric, []metric) {
			e := clone(e2e)
			e[1].Bound = 0.3
			return workloads, e, layer
		}},
		{"bound", func() ([]workload, []metric, []metric) {
			l := clone(layer)
			l[0].Bound = 0.1
			return workloads, e2e, l
		}},
		{"name", func() ([]workload, []metric, []metric) {
			l := clone(layer)
			l[0].Name = e2e[0].Name
			return workloads, e2e, l
		}},
		{"setup_s", func() ([]workload, []metric, []metric) {
			var e []metric
			for _, m := range e2e {
				if m.Name != "setup_s" {
					e = append(e, m)
				}
			}
			return workloads, e, layer
		}},
	} {
		ws, e, l := c.spec()
		if err := validateSpec(ws, e, l); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("corrupted %s: got %v", c.field, err)
		}
	}
}

func TestConformRefusesDrift(t *testing.T) {
	declared := []metric{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}}
	ok := result{Metrics: map[string]value{"a": {Value: 1}, "b": {Value: 0}}}
	if err := conform(&ok, declared); err != nil || ok.Metrics["a"].Unit != "ms" {
		t.Errorf("conforming result: %v, %+v", err, ok.Metrics)
	}
	missing := result{Metrics: map[string]value{"a": {Value: 1}}}
	if err := conform(&missing, declared); err == nil || !strings.Contains(err.Error(), "b") {
		t.Errorf("missing metric: %v", err)
	}
	extra := result{Metrics: map[string]value{"a": {Value: 1}, "b": {Value: 0}, "c": {Value: 2}}}
	if err := conform(&extra, declared); err == nil || !strings.Contains(err.Error(), "c") {
		t.Errorf("undeclared metric: %v", err)
	}
	nan := result{Metrics: map[string]value{"a": {Value: 1}, "b": {Value: 0}}}
	nan.Metrics["b"] = value{Value: nan.Metrics["b"].Value / nan.Metrics["b"].Value}
	if err := conform(&nan, declared); err == nil {
		t.Error("NaN accepted")
	}
}

// Every workload, at about a fiftieth of its size, emits every metric
// BENCHMARK.json declares exactly once, finite, in its declared unit, and
// passes the correctness gate. With -short the daemon is left out: only
// the in-process rungs run, and what they emit must be declared.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	_, e2e, layer := loadSpec(t)
	logf := func(format string, args ...any) { t.Logf(format, args...) }
	var e *env
	if !testing.Short() {
		root, err := filepath.Abs("..")
		if err != nil {
			t.Fatal(err)
		}
		e = &env{root: root, outDir: t.TempDir(), workDir: t.TempDir()}
		if err := e.prepare(); err != nil {
			t.Fatal(err)
		}
		defer e.killAll()
		if _, err := e.build(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		w = w.scaled(1, 50)
		t.Run(w.Name, func(t *testing.T) {
			if testing.Short() {
				res, err := runInProcess(w, 1, t.TempDir(), logf)
				if err != nil {
					t.Fatal(err)
				}
				declared := map[string]bool{}
				for _, m := range layer {
					declared[m.Name] = true
				}
				for name := range res.Metrics {
					if !declared[name] {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
				if !res.Correct {
					t.Error("in-process rungs disagree with the reference pool")
				}
				return
			}
			for _, mode := range []struct {
				name     string
				declared []metric
				run      func() (result, error)
			}{
				{"end_to_end", e2e, func() (result, error) {
					res, _, _, err := runEndToEnd(e, w, 1, 1, e2e, logf)
					return res, err
				}},
				{"per_layer", layer, func() (result, error) {
					res, _, err := runTraced(e, w, 1, logf)
					return res, err
				}},
			} {
				res, err := mode.run()
				if err != nil {
					e.keepLogs(w.Name)
					t.Fatalf("%s: %v", mode.name, err)
				}
				if err := conform(&res, mode.declared); err != nil {
					t.Errorf("%s: %v", mode.name, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s: correct %v, %d of %d operations failed", mode.name, res.Correct, res.Failed, res.Attempted)
				}
				for _, m := range mode.declared {
					if got := res.Metrics[m.Name].Unit; got != m.Unit {
						t.Errorf("%s: %s is in %q, declared %q", mode.name, m.Name, got, m.Unit)
					}
				}
			}
		})
	}
}
