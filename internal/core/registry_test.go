package core

import (
	"strings"
	"testing"
)

func TestRegistryBuiltins(t *testing.T) {
	names := Algorithms()
	for _, want := range []string{
		"bruteforce", "baselineseq", "baselineidx", "ccsc",
		"bottomup", "topdown", "sbottomup", "stopdown",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	tb := table4(t)
	cfg := Config{Schema: tb.Schema(), MaxBound: -1, MaxMeasure: -1}
	for _, n := range names {
		d, err := NewDiscoverer(n, cfg)
		if err != nil {
			t.Errorf("NewDiscoverer(%q): %v", n, err)
			continue
		}
		if d.Name() == "" {
			t.Errorf("%q built a nameless discoverer", n)
		}
		d.Close()
	}
}

func TestRegistryUnknown(t *testing.T) {
	tb := table4(t)
	_, err := NewDiscoverer("nope", Config{Schema: tb.Schema()})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// The error must teach: it lists what IS registered.
	if !strings.Contains(err.Error(), "sbottomup") {
		t.Errorf("unknown-algorithm error does not list alternatives: %v", err)
	}
}
