package core

import (
	"fmt"
	"slices"
	"strings"
)

// algorithms is the table of the eight paper algorithms, keyed by the
// lower-case names NewDiscoverer (and hence the public Options.Algorithm)
// accepts.
var algorithms = map[string]func(cfg Config) (Discoverer, error){
	"bruteforce":  func(cfg Config) (Discoverer, error) { return NewBruteForce(cfg) },
	"baselineseq": func(cfg Config) (Discoverer, error) { return NewBaselineSeq(cfg) },
	"baselineidx": func(cfg Config) (Discoverer, error) { return NewBaselineIdx(cfg) },
	"ccsc":        func(cfg Config) (Discoverer, error) { return NewCCSC(cfg) },
	"bottomup":    func(cfg Config) (Discoverer, error) { return NewBottomUp(cfg) },
	"topdown":     func(cfg Config) (Discoverer, error) { return NewTopDown(cfg) },
	"sbottomup":   func(cfg Config) (Discoverer, error) { return NewSBottomUp(cfg) },
	"stopdown":    func(cfg Config) (Discoverer, error) { return NewSTopDown(cfg) },
}

// NewDiscoverer instantiates the named algorithm; the error for an unknown
// name lists what is available.
func NewDiscoverer(name string, cfg Config) (Discoverer, error) {
	f, ok := algorithms[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (have %s)",
			name, strings.Join(Algorithms(), ", "))
	}
	return f(cfg)
}

// Algorithms returns the algorithm names, sorted.
func Algorithms() []string {
	out := make([]string, 0, len(algorithms))
	for name := range algorithms {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}
