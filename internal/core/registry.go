package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory constructs a Discoverer instance from a Config. Factories must
// be safe to call concurrently.
type Factory func(cfg Config) (Discoverer, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register installs a named algorithm factory. Names are lower-case and
// stable — they are the values accepted by NewDiscoverer (and hence by the
// public Options.Algorithm). Registering an empty name, a nil factory, or
// a name twice panics: registration happens at init time and a collision
// is a programming error.
func Register(name string, f Factory) {
	if name == "" || name != strings.ToLower(name) {
		panic(fmt.Sprintf("core: Register: invalid algorithm name %q", name))
	}
	if f == nil {
		panic(fmt.Sprintf("core: Register: nil factory for %q", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: Register: algorithm %q already registered", name))
	}
	registry[name] = f
}

// NewDiscoverer instantiates the named algorithm. The name must have been
// registered; the error for an unknown name lists what is available.
func NewDiscoverer(name string, cfg Config) (Discoverer, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (have %s)",
			name, strings.Join(Algorithms(), ", "))
	}
	return f(cfg)
}

// Algorithms returns the registered algorithm names, sorted.
func Algorithms() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The eight paper algorithms.
func init() {
	Register("bruteforce", func(cfg Config) (Discoverer, error) { return NewBruteForce(cfg) })
	Register("baselineseq", func(cfg Config) (Discoverer, error) { return NewBaselineSeq(cfg) })
	Register("baselineidx", func(cfg Config) (Discoverer, error) { return NewBaselineIdx(cfg) })
	Register("ccsc", func(cfg Config) (Discoverer, error) { return NewCCSC(cfg) })
	Register("bottomup", func(cfg Config) (Discoverer, error) { return NewBottomUp(cfg) })
	Register("topdown", func(cfg Config) (Discoverer, error) { return NewTopDown(cfg) })
	Register("sbottomup", func(cfg Config) (Discoverer, error) { return NewSBottomUp(cfg) })
	Register("stopdown", func(cfg Config) (Discoverer, error) { return NewSTopDown(cfg) })
}
