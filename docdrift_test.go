package situfact_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	situfact "repro"
)

// TestREADMEAlgorithmTable is a doc-drift guard: the README's algorithm
// table must list exactly the algorithms core.NewDiscoverer knows. Adding
// an algorithm without documenting it (or documenting one that was removed)
// fails CI.
func TestREADMEAlgorithmTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// Table rows under "## Algorithms" look like: | `sbottomup` | §V-C | … |
	rowRE := regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)`\\s*\\|")
	var documented []string
	for _, m := range rowRE.FindAllStringSubmatch(string(data), -1) {
		documented = append(documented, m[1])
	}
	slices.Sort(documented)
	registered := situfact.Algorithms() // already sorted
	if !slices.Equal(documented, registered) {
		t.Errorf("README algorithm table drifted from situfact.Algorithms():\n  documented: %v\n  registered: %v",
			documented, registered)
	}
}

// TestCIRunPatterns is a drift guard over .github/workflows/ci.yml: every
// alternative of a -run, -fuzz or -bench pattern there must select at least
// one test, fuzz target or benchmark declared outside bench/ (a pattern
// whose tests were deleted or renamed would otherwise select nothing and
// pass), and every Test name its comments give (a trailing * is a prefix)
// must be declared.
func TestCIRunPatterns(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{} // by kind: Test, Fuzz, Benchmark
	funcRE := regexp.MustCompile(`(?m)^func ((Test|Fuzz|Benchmark)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			declared[m[2]] = append(declared[m[2]], m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{"run": {"Test", "Fuzz"}, "fuzz": {"Fuzz"}, "bench": {"Benchmark"}}
	flagRE := regexp.MustCompile(`-(run|fuzz|bench) '([^']*)'`)
	patterns := 0
	for _, m := range flagRE.FindAllStringSubmatch(string(ci), -1) {
		if m[2] == "^$" {
			continue
		}
		for _, alt := range strings.Split(m[2], "|") {
			patterns++
			top := regexp.MustCompile(strings.Split(alt, "/")[0]) // a subtest's or sub-benchmark's parent
			var names []string
			for _, kind := range kinds[m[1]] {
				names = append(names, declared[kind]...)
			}
			if !slices.ContainsFunc(names, top.MatchString) {
				t.Errorf("ci.yml: -%s '%s': %q selects no %v declared outside bench/", m[1], m[2], alt, kinds[m[1]])
			}
		}
	}
	if patterns == 0 {
		t.Fatal("ci.yml holds no -run, -fuzz or -bench pattern: the guard reads nothing")
	}
	nameRE := regexp.MustCompile(`\bTest\w*\*?`)
	for _, line := range strings.Split(string(ci), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, name := range nameRE.FindAllString(line, -1) {
			prefix, glob := strings.CutSuffix(name, "*")
			if !slices.ContainsFunc(declared["Test"], func(d string) bool { return d == name || glob && strings.HasPrefix(d, prefix) }) {
				t.Errorf("ci.yml's comment names %s, which no test outside bench/ declares", name)
			}
		}
	}
}
