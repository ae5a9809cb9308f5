package situfact_test

import (
	"os"
	"regexp"
	"slices"
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
