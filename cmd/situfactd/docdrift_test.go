package main

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestAPIDocEndpoints is a doc-drift guard (the API-side sibling of the
// root package's TestREADMEAlgorithmTable): the endpoint headings in
// docs/API.md must list exactly the patterns the mux registers. Adding a
// route without documenting it — or documenting one that was removed —
// fails CI.
func TestAPIDocEndpoints(t *testing.T) {
	data, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	// Endpoint headings look like: ## POST /v1/tuples — append one arrival
	// A query-string hint (## GET /v1/facts/top?k= — …) documents the same
	// route; strip it before comparing.
	headRE := regexp.MustCompile(`(?m)^## (GET|POST|DELETE) (\S+)`)
	var documented []string
	for _, m := range headRE.FindAllStringSubmatch(string(data), -1) {
		path, _, _ := strings.Cut(m[2], "?")
		documented = append(documented, m[1]+" "+path)
	}
	slices.Sort(documented)

	s, err := newServer(gamelogConfig(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var registered []string
	for pattern := range s.routes() {
		registered = append(registered, pattern)
	}
	slices.Sort(registered)

	if !slices.Equal(documented, registered) {
		t.Errorf("docs/API.md endpoint headings drifted from the mux registrations:\n  documented: %v\n  registered: %v",
			documented, registered)
	}
}

// TestAPIDocFlags is the flag-side doc-drift guard: the set of -flag
// names docs/API.md mentions in inline code, in its daemon part (before
// "## situbench", where situbench's own flags begin — cmd/situbench's
// TestDocFlags guards those), must equal the set registerFlags registers.
// A flag added without documentation — or a passage still describing a
// removed one — fails CI.
func TestAPIDocFlags(t *testing.T) {
	data, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	daemon, _, found := strings.Cut(string(data), "\n## situbench")
	if !found {
		t.Fatal(`docs/API.md has no "## situbench" heading to end the daemon part at`)
	}
	// Fenced examples are usage, not documentation; only inline code counts.
	daemon = regexp.MustCompile("(?s)```.*?```").ReplaceAllString(daemon, "")
	flagRE := regexp.MustCompile(`(?:^|[\s(])-([a-z][a-z-]*)`)
	seen := map[string]bool{}
	for _, span := range regexp.MustCompile("`[^`]+`").FindAllString(daemon, -1) {
		for _, m := range flagRE.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
			seen[m[1]] = true
		}
	}
	var documented []string
	for name := range seen {
		documented = append(documented, name)
	}
	slices.Sort(documented)

	var cfg config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	registerFlags(fs, &cfg)
	var registered []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	slices.Sort(registered)

	if !slices.Equal(documented, registered) {
		t.Errorf("docs/API.md flags drifted from registerFlags:\n  documented: %v\n  registered: %v",
			documented, registered)
	}
}
