package main

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocFlags is situbench's flag doc-drift guard (the sibling of
// situfactd's TestAPIDocFlags): the -flag names in main.go's usage comment,
// and those docs/API.md mentions in inline code from "## situbench" on
// (where the daemon's flags end and situbench's begin), must each equal the
// set registerFlags registers. A passage still naming a removed flag — or a
// flag added without documentation — fails CI.
func TestDocFlags(t *testing.T) {
	var cfg config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	registerFlags(fs, &cfg)
	var registered []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	slices.Sort(registered)

	flagRE := regexp.MustCompile(`(?:^|[\s(\[])-([a-z][a-z-]*)`)
	flagsIn := func(texts []string) []string {
		seen := map[string]bool{}
		for _, text := range texts {
			for _, m := range flagRE.FindAllStringSubmatch(text, -1) {
				seen[m[1]] = true
			}
		}
		var names []string
		for name := range seen {
			names = append(names, name)
		}
		slices.Sort(names)
		return names
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	usage, _, found := strings.Cut(string(src), "\npackage main")
	if !found {
		t.Fatal("main.go has no package clause to end the usage comment at")
	}
	if got := flagsIn(strings.Split(usage, "\n")); !slices.Equal(got, registered) {
		t.Errorf("main.go usage comment flags drifted from registerFlags:\n  documented: %v\n  registered: %v", got, registered)
	}

	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, bench, found := strings.Cut(string(doc), "\n## situbench")
	if !found {
		t.Fatal(`docs/API.md has no "## situbench" heading to start the situbench part at`)
	}
	// Fenced examples are usage, not documentation; only inline code counts.
	bench = regexp.MustCompile("(?s)```.*?```").ReplaceAllString(bench, "")
	var spans []string
	for _, span := range regexp.MustCompile("`[^`]+`").FindAllString(bench, -1) {
		spans = append(spans, strings.Trim(span, "`"))
	}
	if got := flagsIn(spans); !slices.Equal(got, registered) {
		t.Errorf("docs/API.md situbench flags drifted from registerFlags:\n  documented: %v\n  registered: %v", got, registered)
	}
}
