package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles is -compare a.json b.json.
func compareFiles(w io.Writer, pathA, pathB string, e2e, layer []metric) int {
	var docs [2]suiteDoc
	for i, path := range []string{pathA, pathB} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &docs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	if docs[0].Trace != docs[1].Trace {
		fmt.Fprintf(os.Stderr, "bench: %s and %s are not the same kind of run (traced vs untraced)\n", pathA, pathB)
		return 2
	}
	if docs[0].Trace {
		return compareDocs(w, &docs[0], &docs[1], layer)
	}
	return compareDocs(w, &docs[0], &docs[1], e2e)
}

// compareDocs prints, per workload and metric, both sets' values, how much
// worse the second is (negative = better), and for end-to-end metrics the
// bound and a verdict:
//
//	regressed   the second set is worse than the first by more than the bound
//	unresolved  the rounds of a set disagree by more than the bound, so a
//	            difference within the bound cannot be told from noise
//	ok          otherwise
//
// Per-layer metrics have no bound; equal values are marked exact, which is
// what counts must be. It returns 1 if anything regressed.
func compareDocs(w io.Writer, a, b *suiteDoc, metrics []metric) int {
	status := 0
	for _, wl := range workloads {
		ra, okA := a.Results[wl.Name]
		rb, okB := b.Results[wl.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-20s missing from one set\n", wl.Name)
			status = 1
			continue
		}
		for _, m := range metrics {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := (vb - va) / math.Abs(va)
			if m.Better == "higher" {
				worse = -worse
			}
			if va == vb {
				worse = 0
			}
			verdict := ""
			switch {
			case m.Bound == 0:
				if va == vb {
					verdict = "exact"
				}
			case worse > m.Bound:
				verdict = "regressed"
				status = 1
			case math.Max(a.Spreads[wl.Name][m.Name], b.Spreads[wl.Name][m.Name]) > m.Bound:
				verdict = "unresolved"
			default:
				verdict = "ok"
			}
			fmt.Fprintf(w, "%-20s %-30s %14.4f %14.4f %-6s worse by %+7.2f%%", wl.Name, m.Name, va, vb, m.Unit, 100*worse)
			if m.Bound > 0 {
				fmt.Fprintf(w, "  bound %4.0f%%  round spread %5.1f%% / %5.1f%%", 100*m.Bound,
					100*a.Spreads[wl.Name][m.Name], 100*b.Spreads[wl.Name][m.Name])
			}
			fmt.Fprintf(w, "  %s\n", verdict)
		}
	}
	return status
}
