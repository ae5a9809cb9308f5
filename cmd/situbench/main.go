// Command situbench reproduces the evaluation of Sultana et al., ICDE 2014
// ("Incremental Discovery of Prominent Situational Facts"): every figure of
// §VI–§VII can be regenerated by experiment id.
//
// Usage:
//
//	situbench -exp fig8a [-n 20000] [-d 5] [-m 7] [-dhat 4] [-mhat -1]
//	          [-tau 500] [-seed 1] [-csv] [-out results.txt]
//	situbench -exp all        # run everything with laptop-scale defaults
//	situbench -exp casestudy  # §VII prominent-fact stream
//
// Experiment ids: fig7a fig7b fig7c fig8a fig8b fig8c fig9 fig10 fig11
// fig12a fig12b fig12c fig13 fig14 fig15 casestudy all.
//
// Load against a running daemon is bench/run.sh's job (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
)

var experiments = map[string]func(harness.Params) (*harness.Result, error){
	"fig7a":  harness.Fig7a,
	"fig7b":  harness.Fig7b,
	"fig7c":  harness.Fig7c,
	"fig8a":  harness.Fig8a,
	"fig8b":  harness.Fig8b,
	"fig8c":  harness.Fig8c,
	"fig9":   harness.Fig9,
	"fig10":  harness.Fig10,
	"fig11":  harness.Fig11,
	"fig12a": harness.Fig12a,
	"fig12b": harness.Fig12b,
	"fig12c": harness.Fig12c,
	"fig13":  harness.Fig13,
	"fig14":  harness.Fig14,
	"fig15":  harness.Fig15,
}

var order = []string{
	"fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "fig9",
	"fig10", "fig11", "fig12a", "fig12b", "fig12c", "fig13", "fig14", "fig15",
}

// config is situbench's parsed command line.
type config struct {
	exp    string
	params harness.Params
	csv    bool
	out    string
}

// registerFlags declares every situbench flag on fs, filling cfg. main
// uses it with flag.CommandLine; the doc-drift guard builds a private
// FlagSet to compare the registered names against the documented ones.
func registerFlags(fs *flag.FlagSet, cfg *config) {
	fs.StringVar(&cfg.exp, "exp", "", "experiment id (fig7a..fig15, casestudy, all)")
	fs.IntVar(&cfg.params.N, "n", 0, "stream length (0 = per-experiment default)")
	fs.IntVar(&cfg.params.D, "d", 0, "dimension attributes (0 = default)")
	fs.IntVar(&cfg.params.M, "m", 0, "measure attributes (0 = default)")
	fs.IntVar(&cfg.params.MaxBound, "dhat", 0, "max bound dimension attrs d̂ (0 = default 4, -1 = no cap)")
	fs.IntVar(&cfg.params.MaxMeasure, "mhat", 0, "max measure subspace size m̂ (0 = default: no cap, 3 for §VII)")
	fs.Float64Var(&cfg.params.Tau, "tau", 0, "prominence threshold τ (0 = scaled default)")
	fs.Int64Var(&cfg.params.Seed, "seed", 1, "workload seed")
	fs.BoolVar(&cfg.csv, "csv", false, "emit CSV instead of aligned text")
	fs.StringVar(&cfg.out, "out", "", "output file (default stdout)")
}

func main() {
	var cfg config
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()

	if cfg.exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	switch cfg.exp {
	case "all":
		for _, id := range order {
			if err := runOne(w, id, cfg.params, cfg.csv); err != nil {
				fatal(err)
			}
			fmt.Fprintln(w)
		}
		if err := harness.CaseStudy(w, cfg.params); err != nil {
			fatal(err)
		}
	case "casestudy":
		if err := harness.CaseStudy(w, cfg.params); err != nil {
			fatal(err)
		}
	default:
		if _, ok := experiments[cfg.exp]; !ok {
			fatal(fmt.Errorf("unknown experiment %q (want fig7a..fig15, casestudy, all)", cfg.exp))
		}
		if err := runOne(w, cfg.exp, cfg.params, cfg.csv); err != nil {
			fatal(err)
		}
	}
}

func runOne(w io.Writer, id string, p harness.Params, csv bool) error {
	res, err := experiments[id](p)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	if csv {
		return res.RenderCSV(w)
	}
	return res.Render(w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "situbench:", err)
	os.Exit(1)
}
