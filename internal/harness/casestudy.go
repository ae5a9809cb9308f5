package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/prominence"
	"repro/internal/relation"
	"repro/internal/subspace"
)

// promRecord captures the prominent-fact outcome of one arrival: every
// fact of S_t attaining its maximum prominence, in Score's order.
// Recording them once lets Fig14, Fig15 and the case study be
// post-filtered for any τ.
type promRecord struct {
	tupleID int64
	facts   []prominence.ScoredFact
}

// best is the arrival's maximum prominence (0 without facts).
func (r promRecord) best() float64 {
	if len(r.facts) == 0 {
		return 0
	}
	return r.facts[0].Prominence
}

// section7 applies the §VII setting: d̂ = 3 and m̂ = 3 unless given.
func (p Params) section7() Params {
	p = p.withDefaults(20000, 5, 7)
	if p.MaxBound == 4 {
		p.MaxBound = 3
	}
	if p.MaxMeasure < 0 {
		p.MaxMeasure = 3
	}
	return p
}

// promStream runs SBottomUp with prominence tracking over the NBA stream
// and returns one record per arrival, with the stream itself. Params: the
// paper's §VII setting is d=5, m=7, d̂=3, m̂=3.
func promStream(p Params) ([]promRecord, *relation.Table, error) {
	tb, err := StreamSpec{Dataset: "nba", D: p.D, M: p.M, N: p.N, Seed: p.Seed}.Build()
	if err != nil {
		return nil, nil, err
	}
	alg, err := core.NewSBottomUp(p.config(tb.Schema()))
	if err != nil {
		return nil, nil, err
	}
	counter := core.NewContextCounter(p.D, p.MaxBound)
	recs := make([]promRecord, tb.Len())
	for i := range recs {
		tu := tb.At(i)
		facts := alg.Process(tu)
		counter.Observe(tu)
		scored := prominence.Score(facts, counter, alg)
		recs[i] = promRecord{tupleID: tu.ID, facts: slices.Clone(prominence.Prominent(scored, 0))}
	}
	return recs, tb, nil
}

// Fig14 reports the number of prominent facts per bucket of 1K tuples for
// threshold τ (paper: τ=10³ over 317K tuples; scale τ to your n — the
// default is n/40, keeping the context-size precondition satisfiable).
// Expected shape: values oscillate with no downward trend, because new
// dimension values (players, seasons) keep forming new contexts.
func Fig14(p Params) (*Result, error) {
	p = p.section7()
	if p.Tau == 0 {
		p.Tau = float64(p.N) / 40
	}
	recs, _, err := promStream(p)
	if err != nil {
		return nil, err
	}
	bucket := 1000
	counts := map[int]int{}
	for _, r := range recs {
		if r.best() >= p.Tau {
			counts[int(r.tupleID)/bucket] += len(r.facts)
		}
	}
	res := &Result{
		Title:  "Fig 14 — number of prominent facts per 1K tuples",
		XLabel: "tuple bucket (×1000)",
		YLabel: fmt.Sprintf("prominent facts in bucket (τ=%g)", p.Tau),
		Notes: []string{
			fmt.Sprintf("n=%d d=%d m=%d d̂=%d m̂=%d τ=%g", p.N, p.D, p.M, p.MaxBound, p.MaxMeasure, p.Tau),
			"paper shape: oscillation without a downward trend (new contexts keep forming)",
		},
	}
	s := Series{Label: fmt.Sprintf("τ=%g", p.Tau)}
	for b := 0; b <= (p.N-1)/bucket; b++ {
		s.X = append(s.X, float64(b))
		s.Y = append(s.Y, float64(counts[b]))
	}
	res.Series = []Series{s}
	return res, nil
}

// Fig15 reports the distribution of prominent facts (a) by the number of
// bound dimension attributes and (b) by measure-subspace dimensionality,
// for a sweep of τ values. Expected shape: humps at bound(C) ∈ {1,2} and
// |M| = 2 — extreme contexts are either too competitive (whole table) or
// too small (≥ τ tuples needed), and single measures demand strict maxima
// while wide subspaces dilute prominence with big skylines.
func Fig15(p Params) (*Result, error) {
	p = p.section7()
	recs, _, err := promStream(p)
	if err != nil {
		return nil, err
	}
	taus := []float64{float64(p.N) / 400, float64(p.N) / 40, float64(p.N) / 4}
	if p.Tau != 0 {
		taus = []float64{p.Tau / 10, p.Tau, p.Tau * 10}
	}
	res := &Result{
		Title:  "Fig 15 — distribution of prominent facts by bound(C) (series b=) and |M| (series m=)",
		XLabel: "bound(C) or |M|",
		YLabel: "number of prominent facts",
		Notes: []string{
			fmt.Sprintf("n=%d d=%d m=%d d̂=%d m̂=%d", p.N, p.D, p.M, p.MaxBound, p.MaxMeasure),
			"paper shape: humps at bound(C) ∈ {1,2} and |M| = 2",
		},
	}
	for _, tau := range taus {
		byBound := map[int]int{}
		byMsize := map[int]int{}
		for _, r := range recs {
			if r.best() < tau {
				continue
			}
			for _, f := range r.facts {
				byBound[f.Constraint.Bound()]++
				byMsize[subspace.Size(f.Subspace)]++
			}
		}
		sb := Series{Label: fmt.Sprintf("b=,τ=%g", tau)}
		for b := 0; b <= p.MaxBound; b++ {
			sb.X = append(sb.X, float64(b))
			sb.Y = append(sb.Y, float64(byBound[b]))
		}
		sm := Series{Label: fmt.Sprintf("m=,τ=%g", tau)}
		for msz := 1; msz <= p.MaxMeasure; msz++ {
			sm.X = append(sm.X, float64(msz))
			sm.Y = append(sm.Y, float64(byMsize[msz]))
		}
		res.Series = append(res.Series, sb, sm)
	}
	return res, nil
}

// CaseStudy streams the NBA workload under the §VII setting and writes the
// highest-prominence discovered facts, narrated, to w (the analogue of the
// paper's Lamar Odom / Allen Iverson / Damon Stoudamire bullets).
func CaseStudy(w io.Writer, p Params) error {
	p = p.section7()
	if p.Tau == 0 {
		p.Tau = float64(p.N) / 40
	}
	recs, tb, err := promStream(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Case study (§VII): prominent facts, τ=%g, d̂=%d, m̂=%d, n=%d\n",
		p.Tau, p.MaxBound, p.MaxMeasure, p.N)
	shown := 0
	for _, r := range recs {
		if len(r.facts) == 0 || r.best() < p.Tau {
			continue
		}
		for _, sf := range r.facts[:min(2, len(r.facts))] {
			fmt.Fprintf(w, "tuple %6d  prom %8.4g = %6d/%-3d  (%s | {%s})\n",
				r.tupleID, sf.Prominence, sf.ContextSize, sf.SkylineSize,
				sf.Constraint.Format(tb.Schema(), tb.Dict()),
				strings.Join(subspace.Names(sf.Subspace, tb.Schema()), ", "))
		}
		shown++
	}
	fmt.Fprintf(w, "# arrivals with prominent facts: %d of %d\n", shown, tb.Len())
	return nil
}
