package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of the samples by nearest rank;
// NaN for no samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// spread is the distance between the first and third quartile of the
// samples as a share of their median — how far the rounds of one run
// disagree, by the rule the benchmark driver applies to runs (Python's
// statistics.quantiles(v, n=4): exclusive method, linear interpolation).
func spread(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		lo := min(max(int(pos), 1), n-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (quartile(3) - quartile(1)) / median(s)
}
