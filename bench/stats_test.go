package main

import (
	"math"
	"testing"
)

func TestPercentileAndSpread(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.99: 5, 1: 5} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (4.5-1.5)/3", got)
	}
	// statistics.quantiles([1,2,4,8], n=4) == [1.25, 3.0, 7.0]; median by
	// nearest rank is 2.
	if got := spread([]float64{8, 1, 4, 2}); math.Abs(got-(7-1.25)/2) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) || spread(nil) != 0 {
		t.Error("empty samples")
	}
}

func TestFastestOfRounds(t *testing.T) {
	got := fastestOfRounds([][]float64{{3, 1, 5}, {2, 4, 5}, {9, 9, 4}})
	if want := []float64{2, 1, 4}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("fastest of aligned rounds = %v, want %v", got, want)
	}
	// A round that lost a request cannot be aligned: every sample counts.
	if got := fastestOfRounds([][]float64{{3, 1}, {2}}); len(got) != 3 {
		t.Errorf("unaligned rounds = %v, want the three samples pooled", got)
	}
}

// The calibration kernel does the same work on every call.
func TestCalibKernelIsFixedWork(t *testing.T) {
	a, b := calibKernel(1), calibKernel(1)
	if a != b || a == 0 {
		t.Errorf("kernel found %d then %d (tuple, constraint) pairs", a, b)
	}
	if calibrate() <= 0 {
		t.Error("calibration took no time")
	}
}
