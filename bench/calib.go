package main

// Machine-speed calibration.
//
// The benchmark runs on a few cores of a shared host, and how fast those
// cores run memory-bound Go code — maps, pointer chasing, allocation: what
// the daemon does — changes by 20–30% for minutes at a time with what the
// host's other tenants do. Every timing of the daemon moves with it, so
// runs of the same code minutes apart disagree by more than a bound can
// absorb, and no statistic over the rounds of one run helps: the whole run
// is fast or slow. A spin loop does not see it (the ALUs are not what is
// shared); a kernel with the daemon's habits does.
//
// calibrate times such a kernel: a frozen, self-contained skyline discovery
// over generated tuples, written here and touching no code of the
// repository, so that no change to the product can move it. It runs twice
// per round, before the ingest phase and after the follower is stopped,
// never beside a measured phase. A run's timings are reported multiplied by
// calibNominal / (the median of the run's calibrations), i.e. scaled to the
// speed of the machine the nominal was taken on (main.go, scaledByCalib).
// Counts, bytes and memory are not scaled.

import (
	"strconv"
	"sync"
	"time"
)

// calibNominal is about what the kernel takes on the baseline machine when
// its neighbours are quiet. It only fixes the scale of the reported
// timings: another value multiplies them all by a constant.
const calibNominal = 300 * time.Millisecond

const (
	calibTuples   = 24000
	calibDims     = 4
	calibMeasures = 4
)

type calibTuple struct {
	dims     [calibDims]int
	measures [calibMeasures]int
}

// calibrate runs the kernel on as many goroutines as the load generator has
// connections — the measured phases keep that many cores busy — and
// returns how long the slower one took.
func calibrate() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibKernel(uint64(g + 1))
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// calibKernel finds, for each arriving tuple, the constraints (subsets of
// its dimension values) under which no earlier tuple dominates it, keeping
// a skyline per constraint in a map under string keys: the shape of the
// daemon's work. It returns the number of (tuple, constraint) pairs found.
func calibKernel(seed uint64) int {
	x := seed*0x9E3779B97F4A7C15 + 1
	next := func(n int) int { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	card := [calibDims]int{40, 12, 30, 30}
	skylines := map[string][]*calibTuple{}
	found := 0
	key := make([]byte, 0, 32)
	for i := 0; i < calibTuples; i++ {
		t := &calibTuple{}
		for d := range t.dims {
			t.dims[d] = next(card[d])
		}
		for m := range t.measures {
			t.measures[m] = next(12) + next(12)
		}
		for mask := 0; mask < 1<<calibDims; mask++ {
			key = key[:0]
			for d := 0; d < calibDims; d++ {
				if mask&(1<<d) != 0 {
					key = strconv.AppendInt(key, int64(t.dims[d]), 10)
				}
				key = append(key, '|')
			}
			skyline := skylines[string(key)]
			kept := skyline[:0]
			dominated := false
			for _, u := range skyline {
				switch calibCompare(u, t) {
				case 1:
					dominated = true
				case -1:
					continue // t dominates u: u leaves the skyline
				}
				kept = append(kept, u)
			}
			if !dominated {
				kept = append(kept, t)
				found++
			}
			skylines[string(key)] = kept
		}
	}
	return found
}

// calibCompare is 1 when a dominates b, -1 when b dominates a, else 0.
func calibCompare(a, b *calibTuple) int {
	better, worse := false, false
	for m := range a.measures {
		switch {
		case a.measures[m] > b.measures[m]:
			better = true
		case a.measures[m] < b.measures[m]:
			worse = true
		}
	}
	switch {
	case better && !worse:
		return 1
	case worse && !better:
		return -1
	}
	return 0
}
