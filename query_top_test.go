package situfact

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sameQueryFact is reflect.DeepEqual for two QueryFacts — every field, the
// unexported pagination coordinates included, nil and empty slices told
// apart — written out because the reference tests compare some hundred
// thousand pairs.
func sameQueryFact(a, b QueryFact) bool {
	return a.Shard == b.Shard && a.ContextSize == b.ContextSize && a.SkylineSize == b.SkylineSize &&
		a.Prominence == b.Prominence && a.sortKey == b.sortKey && a.sortMask == b.sortMask &&
		(a.Conditions == nil) == (b.Conditions == nil) && slices.Equal(a.Conditions, b.Conditions) &&
		(a.Measures == nil) == (b.Measures == nil) && slices.Equal(a.Measures, b.Measures) &&
		(a.TupleIDs == nil) == (b.TupleIDs == nil) && slices.Equal(a.TupleIDs, b.TupleIDs)
}

func sameQueryFacts(a, b []QueryFact) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, sameQueryFact)
}

// wantPoolRefusal requires err to be the refusal of an engine a pool cannot
// run: the Invariant-1 sentence the read path rests on, naming what ran.
func wantPoolRefusal(t *testing.T, err error, runs string) {
	t.Helper()
	const sentence = "queries require bottomup or sbottomup over the in-memory store: " +
		"only BottomUp's Invariant 1 makes a stored cell the contextual skyline a read reports"
	if err == nil || !strings.Contains(err.Error(), sentence) || !strings.Contains(err.Error(), "(engine runs "+runs+")") {
		t.Errorf("error %v, want the Invariant-1 refusal naming %s", err, runs)
	}
}

// TestPoolQueryTopFactsNeedsIndex: a pool serves reads off the fact index of
// bottomup or sbottomup over the in-memory store, and every other engine —
// asked for by NewPool or pinned by a snapshot that RestorePool or the shard
// loader reads — is refused up front, before any engine or store directory
// exists, with the one sentence naming the algorithm. The BottomUp family
// passes every door.
func TestPoolQueryTopFactsNeedsIndex(t *testing.T) {
	newPool := func(opt Options) func(*testing.T) error {
		return func(t *testing.T) error {
			p, err := NewPool(queryTestSchema(t), PoolOptions{Shards: 2, ShardDim: "region", Engine: opt})
			if err == nil {
				p.Close()
			}
			return err
		}
	}
	restore := func(file string) func(*testing.T) error {
		return func(t *testing.T) error {
			p, _, err := RestorePool(fixtureSchema(t), fixtureStateDir(t, file, 1))
			if err == nil {
				p.Close()
			}
			return err
		}
	}
	load := func(file string) func(*testing.T) error {
		return func(t *testing.T) error {
			_, err := loadSnapshot(fixtureSchema(t), readTestdata(t, file))
			return err
		}
	}
	storeDir := filepath.Join(t.TempDir(), "cells")
	for _, tc := range []struct {
		name string
		try  func(*testing.T) error
		runs string // "" = admitted
	}{
		{"bottomup", newPool(Options{Algorithm: AlgoBottomUp}), ""},
		{"sbottomup", newPool(Options{}), ""},
		{"topdown", newPool(Options{Algorithm: AlgoTopDown}), "topdown"},
		{"stopdown", newPool(Options{Algorithm: AlgoSTopDown}), "stopdown"},
		{"bruteforce", newPool(Options{Algorithm: AlgoBruteForce, DisableProminence: true}), "bruteforce"},
		{"baseline", newPool(Options{Algorithm: AlgoBaselineSeq, DisableProminence: true}), "baselineseq"},
		{"baselineidx", newPool(Options{Algorithm: AlgoBaselineIdx, DisableProminence: true}), "baselineidx"},
		{"ccsc", newPool(Options{Algorithm: AlgoCCSC, DisableProminence: true}), "ccsc"},
		{"file store", newPool(Options{StoreDir: storeDir}), "sbottomup over a file store"},
		{"restore v2_bottomup", restore("v2_bottomup.snapshot"), ""},
		{"restore v2_topdown", restore("v2_topdown.snapshot"), "topdown"},
		{"load v2_bottomup", load("v2_bottomup.snapshot"), ""},
		{"load v2_topdown", load("v2_topdown.snapshot"), "topdown"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.try(t)
			if tc.runs == "" {
				if err != nil {
					t.Errorf("refused: %v", err)
				}
				return
			}
			wantPoolRefusal(t, err, tc.runs)
		})
	}
	if _, err := os.Stat(storeDir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the refused file store left %s behind (%v)", storeDir, err)
	}
}

// TestPoolTopFactsIsAWalk guards the complexity class: on the 4 096-row
// pool of BenchmarkPoolQuery (a million cells) TopFacts(10) allocates for
// the facts it returns — a constant per survivor, at most k per shard — not
// for the cells it ranks. The reference scan allocates six objects per
// cell. (Named to stay out of CI's repeated -race 'Query' runs:
// building the pool is most of its time, and it checks no interleaving.)
func TestPoolTopFactsIsAWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4 096-row pool")
	}
	const k, shards = 10, 4
	const perFact = 8 // key parse, conditions, measure names, tuple ids, slack
	pool, _ := benchQueryPool(t, shards)
	defer pool.Close()
	cells := pool.IndexStats().Entries
	if cells < 100_000 {
		t.Fatalf("pool holds %d cells: too small to tell a walk from a scan", cells)
	}
	got, err := pool.TopFacts(k)
	if err != nil || len(got) != k {
		t.Fatalf("TopFacts(%d) = %d facts, %v", k, len(got), err)
	}
	want, err := pool.scanTopFacts(k)
	if err != nil {
		t.Fatal(err)
	}
	if !sameQueryFacts(got, want) {
		t.Fatalf("TopFacts(%d) differs from the reference on the benchmark pool", k)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := pool.TopFacts(k); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("TopFacts(%d) over %d cells in %d shards: %.0f allocs", k, cells, shards, allocs)
	if budget := float64(perFact*k*shards + 16*shards); allocs > budget {
		t.Errorf("TopFacts(%d) allocates %.0f objects over %d cells, budget %.0f (%d per survivor): it is scanning, not walking",
			k, allocs, cells, budget, perFact)
	}
}
