package situfact

import (
	"fmt"
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

// checkReadsRefused requires both read surfaces to refuse the pool with the
// one sentence Engine.indexedStore gives, naming the invariant reads rest on.
func checkReadsRefused(t *testing.T, pool *Pool) {
	t.Helper()
	if st := pool.IndexStats(); st != (IndexStat{}) {
		t.Errorf("IndexStats = %+v on a pool that serves no reads", st)
	}
	_, err := pool.TopFacts(3)
	if err == nil || !strings.Contains(err.Error(), "queries require bottomup or sbottomup over the in-memory store") ||
		!strings.Contains(err.Error(), "Invariant 1") {
		t.Errorf("TopFacts error = %v", err)
	}
	for _, f := range []FactFilter{{Shard: AllShards}, {Shard: 0, WithTuple: true}} {
		if _, qerr := pool.QueryFacts(f, "", 3); qerr == nil || err == nil || qerr.Error() != err.Error() {
			t.Errorf("QueryFacts(%+v) error %v, TopFacts error %v: want one message", f, qerr, err)
		}
	}
}

// TestPoolQueryTopFactsTies constructs the boundary the walk's skip rule
// and the merge are easiest to get wrong on: many cells with one
// prominence. Two shards each hold two rows with the same dimension values
// and incomparable measures, so every context has size 2 and every skyline
// size 1 or 2 — two prominence values over some two hundred cells — and
// the k-th and (k+1)-th fact tie at almost every k: between two masks of
// one constraint, between two constraints of a shard, and across the two
// shards. Every k from 1 to past the end must match the reference.
func TestPoolQueryTopFactsTies(t *testing.T) {
	schema := queryTestSchema(t)
	pool, err := NewPool(schema, PoolOptions{Shards: 2, ShardDim: "region"})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Two region values that land on different shards.
	regions := []string{"region-0"}
	for i := 1; len(regions) < 2; i++ {
		if r := fmt.Sprintf("region-%d", i); pool.ShardFor(r) != pool.ShardFor(regions[0]) {
			regions = append(regions, r)
		}
	}
	for _, region := range regions {
		dims := []string{region, "kind-0", "tier-0", "label-0"}
		for _, m := range [][]float64{{5, 5, 1}, {1, 1, 5}} { // cost is smaller-better
			if _, err := pool.Append(dims, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	full, err := pool.scanTopFacts(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	var maskTie, keyTie, shardTie bool
	for k := 1; k <= len(full)+1; k++ {
		got, err := pool.TopFacts(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := full[:min(k, len(full))]; !sameQueryFacts(got, want) {
			t.Fatalf("TopFacts(%d) differs from the first %d of the reference ranking", k, len(want))
		}
		if k < len(full) && full[k-1].Prominence == full[k].Prominence {
			a, b := full[k-1], full[k]
			switch {
			case a.Shard != b.Shard:
				shardTie = true
			case a.sortKey != b.sortKey:
				keyTie = true
			default:
				maskTie = true
			}
		}
	}
	if !maskTie || !keyTie || !shardTie {
		t.Fatalf("constructed history lacks a tie at the cut: across masks %v, constraints %v, shards %v",
			maskTie, keyTie, shardTie)
	}
}

// TestPoolQueryTopFactsNeedsIndex: engines without a fact index — the
// baselines, the file-backed store — refuse the ranking with the message
// every read surface uses.
func TestPoolQueryTopFactsNeedsIndex(t *testing.T) {
	schema := queryTestSchema(t)
	for name, opt := range map[string]Options{
		"baseline":   {Algorithm: AlgoBaselineSeq, DisableProminence: true},
		"file store": {StoreDir: t.TempDir()},
	} {
		t.Run(name, func(t *testing.T) {
			pool, err := NewPool(schema, PoolOptions{Shards: 2, ShardDim: "region", Engine: opt})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pool.Append([]string{"region-0", "kind-0", "tier-0", "label-0"}, []float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			checkReadsRefused(t, pool)
			pool.Close()
			pool.DestroyStore()
		})
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
