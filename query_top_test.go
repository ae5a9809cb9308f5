package situfact

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// topKs are the ranking depths every comparison runs at; the last entry is
// replaced by "more than there are facts".
var topKs = []int{1, 10, 64, 500, 0}

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

// checkTopFacts compares TopFacts(k) with the scan-and-sort reference,
// element for element (unexported pagination coordinates included), at
// every depth of topKs. One reference scan serves all depths: the top k is
// by definition the first k of the full ranking.
func checkTopFacts(t *testing.T, pool *Pool, label string) []QueryFact {
	t.Helper()
	full, err := pool.scanTopFacts(1 << 30)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	for _, k := range topKs {
		if k == 0 {
			k = len(full) + 7
		}
		got, err := pool.TopFacts(k)
		if err != nil {
			t.Fatalf("%s: TopFacts(%d): %v", label, k, err)
		}
		want := full[:min(k, len(full))]
		if len(got) != len(want) {
			t.Fatalf("%s: TopFacts(%d) returned %d facts, reference %d", label, k, len(got), len(want))
		}
		for i := range want {
			if !sameQueryFact(got[i], want[i]) {
				t.Fatalf("%s: TopFacts(%d) position %d:\n  walk      %s (key %x mask %d)\n  reference %s (key %x mask %d)",
					label, k, i, factKey(got[i]), got[i].sortKey, got[i].sortMask,
					factKey(want[i]), want[i].sortKey, want[i].sortMask)
			}
		}
	}
	return full
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

// TestPoolQueryTopFactsReference proves the threshold walk against the
// ranking it replaced: after every append and delete of a seeded random
// history — with a checkpoint, a restart from it and a WAL replay in the
// middle — TopFacts equals the reference at every depth, for both BottomUp
// algorithms, one shard and several, and with prominence disabled (no
// counter: nothing bounds anything and the order is key order). A TopDown
// pool is refused instead, before and after it holds rows: its cells are
// Invariant 2's — a tuple sits at its maximal skyline constraints only —
// so ranking them would rank storage, not facts.
func TestPoolQueryTopFactsReference(t *testing.T) {
	schema := queryTestSchema(t)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"sbottomup", Options{}},
		{"bottomup", Options{Algorithm: AlgoBottomUp}},
		{"stopdown", Options{Algorithm: AlgoSTopDown}},
		{"noprominence", Options{DisableProminence: true}},
	} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(19 + shards)))
				walDir, snapDir := t.TempDir(), t.TempDir()
				pool, err := NewPool(schema, PoolOptions{Shards: shards, ShardDim: "region", Engine: tc.opt})
				if err != nil {
					t.Fatal(err)
				}
				if tc.opt.Algorithm == AlgoSTopDown {
					defer pool.Close()
					checkReadsRefused(t, pool)
					for i := 0; i < 20; i++ {
						r := randomRow(rng)
						if _, err := pool.Append(r.Dims, r.Measures); err != nil {
							t.Fatal(err)
						}
					}
					checkReadsRefused(t, pool)
					return
				}
				// Interval sync: the journal is read back after a clean Close,
				// and an fsync per step would be most of the test's time.
				w, err := OpenWAL(pool, walDir, WALOptions{SyncInterval: time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				if err := pool.AttachWAL(w); err != nil {
					t.Fatal(err)
				}
				defer func() {
					pool.Close()
					w.Close()
				}()
				checkTopFacts(t, pool, "empty pool")

				var live []poolHandle
				facts := 0
				mutate := func(phase string, steps int) {
					t.Helper()
					for i := 0; i < steps; i++ {
						if len(live) > 8 && rng.Intn(6) == 0 {
							j := rng.Intn(len(live))
							h := live[j]
							live[j] = live[len(live)-1]
							live = live[:len(live)-1]
							if err := pool.Delete(h.shard, h.id); err != nil {
								t.Fatal(err)
							}
						} else {
							r := randomRow(rng)
							arr, err := pool.Append(r.Dims, r.Measures)
							if err != nil {
								t.Fatal(err)
							}
							live = append(live, poolHandle{shard: arr.Shard, id: arr.TupleID})
						}
						facts = len(checkTopFacts(t, pool, fmt.Sprintf("%s step %d", phase, i)))
					}
				}
				mutate("before checkpoint", 45)
				if _, err := pool.Checkpoint(snapDir, nil); err != nil {
					t.Fatal(err)
				}
				mutate("after checkpoint", 25)
				before := checkTopFacts(t, pool, "before restart")

				// Restart: snapshot + the WAL tail past it, replayed unobserved.
				if err := pool.Close(); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if pool, _, err = RestorePool(schema, snapDir); err != nil {
					t.Fatal(err)
				}
				if w, err = OpenWAL(pool, walDir, WALOptions{}); err != nil {
					t.Fatal(err)
				}
				if stats, err := pool.ReplayWAL(w, nil); err != nil || stats.Applied == 0 {
					t.Fatalf("replay: %+v, %v", stats, err)
				}
				if err := pool.AttachWAL(w); err != nil {
					t.Fatal(err)
				}
				if after := checkTopFacts(t, pool, "after restart"); !sameQueryFacts(after, before) {
					t.Fatalf("restart changed the ranking of %d facts (now %d)", len(before), len(after))
				}
				mutate("after restart", 40)
				// Every depth must have cut a longer ranking short at some
				// point.
				if facts <= 500 {
					t.Fatalf("history ends with %d fact groups: k=500 never truncated", facts)
				}
			})
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
