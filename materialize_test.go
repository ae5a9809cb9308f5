package situfact

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// The paper's Fig 7a shape, where an arrival has thousands of facts over
// at most |C^t| = 31 contexts: what scoring and materialisation are sized
// against.
const (
	wideDims     = 5
	wideMeasures = 7
	wideDhat     = 4
)

// wideStream generates n rows of the NBA feed at the wide shape.
func wideStream(tb testing.TB, n int) (*Schema, []Row) {
	tb.Helper()
	g, err := gen.NewNBA(gen.NBAConfig{Seed: 2014}, wideDims, wideMeasures)
	if err != nil {
		tb.Fatal(err)
	}
	table := relation.NewTable(g.Schema())
	if err := g.Fill(table, n); err != nil {
		tb.Fatal(err)
	}
	rows := make([]Row, n)
	for i := range rows {
		tu := table.At(i)
		dims := make([]string, wideDims)
		for j := range dims {
			dims[j] = table.Dict().Decode(j, tu.Dims[j])
		}
		rows[i] = Row{Dims: dims, Measures: tu.Raw}
	}
	return WrapSchema(g.Schema()), rows
}

// TestEngineAppendAllocsScaleWithConstraints pins the allocation budget of
// Engine.Append at the paper's shape, where an arrival averages some two
// thousand facts over at most |C^t| = 31 contexts. Before scoring and
// decoding went per constraint each fact cost about eleven heap objects —
// two key strings to score it, a condition slice grown by append and a name
// slice to decode it — ~25 000 allocations per arrival.
//
// What Append does after discovery (Engine.arrival) now allocates a
// constant — the arrival, its facts, the scored facts, the constraint memo,
// one condition arena — plus a key per distinct constraint for the memo and
// another on the counter's first sight of it: a + b·|C^t|, however many
// facts the arrival has. That is asserted, with ~2.4× headroom over the
// measured average (51), on the average arrival and on the ones with the
// most facts. Discovery itself still writes the tuple
// into the µ cell of every fact (Invariant 1), and each write may regrow a
// cell or split an index node, so the whole of Append is held to the same
// budget plus one object per tuple stored and per cell created (counted by
// the store, ~1.3× the measured average), and to nothing per fact beyond
// that.
func TestEngineAppendAllocsScaleWithConstraints(t *testing.T) {
	const (
		warm     = 300
		measured = 50
		constant = 30.0 // a: measured ≈ 11
		perCtx   = 3.0  // b: the memo's key, and the counter's key + count on first sight; measured ≈ 1.3
	)
	ct := float64(lattice.CountMasks(wideDims, wideDhat))
	budget := constant + perCtx*ct
	schema, rows := wideStream(t, warm+2*measured+1)
	eng, err := New(schema, Options{MaxBoundDims: wideDhat})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, r := range rows[:warm] {
		if _, err := eng.Append(r.Dims, r.Measures); err != nil {
			t.Fatal(err)
		}
	}

	// The whole of Append, averaged.
	next, facts, before := warm, 0, eng.Metrics()
	avg := testing.AllocsPerRun(measured, func() {
		arr, err := eng.Append(rows[next].Dims, rows[next].Measures)
		if err != nil {
			t.Fatal(err)
		}
		facts += len(arr.Facts)
		next++
	})
	n := float64(next - warm) // AllocsPerRun's warm-up call included
	after := eng.Metrics()
	stores := float64(after.StoredTuples-before.StoredTuples+after.Cells-before.Cells) / n
	t.Logf("Append: %.0f allocs/arrival at %.0f facts/arrival; |C^t| = %.0f, budget %.0f + %.0f store writes",
		avg, float64(facts)/n, ct, budget, stores)
	if float64(facts)/n < 500 {
		t.Fatalf("only %.0f facts per arrival: not the wide shape", float64(facts)/n)
	}
	if avg > budget+stores {
		t.Errorf("Engine.Append allocates %.0f objects per arrival, budget %.0f + %.0f·|C^t| + %.0f store writes = %.0f "+
			"(a per-fact allocation crept back into scoring or materialisation)", avg, constant, perCtx, stores, budget+stores)
	}

	// The half after discovery, one arrival at a time.
	type sample struct {
		facts  int
		allocs uint64
	}
	samples := make([]sample, 0, measured)
	var ms runtime.MemStats
	var total uint64
	for _, r := range rows[next : next+measured] {
		tu, err := eng.table.Append(r.Dims, r.Measures)
		if err != nil {
			t.Fatal(err)
		}
		raw := eng.disc.Process(tu)
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		arr := eng.arrival(tu, raw)
		runtime.ReadMemStats(&ms)
		samples = append(samples, sample{len(arr.Facts), ms.Mallocs - mallocs})
		total += ms.Mallocs - mallocs
	}
	if mean := float64(total) / measured; mean > budget {
		t.Errorf("scoring and materialisation allocate %.1f objects per arrival, budget %.0f + %.0f·|C^t| = %.0f", mean, constant, perCtx, budget)
	} else {
		t.Logf("scoring and materialisation: %.1f allocs/arrival", mean)
	}
	slices.SortFunc(samples, func(a, b sample) int { return b.facts - a.facts })
	for _, s := range samples[:5] {
		t.Logf("%d facts: %d allocs after discovery", s.facts, s.allocs)
		if float64(s.allocs) > budget {
			t.Errorf("an arrival with %d facts allocates %d objects after discovery, budget %.0f: allocations follow the facts", s.facts, s.allocs, budget)
		}
	}
}

// TestSharedFactSlicesAreSafe: the facts of one arrival share their
// Conditions and Measures backing arrays, and the decoder reuses its memo
// table from arrival to arrival — so nothing it hands out may ever be
// written again. Two shards append concurrently (run under -race), with
// deletes in between; every arrival is retained and every fact's rendering
// recorded as it arrives. At the end each retained fact must still render
// the same, and appending to one fact's slices must copy, not write into
// the neighbour that follows it in the shared array.
func TestSharedFactSlicesAreSafe(t *testing.T) {
	const rowsN = 500
	schema, rows := wideStream(t, rowsN)
	pool, err := NewPool(schema, PoolOptions{
		Shards:   2,
		ShardDim: "team",
		Engine:   Options{MaxBoundDims: 2, MaxMeasureDims: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	team := slices.Index(schema.DimensionNames(), "team")
	perShard := make([][]Row, pool.Shards())
	for _, r := range rows {
		s := pool.ShardFor(r.Dims[team])
		perShard[s] = append(perShard[s], r)
	}

	type retained struct {
		arr      *Arrival
		rendered []string
	}
	kept := make([][]retained, pool.Shards())
	var wg sync.WaitGroup
	for s := range perShard {
		if len(perShard[s]) < 50 {
			t.Fatalf("shard %d got %d of %d rows: the stream does not exercise both shards", s, len(perShard[s]), rowsN)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range perShard[s] {
				arr, err := pool.Append(r.Dims, r.Measures)
				if err != nil {
					t.Error(err)
					return
				}
				k := retained{arr: arr, rendered: make([]string, len(arr.Facts))}
				for j, f := range arr.Facts {
					k.rendered[j] = f.String()
				}
				kept[s] = append(kept[s], k)
				if i%10 == 9 {
					if err := pool.Delete(s, kept[s][i-5].arr.TupleID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	check := func(when string) {
		t.Helper()
		for s := range kept {
			for _, k := range kept[s] {
				for j, f := range k.arr.Facts {
					if got := f.String(); got != k.rendered[j] {
						t.Fatalf("%s: shard %d tuple %d fact %d renders %q, rendered %q on arrival", when, s, k.arr.TupleID, j, got, k.rendered[j])
					}
				}
			}
		}
	}
	check("after the stream")

	// Append to every fact's slices: each append must land in a copy.
	shared := 0
	for s := range kept {
		for _, k := range kept[s] {
			seen := map[*Condition]bool{}
			for _, f := range k.arr.Facts {
				if len(f.Conditions) > 0 {
					if seen[&f.Conditions[0]] {
						shared++
					}
					seen[&f.Conditions[0]] = true
				}
				_ = append(f.Conditions, Condition{Attr: "scribble", Value: "scribble"})
				// Two holders of one Measures array each append: the first
				// must not see the second's element.
				mine := append(f.Measures, "mine")
				_ = append(f.Measures, "theirs")
				if got := mine[len(mine)-1]; got != "mine" {
					t.Fatalf("append to a shared Measures slice wrote through: %q", got)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two facts of an arrival share a Conditions array: the test no longer exercises sharing")
	}
	check("after appending to every fact's Conditions and Measures")
}
