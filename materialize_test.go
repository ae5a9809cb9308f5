package situfact

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/prominence"
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
	return nbaRows(tb, wideDims, wideMeasures, n)
}

// nbaRows draws the first n games of the league (generator seed 2014, the
// repository benchmark's) in the d/m space, as rows an engine or pool takes.
func nbaRows(tb testing.TB, d, m, n int) (*Schema, []Row) {
	tb.Helper()
	g, err := gen.NewNBA(gen.NBAConfig{Seed: 2014}, d, m)
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
		dims := make([]string, d)
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
// What Append does after discovery (counting the tuple, then
// Engine.arrival) allocates a constant, however many facts the arrival has
// and however many of its constraints are new: the arrival, its facts, one
// condition arena; the ranking works in storage the engine keeps, which only
// an arrival with more facts than any before it regrows, and a count is a
// slot of a column over the constraint ids discovery has just assigned. That
// bound is asserted on the arrivals with the most facts (the ones that
// regrow the ranking's storage), and the average arrival is held to what is
// measured (3.0) plus a third.
// Discovery itself still writes the tuple into the µ cell of every fact
// (Invariant 1), but a cell is a slot or a range of the store's id arena,
// so a write allocates nothing: what discovery allocates is a constraint's
// first sight (its key and block) and the arena's regrowth, and the whole
// of Append is held to a constant — what is measured plus a fifth — with
// nothing per fact or per store write. Discovery writes its facts into a
// slice it keeps from arrival to arrival (regrown only by an arrival with
// more facts than any before it), so what the median arrival allocates in
// discovery — cell and index regrowth, the constraint-value arena — stays
// below one fact's size per fact emitted: measured 8.5 B per 32-byte fact,
// where a facts slice allocated per arrival made it 69.
func TestEngineAppendAllocsScaleWithConstraints(t *testing.T) {
	const (
		warm     = 300
		measured = 50
		budget   = 12.0 // arrival, facts, arena + the ranking's seven buffers and the count column regrown
		meanMax  = 4.0  // the average arrival after discovery: measured 3.0
		wholeMax = 32.0 // the average Append, discovery included: measured 26
	)
	ct := float64(lattice.CountMasks(wideDims, wideDhat))
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
	next, facts := warm, 0
	avg := testing.AllocsPerRun(measured, func() {
		arr, err := eng.Append(rows[next].Dims, rows[next].Measures)
		if err != nil {
			t.Fatal(err)
		}
		facts += len(arr.Facts)
		next++
	})
	n := float64(next - warm) // AllocsPerRun's warm-up call included
	t.Logf("Append: %.0f allocs/arrival at %.0f facts/arrival; |C^t| = %.0f, budget %.0f", avg, float64(facts)/n, ct, wholeMax)
	if float64(facts)/n < 500 {
		t.Fatalf("only %.0f facts per arrival: not the wide shape", float64(facts)/n)
	}
	if avg > wholeMax {
		t.Errorf("Engine.Append allocates %.0f objects per arrival, budget %.0f "+
			"(a per-fact or per-write allocation crept into discovery, scoring or materialisation)", avg, wholeMax)
	}

	// The half after discovery, one arrival at a time; and the bytes
	// discovery allocates per fact it emits.
	type sample struct {
		facts  int
		allocs uint64
	}
	samples := make([]sample, 0, measured)
	discPerFact := make([]float64, 0, measured)
	var ms runtime.MemStats
	var total uint64
	for _, r := range rows[next : next+measured] {
		tu, err := eng.table.Append(r.Dims, r.Measures)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		discBytes := ms.TotalAlloc
		raw := eng.disc.Process(tu)
		runtime.ReadMemStats(&ms)
		discPerFact = append(discPerFact, float64(ms.TotalAlloc-discBytes)/float64(len(raw)))
		mallocs := ms.Mallocs
		eng.counter.Observe(tu)
		arr := eng.arrival(tu, raw, math.MaxInt)
		runtime.ReadMemStats(&ms)
		samples = append(samples, sample{len(arr.Facts), ms.Mallocs - mallocs})
		total += ms.Mallocs - mallocs
	}
	if mean := float64(total) / measured; mean > meanMax {
		t.Errorf("scoring and materialisation allocate %.1f objects per arrival on average, budget %.0f", mean, meanMax)
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
	slices.Sort(discPerFact)
	median, factBytes := discPerFact[measured/2], float64(unsafe.Sizeof(core.Fact{}))
	t.Logf("discovery: the median arrival allocates %.1f B per fact, a fact is %.0f B", median, factBytes)
	if median >= factBytes {
		t.Errorf("discovery allocates %.1f B per fact emitted in the median arrival, a fact is %.0f B: the arrival's facts slice is allocated afresh again", median, factBytes)
	}
}

// TestEngineArrivalMatchesScore: Engine.Append reads its facts straight off
// the ranking; prominence.Score writes the same ranking out. Decoding what
// Score returns for an arrival's raw facts, with nothing shared with the
// engine's decoder, must give the arrival's facts field for field — the
// exported wrapper and the engine path cannot drift apart.
func TestEngineArrivalMatchesScore(t *testing.T) {
	schema, rows := wideStream(t, 160)
	for _, algo := range []Algorithm{AlgoSBottomUp, AlgoTopDown} {
		eng, err := New(schema, Options{Algorithm: algo, MaxBoundDims: 3, MaxMeasureDims: 4})
		if err != nil {
			t.Fatal(err)
		}
		rs, dict := eng.schema, eng.table.Dict()
		facts := 0
		for _, r := range rows {
			tu, raw, err := eng.apply(r.Dims, r.Measures)
			if err != nil {
				t.Fatal(err)
			}
			got := eng.arrival(tu, raw, math.MaxInt).Facts
			// The counters now hold tu, as they did when arrival ranked.
			want := make([]Fact, 0, len(raw))
			for _, sf := range prominence.Score(raw, eng.counter, eng.sizer) {
				f := Fact{ContextSize: sf.ContextSize, SkylineSize: sf.SkylineSize, Prominence: sf.Prominence}
				for dim, v := range sf.Constraint.Vals {
					if v != lattice.Wildcard {
						f.Conditions = append(f.Conditions, Condition{Attr: rs.Dim(dim).Name, Value: dict.Decode(dim, v)})
					}
				}
				for i := 0; i < rs.NumMeasures(); i++ {
					if sf.Subspace&(1<<uint(i)) != 0 {
						f.Measures = append(f.Measures, rs.Measure(i).Name)
					}
				}
				want = append(want, f)
			}
			if len(got) != len(want) {
				t.Fatalf("%s tuple %d: %d facts, Score ranks %d", algo, tu.ID, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s tuple %d, position %d:\n engine %+v\n Score  %+v", algo, tu.ID, i, got[i], want[i])
				}
			}
			facts += len(got)
		}
		if facts < 10000 {
			t.Fatalf("%s: only %d facts compared", algo, facts)
		}
		eng.Close()
	}
}
