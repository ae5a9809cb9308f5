package situfact

import (
	"encoding/base64"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// queryTestSchema builds a small 4-dim / 3-measure schema whose low
// cardinality forces heavy cell overlap — the regime where filter and
// pagination bugs hide.
func queryTestSchema(t *testing.T) *Schema {
	t.Helper()
	schema, err := NewSchemaBuilder("qtest").
		Dimension("region").Dimension("kind").Dimension("tier").Dimension("label").
		Measure("score", LargerBetter).
		Measure("cost", SmallerBetter).
		Measure("bonus", LargerBetter).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// randomRow draws a row under tight per-dimension cardinality.
func randomRow(rng *rand.Rand) Row {
	return Row{
		Dims: []string{
			fmt.Sprintf("region-%d", rng.Intn(3)),
			fmt.Sprintf("kind-%d", rng.Intn(3)),
			fmt.Sprintf("tier-%d", rng.Intn(2)),
			fmt.Sprintf("label-%d", rng.Intn(4)),
		},
		Measures: []float64{
			float64(rng.Intn(8)),
			float64(rng.Intn(8)),
			float64(rng.Intn(8)),
		},
	}
}

// factKey is the canonical comparable form of a QueryFact: every exported
// field, so two facts compare equal exactly when a client would see them
// as equal.
func factKey(q QueryFact) string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard=%d|", q.Shard)
	for _, c := range q.Conditions {
		fmt.Fprintf(&b, "%s=%s,", c.Attr, c.Value)
	}
	fmt.Fprintf(&b, "|%s|ctx=%d|sky=%d|prom=%v|ids=%v",
		strings.Join(q.Measures, ","), q.ContextSize, q.SkylineSize, q.Prominence, q.TupleIDs)
	return b.String()
}

// applyFilterRef filters a full scan the straightforward way — the
// brute-force reference QueryFacts is checked against.
func applyFilterRef(all []QueryFact, f FactFilter) []QueryFact {
	var out []QueryFact
	for _, q := range all {
		if f.Shard >= 0 && q.Shard != f.Shard {
			continue
		}
		ok := true
		for _, want := range f.Conditions {
			found := false
			for _, c := range q.Conditions {
				if c.Attr == want.Attr && c.Value == want.Value {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if len(f.Measures) > 0 {
			want := append([]string(nil), f.Measures...)
			got := append([]string(nil), q.Measures...)
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(want, ",") != strings.Join(got, ",") {
				continue
			}
		}
		if f.WithTuple {
			found := false
			for _, id := range q.TupleIDs {
				if id == f.TupleID {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		out = append(out, q)
	}
	return out
}

// collectPaginated drains QueryFacts page by page under the given limit,
// following cursors to the end.
func collectPaginated(t *testing.T, p *Pool, f FactFilter, limit int) []QueryFact {
	t.Helper()
	var out []QueryFact
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 100000 {
			t.Fatal("pagination does not terminate")
		}
		page, err := p.QueryFacts(f, cursor, limit)
		if err != nil {
			t.Fatalf("QueryFacts(cursor %q): %v", cursor, err)
		}
		out = append(out, page.Facts...)
		if page.NextCursor == "" {
			return out
		}
		cursor = page.NextCursor
	}
}

// TestPoolQueryEquivalence is the query-level divergence proof: a sharded
// pool's filtered, paginated scans must equal a brute-force filter over
// the union of per-shard solo engines fed the identical partitioned
// stream — for randomized filters and page sizes, across interleaved
// appends and deletes.
func TestPoolQueryEquivalence(t *testing.T) {
	const shards = 3
	const rowsPerRound = 60
	const rounds = 3
	schema := queryTestSchema(t)
	rng := rand.New(rand.NewSource(7))

	pool, err := NewPool(schema, PoolOptions{Shards: shards, ShardDim: "region"})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Solo engines, one per shard, fed exactly the rows the pool routes
	// there — per-shard tuple ids then coincide by construction.
	solo := make([]*Engine, shards)
	for i := range solo {
		if solo[i], err = New(schema, Options{}); err != nil {
			t.Fatal(err)
		}
		defer solo[i].Close()
	}

	var rows []Row // every live row, for drawing realistic filter values
	type handle struct {
		shard int
		id    int64
	}
	var live []handle
	for round := 0; round < rounds; round++ {
		for i := 0; i < rowsPerRound; i++ {
			r := randomRow(rng)
			rows = append(rows, r)
			arr, err := pool.Append(r.Dims, r.Measures)
			if err != nil {
				t.Fatal(err)
			}
			shard := pool.ShardFor(r.Dims[0])
			if arr.Shard != shard {
				t.Fatalf("pool routed to shard %d, ShardFor says %d", arr.Shard, shard)
			}
			sarr, err := solo[shard].Append(r.Dims, r.Measures)
			if err != nil {
				t.Fatal(err)
			}
			if sarr.TupleID != arr.TupleID {
				t.Fatalf("solo engine assigned tuple id %d, pool assigned %d", sarr.TupleID, arr.TupleID)
			}
			live = append(live, handle{shard: arr.Shard, id: arr.TupleID})
		}
		// Retract a few random tuples on both sides.
		for i := 0; i < 5 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			h := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := pool.Delete(h.shard, h.id); err != nil {
				t.Fatal(err)
			}
			if err := solo[h.shard].Delete(h.id); err != nil {
				t.Fatal(err)
			}
		}

		// Reference: the union of full unfiltered per-shard scans.
		var all []QueryFact
		for shard, eng := range solo {
			plan, err := pool.planQuery(FactFilter{Shard: AllShards, TupleID: -1})
			if err != nil {
				t.Fatal(err)
			}
			facts, err := eng.queryFacts(plan, shard)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, facts...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Shard != all[j].Shard {
				return all[i].Shard < all[j].Shard
			}
			if all[i].sortKey != all[j].sortKey {
				return all[i].sortKey < all[j].sortKey
			}
			return all[i].sortMask < all[j].sortMask
		})

		// Randomized filters against the reference, each drained through
		// randomized page sizes.
		measureNames := []string{"score", "cost", "bonus"}
		for trial := 0; trial < 25; trial++ {
			f := FactFilter{Shard: AllShards, TupleID: -1}
			if rng.Intn(3) == 0 {
				f.Shard = rng.Intn(shards)
			}
			for _, attr := range []string{"region", "kind", "tier", "label"} {
				if rng.Intn(4) != 0 {
					continue
				}
				var val string
				if rng.Intn(5) == 0 {
					val = "never-ingested" // matches nothing anywhere
				} else {
					r := rows[rng.Intn(len(rows))]
					switch attr {
					case "region":
						val = r.Dims[0]
					case "kind":
						val = r.Dims[1]
					case "tier":
						val = r.Dims[2]
					case "label":
						val = r.Dims[3]
					}
				}
				f.Conditions = append(f.Conditions, Condition{Attr: attr, Value: val})
			}
			if rng.Intn(3) == 0 {
				k := 1 + rng.Intn(3)
				perm := rng.Perm(len(measureNames))
				for _, i := range perm[:k] {
					f.Measures = append(f.Measures, measureNames[i])
				}
			}
			if rng.Intn(5) == 0 && len(live) > 0 {
				h := live[rng.Intn(len(live))]
				f.Shard = h.shard
				f.WithTuple = true
				f.TupleID = h.id
			}

			want := applyFilterRef(all, f)
			limit := 1 + rng.Intn(7)
			got := collectPaginated(t, pool, f, limit)
			if len(got) != len(want) {
				t.Fatalf("round %d trial %d (filter %+v, limit %d): %d facts, reference has %d",
					round, trial, f, limit, len(got), len(want))
			}
			for i := range got {
				if factKey(got[i]) != factKey(want[i]) {
					t.Fatalf("round %d trial %d (filter %+v, limit %d): fact %d differs:\n  got  %s\n  want %s",
						round, trial, f, limit, i, factKey(got[i]), factKey(want[i]))
				}
			}
			// The no-limit scan must agree with its own pagination.
			whole := collectPaginated(t, pool, f, 0)
			if len(whole) != len(want) {
				t.Fatalf("round %d trial %d: unpaginated scan has %d facts, reference %d",
					round, trial, len(whole), len(want))
			}
		}
	}
}

// oracleFacts computes a pool's fact set from nothing but the rows it was
// fed: per shard, for every constraint binding at most dhat attributes whose
// context σ_C(R) is non-empty and every measure subspace of at most mhat
// attributes, the contextual skyline λ_M(σ_C(R)) by a quadratic dominance
// scan — the definition, not an algorithm, and no µ cell is read. Rows are
// the shard's live tuples by tuple id; the result is in no particular order.
func oracleFacts(shards []map[int64]Row, dhat, mhat int) []QueryFact {
	dimNames := []string{"region", "kind", "tier", "label"}
	measNames := []string{"score", "cost", "bonus"}
	larger := []bool{true, false, true} // queryTestSchema's directions
	// dominates: a is at least as good as b on every attribute of sub and
	// better on one.
	dominates := func(a, b Row, sub int) bool {
		better := false
		for i := range measNames {
			if sub&(1<<i) == 0 {
				continue
			}
			x, y := a.Measures[i], b.Measures[i]
			if !larger[i] {
				x, y = -x, -y
			}
			if x < y {
				return false
			}
			better = better || x > y
		}
		return better
	}
	var out []QueryFact
	for shard, rows := range shards {
		for bound := 0; bound < 1<<len(dimNames); bound++ {
			if bits.OnesCount(uint(bound)) > dhat {
				continue
			}
			contexts := map[string][]int64{} // bound values → the tuples that carry them
			for id, r := range rows {
				var vals strings.Builder
				for d := range dimNames {
					if bound&(1<<d) != 0 {
						vals.WriteString(r.Dims[d] + "\x00")
					}
				}
				key := vals.String()
				contexts[key] = append(contexts[key], id)
			}
			for _, ids := range contexts {
				slices.Sort(ids)
				var conditions []Condition
				for d, name := range dimNames {
					if bound&(1<<d) != 0 {
						conditions = append(conditions, Condition{Attr: name, Value: rows[ids[0]].Dims[d]})
					}
				}
				for sub := 1; sub < 1<<len(measNames); sub++ {
					if bits.OnesCount(uint(sub)) > mhat {
						continue
					}
					qf := QueryFact{Shard: shard, Conditions: conditions, ContextSize: int64(len(ids))}
					for i, name := range measNames {
						if sub&(1<<i) != 0 {
							qf.Measures = append(qf.Measures, name)
						}
					}
					for _, id := range ids {
						if !slices.ContainsFunc(ids, func(o int64) bool { return dominates(rows[o], rows[id], sub) }) {
							qf.TupleIDs = append(qf.TupleIDs, id)
						}
					}
					qf.SkylineSize = len(qf.TupleIDs)
					qf.Prominence = float64(qf.ContextSize) / float64(qf.SkylineSize)
					out = append(out, qf)
				}
			}
		}
	}
	return out
}

// TestPoolQueryFactsAreTheContextualSkylines holds the read path to the
// paper's contract — facts = oracle facts — with an oracle that does not
// read the store: every other read reference (scanFacts, scanTopFacts, the
// solo engines of TestPoolQueryEquivalence) walks the same µ cells as the
// code under test, so a pool whose cells are not the contextual skylines
// (TopDown's Invariant 2 keeps a tuple at its maximal constraints only)
// agrees with all of them while serving storage, not facts. After a seeded
// history with deletes, and again after checkpoint + restore + unobserved
// replay, the full QueryFacts walk must equal oracleFacts group for group —
// conditions, measures, tuple ids, skyline size, context size, prominence —
// with nothing missing and nothing extra.
func TestPoolQueryFactsAreTheContextualSkylines(t *testing.T) {
	schema := queryTestSchema(t)
	for _, tc := range []struct {
		name       string
		shards     int
		opt        Options
		dhat, mhat int // the caps the options spell, for the oracle
	}{
		{"sbottomup/shards=1", 1, Options{}, 4, 3},
		{"sbottomup/shards=4", 4, Options{}, 4, 3},
		{"bottomup/shards=4", 4, Options{Algorithm: AlgoBottomUp}, 4, 3},
		{"bottomup/shards=1/dhat=2/mhat=2", 1, Options{Algorithm: AlgoBottomUp, MaxBoundDims: 2, MaxMeasureDims: 2}, 2, 2},
		{"sbottomup/shards=4/dhat=3", 4, Options{MaxBoundDims: 3}, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			walDir, snapDir := t.TempDir(), t.TempDir()
			pool, err := NewPool(schema, PoolOptions{Shards: tc.shards, ShardDim: "region", Engine: tc.opt})
			if err != nil {
				t.Fatal(err)
			}
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
			live := make([]map[int64]Row, tc.shards)
			for i := range live {
				live[i] = map[int64]Row{}
			}
			var handles []poolHandle
			mutate := func(steps int) {
				t.Helper()
				for i := 0; i < steps; i++ {
					if len(handles) > 8 && rng.Intn(5) == 0 {
						j := rng.Intn(len(handles))
						h := handles[j]
						handles[j] = handles[len(handles)-1]
						handles = handles[:len(handles)-1]
						if err := pool.Delete(h.shard, h.id); err != nil {
							t.Fatal(err)
						}
						delete(live[h.shard], h.id)
						continue
					}
					r := randomRow(rng)
					arr, err := pool.Append(r.Dims, r.Measures)
					if err != nil {
						t.Fatal(err)
					}
					live[arr.Shard][arr.TupleID] = r
					handles = append(handles, poolHandle{shard: arr.Shard, id: arr.TupleID})
				}
			}
			check := func(when string) {
				t.Helper()
				got := map[string]bool{}
				for _, qf := range collectPaginated(t, pool, FactFilter{Shard: AllShards}, 64) {
					if got[factKey(qf)] {
						t.Errorf("%s: served twice: %s", when, factKey(qf))
					}
					got[factKey(qf)] = true
				}
				want := oracleFacts(live, tc.dhat, tc.mhat)
				missing := 0
				for _, qf := range want {
					if !got[factKey(qf)] {
						if missing++; missing <= 5 {
							t.Errorf("%s: not served: %s", when, factKey(qf))
						}
					}
					delete(got, factKey(qf))
				}
				extra := 0
				for k := range got {
					if extra++; extra <= 5 {
						t.Errorf("%s: served, but no contextual skyline: %s", when, k)
					}
				}
				if missing > 0 || len(got) > 0 {
					t.Fatalf("%s: of %d contextual skylines %d are not served, and %d served groups are not one",
						when, len(want), missing, len(got))
				}
				if st := pool.IndexStats(); st.Entries != int64(len(want)) {
					t.Errorf("%s: IndexStats().Entries = %d, the oracle has %d fact groups", when, st.Entries, len(want))
				}
			}
			mutate(90)
			if _, err := pool.Checkpoint(snapDir, nil); err != nil {
				t.Fatal(err)
			}
			mutate(50)
			check("after the history")

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
			check("after checkpoint + restore + unobserved replay")
		})
	}
}

// collectPages walks the full cursor chain, keeping every page whole —
// facts, internal sort coordinates, and the NextCursor strings — so two
// read paths can be compared byte-for-byte, pagination artifacts included.
func collectPages(t *testing.T, query func(FactFilter, string, int) (FactPage, error), f FactFilter, limit int) []FactPage {
	t.Helper()
	var out []FactPage
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 100000 {
			t.Fatal("pagination does not terminate")
		}
		page, err := query(f, cursor, limit)
		if err != nil {
			t.Fatalf("query(cursor %q): %v", cursor, err)
		}
		out = append(out, page)
		if page.NextCursor == "" {
			return out
		}
		cursor = page.NextCursor
	}
}

// randomQueryFilter draws a filter the way TestPoolQueryEquivalence does:
// random shard restriction, conditions sampled from ingested rows (with
// the occasional never-seen value), measure subsets, and tuple membership.
func randomQueryFilter(rng *rand.Rand, shards int, rows []Row, live []poolHandle) FactFilter {
	f := FactFilter{Shard: AllShards, TupleID: -1}
	if rng.Intn(3) == 0 {
		f.Shard = rng.Intn(shards)
	}
	for d, attr := range []string{"region", "kind", "tier", "label"} {
		if rng.Intn(4) != 0 {
			continue
		}
		val := "never-ingested"
		if rng.Intn(5) != 0 && len(rows) > 0 {
			val = rows[rng.Intn(len(rows))].Dims[d]
		}
		f.Conditions = append(f.Conditions, Condition{Attr: attr, Value: val})
	}
	if rng.Intn(3) == 0 {
		names := []string{"score", "cost", "bonus"}
		k := 1 + rng.Intn(3)
		for _, i := range rng.Perm(3)[:k] {
			f.Measures = append(f.Measures, names[i])
		}
	}
	if rng.Intn(5) == 0 && len(live) > 0 {
		h := live[rng.Intn(len(live))]
		f.Shard = h.shard
		f.WithTuple = true
		f.TupleID = h.id
	}
	return f
}

type poolHandle struct {
	shard int
	id    int64
}

// comparePaths drains random filtered queries through the served read
// path (the fact index) and the reference scan (query_oracle_test.go) and
// fails on the first byte-level difference: page boundaries, cursor
// strings, fact contents, and internal sort coordinates must all agree.
func comparePaths(t *testing.T, pool *Pool, rng *rand.Rand, shards, trials int, rows []Row, live []poolHandle, label string) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		f := randomQueryFilter(rng, shards, rows, live)
		limit := rng.Intn(7) // 0 = unpaginated
		idxPages := collectPages(t, pool.QueryFacts, f, limit)
		scanPages := collectPages(t, pool.scanFacts, f, limit)
		if len(idxPages) != len(scanPages) {
			t.Fatalf("%s trial %d (filter %+v, limit %d): index path made %d pages, scan path %d",
				label, trial, f, limit, len(idxPages), len(scanPages))
		}
		for pi := range idxPages {
			ip, sp := idxPages[pi], scanPages[pi]
			if ip.NextCursor != sp.NextCursor {
				t.Fatalf("%s trial %d page %d: cursor %q (index) vs %q (scan)",
					label, trial, pi, ip.NextCursor, sp.NextCursor)
			}
			if len(ip.Facts) != len(sp.Facts) {
				t.Fatalf("%s trial %d page %d: %d facts (index) vs %d (scan)",
					label, trial, pi, len(ip.Facts), len(sp.Facts))
			}
			for i := range ip.Facts {
				a, b := ip.Facts[i], sp.Facts[i]
				if factKey(a) != factKey(b) || a.sortKey != b.sortKey || a.sortMask != b.sortMask {
					t.Fatalf("%s trial %d page %d fact %d differs:\n  index %s (%x/%d)\n  scan  %s (%x/%d)",
						label, trial, pi, i, factKey(a), a.sortKey, a.sortMask, factKey(b), b.sortKey, b.sortMask)
				}
			}
		}
	}
}

// TestPoolQueryIndexScanEquivalence is the index-vs-scan divergence
// proof: under random interleaved appends, deletes, mid-stream
// checkpoints, and full restarts (snapshot restore + WAL tail replay —
// the paths that REBUILD the index rather than grow it), every filtered,
// paginated query must come back byte-identical from the incremental
// fact index and from the reference scan, cursor strings included.
func TestPoolQueryIndexScanEquivalence(t *testing.T) {
	const shards = 3
	schema := queryTestSchema(t)
	rng := rand.New(rand.NewSource(11))
	walDir, snapDir := t.TempDir(), t.TempDir()

	pool, err := NewPool(schema, PoolOptions{Shards: shards, ShardDim: "region"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(pool, walDir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	var rows []Row
	var live []poolHandle
	mutate := func(appends, deletes int) {
		t.Helper()
		for i := 0; i < appends; i++ {
			r := randomRow(rng)
			rows = append(rows, r)
			arr, err := pool.Append(r.Dims, r.Measures)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, poolHandle{shard: arr.Shard, id: arr.TupleID})
		}
		for i := 0; i < deletes && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			h := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := pool.Delete(h.shard, h.id); err != nil {
				t.Fatal(err)
			}
		}
	}

	for phase := 0; phase < 3; phase++ {
		mutate(50, 6)
		if phase != 1 {
			// Checkpoint mid-phase so the coming restart restores a snapshot
			// AND replays a WAL tail past it; phase 1 restarts from the
			// previous snapshot with a longer tail instead.
			if _, err := pool.Checkpoint(snapDir, nil); err != nil {
				t.Fatal(err)
			}
		}
		mutate(25, 4)
		comparePaths(t, pool, rng, shards, 20, rows, live, fmt.Sprintf("phase %d", phase))

		// Full fact set (for the cross-restart identity check below).
		before := collectPaginated(t, pool, FactFilter{Shard: AllShards, TupleID: -1}, 0)

		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		pool, _, err = RestorePool(schema, snapDir)
		if err != nil {
			t.Fatal(err)
		}
		w, err = OpenWAL(pool, walDir, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.ReplayWAL(w, nil); err != nil {
			t.Fatal(err)
		}
		if err := pool.AttachWAL(w); err != nil {
			t.Fatal(err)
		}
		after := collectPaginated(t, pool, FactFilter{Shard: AllShards, TupleID: -1}, 0)
		if len(before) != len(after) {
			t.Fatalf("phase %d: restart changed fact count %d -> %d", phase, len(before), len(after))
		}
		for i := range before {
			if factKey(before[i]) != factKey(after[i]) {
				t.Fatalf("phase %d: restart changed fact %d:\n  before %s\n  after  %s",
					phase, i, factKey(before[i]), factKey(after[i]))
			}
		}
		comparePaths(t, pool, rng, shards, 10, rows, live, fmt.Sprintf("phase %d post-restart", phase))
	}
	if st := pool.IndexStats(); !st.Serving || st.Entries == 0 || st.Seeks == 0 {
		t.Fatalf("index stats %+v: want serving with entries and seeks", st)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryFactsValidation pins the query layer's error contract.
func TestQueryFactsValidation(t *testing.T) {
	schema := queryTestSchema(t)
	pool, err := NewPool(schema, PoolOptions{Shards: 2, ShardDim: "region"})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Append(
		[]string{"region-0", "kind-0", "tier-0", "label-0"},
		[]float64{1, 2, 3},
	); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		filter FactFilter
		cursor string
		substr string
	}{
		{"unknown attribute", FactFilter{Shard: AllShards, Conditions: []Condition{{Attr: "nope", Value: "x"}}}, "", "unknown dimension attribute"},
		{"conflicting values", FactFilter{Shard: AllShards, Conditions: []Condition{
			{Attr: "kind", Value: "a"}, {Attr: "kind", Value: "b"},
		}}, "", "constrained to both"},
		{"unknown measure", FactFilter{Shard: AllShards, Measures: []string{"nope"}}, "", "unknown measure attribute"},
		{"tuple without shard", FactFilter{Shard: AllShards, WithTuple: true, TupleID: 0}, "", "needs a shard"},
		{"negative tuple id", FactFilter{Shard: 0, WithTuple: true, TupleID: -1}, "", "negative tuple id"},
		{"shard out of range", FactFilter{Shard: 7}, "", "shard 7 of 2"},
		{"malformed cursor", FactFilter{Shard: AllShards}, "!!!not-base64!!!", "malformed cursor"},
		{"cursor shard mismatch", FactFilter{Shard: 1},
			encodeCursor(queryCursor{shard: 0, key: "", mask: 0}), "belongs to a different query"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := pool.QueryFacts(tc.filter, tc.cursor, 10)
			if err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("err = %v, want substring %q", err, tc.substr)
			}
		})
	}

	// Duplicate non-conflicting conditions collapse instead of erroring.
	if _, err := pool.QueryFacts(FactFilter{Shard: AllShards, Conditions: []Condition{
		{Attr: "kind", Value: "kind-0"}, {Attr: "kind", Value: "kind-0"},
	}}, "", 10); err != nil {
		t.Fatalf("duplicate equal conditions: %v", err)
	}
}

// TestQueryFactsCursorIsClientBytes: a cursor is bytes a client sends, so
// its key and mask are anything — and the position they name is looked up in
// an index of constraints and in a store block. Whatever they are, the page
// is the one the order defines (the facts strictly after (key, mask) in key
// bytes, then mask — the reference scan computes it by comparing, indexing
// nothing), in both block layouts, with and without a measure filter (which
// re-seeks inside the constraint the walk landed on), and never a panic.
func TestQueryFactsCursorIsClientBytes(t *testing.T) {
	wide := NewSchemaBuilder("wide").Dimension("region").Dimension("kind")
	for i := 0; i < 15; i++ { // past the store's dense width: sparse blocks
		wide.Measure(fmt.Sprintf("m%d", i), LargerBetter)
	}
	wideSchema, err := wide.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range []struct {
		name    string
		schema  *Schema
		opt     Options
		width   int
		measure string
		row     func(i int) Row
	}{
		{"dense", queryTestSchema(t), Options{}, 3, "cost", func(i int) Row {
			return Row{
				Dims:     []string{"region-0", fmt.Sprintf("kind-%d", i%3), "tier-0", fmt.Sprintf("label-%d", i%2)},
				Measures: []float64{float64(i % 4), float64(i % 3), float64(7 - i)},
			}
		}},
		{"sparse", wideSchema, Options{MaxMeasureDims: 2}, 15, "m14", func(i int) Row {
			r := Row{Dims: []string{"region-0", fmt.Sprintf("kind-%d", i%3)}, Measures: make([]float64, 15)}
			for j := range r.Measures {
				r.Measures[j] = float64((i*7 + j*3) % 5)
			}
			return r
		}},
	} {
		t.Run(form.name, func(t *testing.T) {
			pool, err := NewPool(form.schema, PoolOptions{Shards: 1, ShardDim: "region", Engine: form.opt})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			for i := 0; i < 8; i++ {
				r := form.row(i)
				if _, err := pool.Append(r.Dims, r.Measures); err != nil {
					t.Fatal(err)
				}
			}
			// One more row, alone under kind=gone; deleting it takes the last
			// cell of every constraint that binds the value.
			r := form.row(8)
			r.Dims[1] = "gone"
			arr, err := pool.Append(r.Dims, r.Measures)
			if err != nil {
				t.Fatal(err)
			}
			everything := FactFilter{Shard: AllShards}
			goneKey := ""
			for _, qf := range collectPaginated(t, pool, everything, 0) {
				if len(qf.Conditions) == 1 && qf.Conditions[0] == (Condition{Attr: "kind", Value: "gone"}) {
					goneKey = qf.sortKey
				}
			}
			if err := pool.Delete(arr.Shard, arr.TupleID); err != nil {
				t.Fatal(err)
			}
			var keys []string // the live constraints, in key order
			for _, qf := range collectPaginated(t, pool, everything, 0) {
				if len(keys) == 0 || keys[len(keys)-1] != qf.sortKey {
					keys = append(keys, qf.sortKey)
				}
			}
			if goneKey == "" || slices.Contains(keys, goneKey) || len(keys) < 6 {
				t.Fatalf("fixture: %d live constraints, kind=gone had key %x", len(keys), goneKey)
			}
			key, last := keys[len(keys)/2], keys[len(keys)-1]
			absent := "\xfe\xff\xff\x00" + key[4:] // well-formed, a region code no row has
			full := uint32(1)<<form.width - 1

			type outcome int
			const (
				anyPage   outcome = iota // whatever the order says
				nextKey                  // the first cell of the constraint after the cursor's
				emptyPage                // no facts, no cursor
			)
			for _, tc := range []struct {
				name string
				key  string
				mask uint32
				want outcome
			}{
				{"the full subspace", key, full, nextKey},
				{"one past the block", key, full + 1, nextKey},
				{"a mask between two blocks' worth", key, 1 << 20, nextKey},
				{"the largest mask", key, ^uint32(0), nextKey},
				{"mask 0", key, 0, anyPage},
				{"the last constraint, the largest mask", last, ^uint32(0), emptyPage},
				{"past every key", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", 0, emptyPage},
				{"a key cut short", key[:len(key)-1], full + 1, anyPage},
				{"a key too long", key + "\x01", 3, nextKey},
				{"no key at all", "", ^uint32(0), anyPage},
				{"a well-formed key no constraint has", absent, 1, anyPage},
				{"a constraint whose last cell was just deleted", goneKey, 0, anyPage},
				{"the same, past its block", goneKey, full + 1, anyPage},
			} {
				cursor := encodeCursor(queryCursor{shard: 0, key: tc.key, mask: tc.mask})
				for _, f := range []FactFilter{everything, {Shard: AllShards, Measures: []string{form.measure}}} {
					for _, limit := range []int{1, 5, 0} {
						got, err := pool.QueryFacts(f, cursor, limit)
						if err != nil {
							t.Fatalf("%s (measures %v, limit %d): %v", tc.name, f.Measures, limit, err)
						}
						want, err := pool.scanFacts(f, cursor, limit)
						if err != nil {
							t.Fatal(err)
						}
						if !sameQueryFacts(got.Facts, want.Facts) || got.NextCursor != want.NextCursor {
							t.Fatalf("%s (measures %v, limit %d): %d facts then cursor %q, the order says %d then %q",
								tc.name, f.Measures, limit, len(got.Facts), got.NextCursor, len(want.Facts), want.NextCursor)
						}
						switch {
						case tc.want == emptyPage && (len(got.Facts) != 0 || got.NextCursor != ""):
							t.Errorf("%s: %d facts and cursor %q, want the clean empty page", tc.name, len(got.Facts), got.NextCursor)
						case tc.want == nextKey && (len(got.Facts) == 0 || got.Facts[0].sortKey <= tc.key):
							t.Errorf("%s (measures %v, limit %d): the page does not start in the next constraint", tc.name, f.Measures, limit)
						}
					}
				}
			}
			for name, raw := range map[string]string{
				"a mask past 32 bits":   "v1|0|" + fmt.Sprintf("%x", key) + "|4294967296",
				"a negative mask":       "v1|0|" + fmt.Sprintf("%x", key) + "|-1",
				"a key not in hex":      "v1|0|zz|1",
				"another version":       "v2|0|" + fmt.Sprintf("%x", key) + "|1",
				"a shard past the pool": "v1|7|" + fmt.Sprintf("%x", key) + "|1",
			} {
				cursor := base64.RawURLEncoding.EncodeToString([]byte(raw))
				if _, err := pool.QueryFacts(everything, cursor, 5); err == nil || !strings.Contains(err.Error(), "malformed cursor") {
					t.Errorf("%s: err = %v, want malformed cursor", name, err)
				}
			}
		})
	}
}

// TestPoolTuple pins the point-read contract.
func TestPoolTuple(t *testing.T) {
	schema := queryTestSchema(t)
	pool, err := NewPool(schema, PoolOptions{Shards: 2, ShardDim: "region"})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	dims := []string{"region-1", "kind-2", "tier-0", "label-3"}
	meas := []float64{5, 1, 7}
	arr, err := pool.Append(dims, meas)
	if err != nil {
		t.Fatal(err)
	}

	info, err := pool.Tuple(arr.Shard, arr.TupleID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != arr.Shard || info.TupleID != arr.TupleID || info.Deleted {
		t.Fatalf("info = %+v, want shard %d tuple %d live", info, arr.Shard, arr.TupleID)
	}
	if strings.Join(info.Dims, ",") != strings.Join(dims, ",") {
		t.Fatalf("dims = %v, want %v", info.Dims, dims)
	}
	for i, m := range info.Measures {
		if m != meas[i] {
			t.Fatalf("measures = %v, want %v", info.Measures, meas)
		}
	}

	if err := pool.Delete(arr.Shard, arr.TupleID); err != nil {
		t.Fatal(err)
	}
	info, err = pool.Tuple(arr.Shard, arr.TupleID)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Deleted {
		t.Fatal("tuple not marked deleted after Delete")
	}

	if _, err := pool.Tuple(arr.Shard, 999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("out-of-range tuple: err = %v, want ErrNotFound", err)
	}
	if _, err := pool.Tuple(99, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("out-of-range shard: err = %v, want ErrNotFound", err)
	}
}
