package situfact

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
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
