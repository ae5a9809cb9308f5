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

// oracleFacts computes a pool's fact set from nothing but the rows it was
// fed: per shard, for every constraint binding at most dhat attributes whose
// context σ_C(R) is non-empty and every measure subspace of at most mhat
// attributes, the contextual skyline λ_M(σ_C(R)) by a quadratic dominance
// scan — the definition, not an algorithm, and no µ cell is read. Rows are
// the shard's live tuples by tuple id; the result is in no particular order.
// A non-nil of keeps only the groups whose skyline holds that tuple: the facts
// its arrival reports, when it is the shard's newest.
func oracleFacts(shards []map[int64]Row, dhat, mhat int, of *poolHandle) []QueryFact {
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
		if of != nil && of.shard != shard {
			continue
		}
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
				if of != nil && !slices.Contains(ids, of.id) {
					continue
				}
				slices.Sort(ids)
				var conditions []Condition
				for d, name := range dimNames {
					if bound&(1<<d) != 0 {
						conditions = append(conditions, Condition{Attr: name, Value: rows[ids[0]].Dims[d]})
					}
				}
				for sub := 1; sub < 1<<len(measNames); sub++ {
					if bits.OnesCount(uint(sub)) > mhat || of != nil &&
						slices.ContainsFunc(ids, func(o int64) bool { return dominates(rows[o], rows[of.id], sub) }) {
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

// randomQueryFilter draws a filter for the history checker's read checks:
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
