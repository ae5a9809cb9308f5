package main

// The correctness gate. Three independent answers to "did the daemon
// compute the right thing":
//
//   - oracle: the paper's Alg. 2 (brute force over the shard's substream)
//     gives the number of facts of each of a shard's first rows;
//   - reference: an in-process Pool fed the same per-shard substreams gives
//     every ack's tuple id, fact count and top facts, the merged work
//     counters, and the complete fact set at the end;
//   - replicas: the restarted leader and the follower must return the
//     bytes the leader returned before it was killed.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/url"
	"sync"

	situfact "repro"
	"repro/internal/gen"
)

// expect is what the reference says the daemon must answer for one row.
type expect struct {
	factCount int
	top       []string // paper-notation text of the top facts (single-row requests only)
}

// reference is the in-process answer for one plan.
type reference struct {
	schema  *situfact.Schema
	rows    []expect
	metrics situfact.Metrics
	live    int
	digest  string // of the first walkFull fact groups of every shard, see hashFact
	facts   int    // fact groups in that digest
}

func newSchema(w workload) (*situfact.Schema, error) {
	rs, err := gen.NBASchema(w.D, w.M)
	if err != nil {
		return nil, err
	}
	return situfact.WrapSchema(rs), nil
}

// newPool builds a pool shaped like the daemon's: same shards, routing,
// caps and (default) algorithm.
func newPool(schema *situfact.Schema, w workload) (*situfact.Pool, error) {
	return situfact.NewPool(schema, situfact.PoolOptions{
		Shards:   shards,
		ShardDim: shardDim,
		Engine:   situfact.Options{MaxBoundDims: w.Dhat},
	})
}

// apply runs one connection's requests against a pool in order, recording
// what each appended row should be acknowledged with.
func apply(pool *situfact.Pool, st *stream, list []op, top int, rows []expect) error {
	for _, o := range list {
		if o.method == "DELETE" {
			if err := pool.Delete(o.shard, o.tuple); err != nil {
				return err
			}
			continue
		}
		for _, ri := range o.rows {
			arr, err := pool.Append(st.rows[ri].Dims, st.rows[ri].Measures)
			if err != nil {
				return err
			}
			if arr.Shard != st.shardOf[ri] || arr.TupleID != st.tupleID[ri] {
				return fmt.Errorf("reference: row %d landed at %d:%d, the plan says %d:%d",
					ri, arr.Shard, arr.TupleID, st.shardOf[ri], st.tupleID[ri])
			}
			e := expect{factCount: len(arr.Facts)}
			if len(o.rows) == 1 && top > 0 {
				for _, f := range arr.Top(top) {
					e.top = append(e.top, f.String())
				}
			}
			rows[ri] = e
		}
	}
	return nil
}

// buildReference feeds the plan to an in-process pool, one goroutine per
// connection like the real load, and captures everything the gate compares.
func buildReference(w workload, p *plan) (*reference, error) {
	schema, err := newSchema(w)
	if err != nil {
		return nil, err
	}
	pool, err := newPool(schema, w)
	if err != nil {
		return nil, err
	}
	// Closed and dropped before the daemon runs: a load generator holding
	// a second copy of the relation would pay for it in its own garbage
	// collections, inside the latencies it measures.
	defer pool.Close()
	ref := &reference{schema: schema, rows: make([]expect, len(p.st.rows))}
	for _, phase := range []struct {
		lists [][]op
		top   int
	}{{p.preload, 0}, {p.ops, w.Top}} {
		errs := make([]error, conns)
		var wg sync.WaitGroup
		for c := range phase.lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = apply(pool, p.st, phase.lists[c], phase.top, ref.rows)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("reference: %w", err)
			}
		}
	}
	ref.metrics = pool.Metrics()
	ref.live = pool.Len()
	h := sha256.New()
	for shard := 0; shard < shards; shard++ {
		cursor := ""
		for n := 0; n < walkFull; {
			page, err := pool.QueryFacts(situfact.FactFilter{Shard: shard}, cursor, walkPage)
			if err != nil {
				return nil, fmt.Errorf("reference: %w", err)
			}
			for _, f := range page.Facts {
				hashFact(h, f.Shard, f.String(), f.TupleIDs)
			}
			n += len(page.Facts)
			ref.facts += len(page.Facts)
			if cursor = page.NextCursor; cursor == "" {
				break
			}
		}
	}
	ref.digest = hex.EncodeToString(h.Sum(nil))
	return ref, nil
}

// hashFact folds one fact group into a digest in a form both sides can
// produce: the owning shard, the paper-notation text (context, subspace,
// context and skyline sizes) and the skyline's tuple ids.
func hashFact(h hash.Hash, shard int, text string, tupleIDs []int64) {
	fmt.Fprintf(h, "%d|%s|%v\n", shard, text, tupleIDs)
}

// oracleCounts runs the paper's brute-force algorithm over each shard's
// substream and returns the fact count of every stream row it covered:
// the first w.OracleRows rows of each shard, stopping at the first row a
// delete could have preceded.
func oracleCounts(w workload, p *plan) (map[int]int, error) {
	schema, err := newSchema(w)
	if err != nil {
		return nil, err
	}
	engines := make([]*situfact.Engine, shards)
	for s := range engines {
		engines[s], err = situfact.New(schema, situfact.Options{
			Algorithm: situfact.AlgoBruteForce, MaxBoundDims: w.Dhat, DisableProminence: true,
		})
		if err != nil {
			return nil, err
		}
		defer engines[s].Close()
	}
	limit := w.Preload + w.Rows
	if w.DeleteEvery > 0 {
		limit = w.Preload // deletes start in the measured phase
	}
	out := make(map[int]int)
	fed := make([]int, shards)
	for ri := 0; ri < limit; ri++ {
		s := p.st.shardOf[ri]
		if fed[s] == w.OracleRows {
			continue
		}
		arr, err := engines[s].Append(p.st.rows[ri].Dims, p.st.rows[ri].Measures)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		out[ri] = len(arr.Facts)
		fed[s]++
	}
	return out, nil
}

// The fact set is compared in whole pages of the daemon's largest size: the
// first walkFull groups of every shard once per run, the first walkSample
// in the other rounds. A complete walk is not affordable on the wide shape
// (2 million groups, 17 s per daemon); the merged counters, which are
// compared in full, cover the rest.
const (
	walkPage   = 500
	walkFull   = 5000
	walkSample = 1000
)

// factsPage is the part of a GET /v1/facts response the walk reads.
type factsPage struct {
	Facts []struct {
		Shard    int     `json:"shard"`
		TupleIDs []int64 `json:"tuple_ids"`
		Text     string  `json:"text"`
	} `json:"facts"`
	NextCursor string `json:"next_cursor"`
}

// walk pages through the first perShard fact groups of every shard (whole
// pages, so a little more). It always returns the digest of the raw
// response bytes — leader, restarted leader and follower must agree on
// those — and with parse also the fact digest the reference computes.
func walk(d *daemon, perShard int, parse bool) (raw, facts string, n int, err error) {
	rawH, factH := sha256.New(), sha256.New()
	for shard := 0; shard < shards; shard++ {
		cursor := ""
		for got := 0; got < perShard; got += walkPage {
			q := url.Values{"limit": {fmt.Sprint(walkPage)}, "shard": {fmt.Sprint(shard)}}
			if cursor != "" {
				q.Set("cursor", cursor)
			}
			resp, err := d.client.Get(d.base + "/v1/facts?" + q.Encode())
			if err != nil {
				return "", "", 0, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return "", "", 0, err
			}
			if resp.StatusCode != http.StatusOK {
				return "", "", 0, fmt.Errorf("GET /v1/facts: %s: %s", resp.Status, tail(string(body), 256))
			}
			rawH.Write(body)
			if parse {
				var page factsPage
				if err := json.Unmarshal(body, &page); err != nil {
					return "", "", 0, fmt.Errorf("GET /v1/facts: %w", err)
				}
				for _, f := range page.Facts {
					hashFact(factH, f.Shard, f.Text, f.TupleIDs)
				}
				n += len(page.Facts)
				cursor = page.NextCursor
			} else if cursor, err = lastCursor(body); err != nil {
				return "", "", 0, err
			}
			if cursor == "" {
				break
			}
		}
	}
	return hex.EncodeToString(rawH.Sum(nil)), hex.EncodeToString(factH.Sum(nil)), n, nil
}

// lastCursor extracts next_cursor from a page without decoding its facts:
// the daemon writes it as the last member, and a cursor is base64, so it
// holds no quote or escape.
func lastCursor(body []byte) (string, error) {
	const key = `"next_cursor":"`
	trimmed := body
	for len(trimmed) > 0 && (trimmed[len(trimmed)-1] == '\n' || trimmed[len(trimmed)-1] == '}') {
		trimmed = trimmed[:len(trimmed)-1]
	}
	if len(trimmed) == 0 || trimmed[len(trimmed)-1] != '"' {
		return "", nil // the page ends with the facts array: no cursor, last page
	}
	end := len(trimmed) - 1
	start := end
	for start > 0 && trimmed[start-1] != '"' {
		start--
	}
	if start < len(key) || string(trimmed[start-len(key):start]) != key {
		return "", fmt.Errorf("GET /v1/facts: page ends in a string that is not next_cursor: %s", tail(string(body), 80))
	}
	return string(trimmed[start:end]), nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// checkCounters compares the daemon's merged work counters with the
// reference's. They are exact functions of the per-shard substreams.
func checkCounters(who string, m *daemonMetrics, ref *reference) error {
	got := situfact.Metrics{
		Tuples: m.Merged.Tuples, Comparisons: m.Merged.Comparisons, Traversed: m.Merged.Traversed,
		Facts: m.Merged.Facts, StoredTuples: m.Merged.StoredTuples, Cells: m.Merged.Cells,
	}
	want := ref.metrics
	want.Reads, want.Writes = 0, 0
	if got != want {
		return fmt.Errorf("%s: merged counters %+v, reference %+v", who, got, want)
	}
	if m.Len != ref.live {
		return fmt.Errorf("%s: %d live tuples, reference %d", who, m.Len, ref.live)
	}
	return nil
}
