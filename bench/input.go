package main

// Input generation: the NBA stream of one workload and seed, its partition
// over the load generator's connections, and the exact request bodies the
// daemon will see. Everything downstream — the daemon's facts, counters and
// bytes on disk, the reference pool, the traced rungs — is a function of
// what this file produces, so this is the one place determinism is decided.
//
// What the seed varies. The league (players, teams, abilities) and its
// games come from internal/gen's NBA generator under one fixed generator
// seed; the -seed argument permutes the ARRIVAL ORDER of those games within
// consecutive blocks of shuffleBlock rows. Cost per row is heavy-tailed — a
// record-setting game has thousands of facts, a bench player's none — so
// independently drawn streams of affordable length do different amounts of
// work: between the quartiles of runs over different generator seeds the
// wide shape (800 rows) spread 24% in throughput and 17% in resident memory,
// the narrow shape (7 000 rows) 19% in resident memory and 5% in bytes on
// disk, which no bound survives. A permutation changes every request body,
// every tuple id and the facts of every arrival, but not the set of games,
// so the runs of different seeds do comparable work.
//
// Each connection owns a disjoint set of shards and sends its rows in
// stream order in a closed loop. A shard therefore sees its rows in the
// same order on every run, however the two connections interleave, and
// every per-shard quantity (tuple ids, facts, comparisons, stored cells)
// repeats exactly.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	situfact "repro"
	"repro/internal/gen"
	"repro/internal/relation"
)

// stream is the generated arrival sequence with its routing.
type stream struct {
	rows     []situfact.Row
	shardDim int     // index of the routing dimension in Row.Dims
	shardOf  []int   // shard owning row i
	tupleID  []int64 // row i's position in its shard's substream = its tuple id
	connOf   []int   // connection owning shardOf[i]
}

const (
	leagueSeed   = 2014 // internal/gen NBA generator seed: the league and its games
	shuffleBlock = 64   // rows whose arrival order the -seed argument permutes
)

// genStream draws the first n games of the league in the d/m space, permutes
// their arrival order block by block from the seed, and routes them.
func genStream(d, m int, seed int64, n int, shardFor func(string) int) (*stream, error) {
	g, err := gen.NewNBA(gen.NBAConfig{Seed: leagueSeed}, d, m)
	if err != nil {
		return nil, err
	}
	tb := relation.NewTable(g.Schema())
	if err := g.Fill(tb, n); err != nil {
		return nil, err
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	for lo := 0; lo < n; lo += shuffleBlock {
		block := order[lo:min(lo+shuffleBlock, n)]
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	}
	sd := g.Schema().DimIndex(shardDim)
	if sd < 0 {
		return nil, fmt.Errorf("input: schema %s has no %s dimension to shard by", g.Schema(), shardDim)
	}
	st := &stream{
		rows:     make([]situfact.Row, n),
		shardDim: sd,
		shardOf:  make([]int, n),
		tupleID:  make([]int64, n),
		connOf:   make([]int, n),
	}
	perShard := make([]int, shards)
	for i := 0; i < n; i++ {
		tu := tb.At(order[i])
		dims := make([]string, len(tu.Dims))
		for j, code := range tu.Dims {
			dims[j] = tb.Dict().Decode(j, code)
		}
		st.rows[i] = situfact.Row{Dims: dims, Measures: tu.Raw}
		s := shardFor(dims[sd])
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("input: row %d routed to shard %d of %d", i, s, shards)
		}
		st.shardOf[i] = s
		st.tupleID[i] = int64(perShard[s])
		perShard[s]++
	}
	owner := assignShards(perShard)
	for i := range st.rows {
		st.connOf[i] = owner[st.shardOf[i]]
	}
	return st, nil
}

// assignShards gives each shard to one connection, largest shard first to
// the connection with the fewest rows so far, so the connections carry
// about equal load.
func assignShards(rowsPerShard []int) []int {
	order := make([]int, len(rowsPerShard))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rowsPerShard[order[a]] > rowsPerShard[order[b]] })
	owner := make([]int, len(rowsPerShard))
	load := make([]int, conns)
	for _, s := range order {
		c := 0
		for k := 1; k < conns; k++ {
			if load[k] < load[c] {
				c = k
			}
		}
		owner[s] = c
		load[c] += rowsPerShard[s]
	}
	return owner
}

// op is one write request.
type op struct {
	method string
	path   string
	body   []byte
	rows   []int // stream indices appended by this request, in order
	// delete target (method DELETE)
	shard int
	tuple int64
}

// plan is what one round sends: per connection, the set-up requests and
// the measured requests, each in send order.
type plan struct {
	st      *stream
	preload [][]op
	ops     [][]op
	sha256  string // of every request's method, path and body, in plan order
}

const preloadBatch = 256

type rowJSON struct {
	Dims     []string  `json:"dims"`
	Measures []float64 `json:"measures"`
	Top      int       `json:"top,omitempty"`
}

type batchJSON struct {
	Rows []rowJSON `json:"rows"`
}

// buildPlan turns the first w.Preload+w.Rows rows of the stream into
// requests.
func buildPlan(st *stream, w workload) (*plan, error) {
	if len(st.rows) < w.Preload+w.Rows {
		return nil, fmt.Errorf("input: stream has %d rows, workload %s needs %d", len(st.rows), w.Name, w.Preload+w.Rows)
	}
	p := &plan{st: st, preload: make([][]op, conns), ops: make([][]op, conns)}
	perConn := func(lo, hi int) [][]int {
		out := make([][]int, conns)
		for i := lo; i < hi; i++ {
			out[st.connOf[i]] = append(out[st.connOf[i]], i)
		}
		return out
	}
	for c, idx := range perConn(0, w.Preload) {
		for len(idx) > 0 {
			n := min(preloadBatch, len(idx))
			o, err := appendOp(st, idx[:n], preloadBatch, 0)
			if err != nil {
				return nil, err
			}
			p.preload[c] = append(p.preload[c], o)
			idx = idx[n:]
		}
	}
	for c, idx := range perConn(w.Preload, w.Preload+w.Rows) {
		for len(idx) > 0 {
			// A delete retracts the first row of the request sent half a
			// delete period earlier on this connection: acked (the loop is
			// closed), never deleted twice, and never in the preload.
			if k := len(p.ops[c]); w.DeleteEvery > 0 && k%w.DeleteEvery == w.DeleteEvery-1 {
				victim := p.ops[c][k-w.DeleteEvery/2].rows[0]
				p.ops[c] = append(p.ops[c], op{
					method: "DELETE",
					path:   fmt.Sprintf("/v1/tuples/%d:%d", st.shardOf[victim], st.tupleID[victim]),
					shard:  st.shardOf[victim],
					tuple:  st.tupleID[victim],
				})
				continue
			}
			n := min(w.Batch, len(idx))
			o, err := appendOp(st, idx[:n], w.Batch, w.Top)
			if err != nil {
				return nil, err
			}
			p.ops[c] = append(p.ops[c], o)
			idx = idx[n:]
		}
	}
	h := sha256.New()
	for _, phase := range [][][]op{p.preload, p.ops} {
		for _, list := range phase {
			for _, o := range list {
				fmt.Fprintf(h, "%s %s %d\n", o.method, o.path, len(o.body))
				h.Write(o.body)
			}
		}
	}
	p.sha256 = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// appendOp encodes one append request: the single-row endpoint when the
// workload's batch size is 1, the batch endpoint otherwise.
func appendOp(st *stream, idx []int, batch, top int) (op, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	o := op{method: "POST", rows: idx}
	var err error
	if batch == 1 {
		r := st.rows[idx[0]]
		o.path = "/v1/tuples"
		err = enc.Encode(rowJSON{Dims: r.Dims, Measures: r.Measures, Top: top})
	} else {
		o.path = "/v1/tuples:batch"
		b := batchJSON{Rows: make([]rowJSON, len(idx))}
		for i, ri := range idx {
			b.Rows[i] = rowJSON{Dims: st.rows[ri].Dims, Measures: st.rows[ri].Measures}
		}
		err = enc.Encode(b)
	}
	if err != nil {
		return op{}, fmt.Errorf("input: encode request: %w", err)
	}
	o.body = buf.Bytes()
	return o, nil
}
