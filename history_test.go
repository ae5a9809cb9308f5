package situfact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
)

// The history checker: one contract, one model, every configuration. A
// seeded generator draws an op sequence over queryTestSchema — Append,
// AppendBatch of 2–8 rows (each arrival carrying 0, 1, 5 or all facts),
// Delete of a live, tombstoned or never-assigned handle, a read check (a
// random filter drained at a random page size, and TopFacts), Checkpoint +
// TruncateBefore, crash-and-recover (restore the newest checkpoint or start
// fresh, replay observed or quiet, reattach, restart the pipeline) and a
// follower sync (restore the checkpoint, apply the leader's tail). Each
// history runs under one engine setup and shard
// count, in lockstep on three pools with a WAL attached: inline, pipelined
// at queue depth 4, pipelined adaptive. After every step the pools must
// agree with each other, and with a model that is nothing but the rows the
// test fed each shard — facts are checked against oracleFacts, the
// contextual skylines by definition, never against another path through the
// same µ cells.

// histSetup is an engine configuration a history runs under, with the caps
// its options spell for the oracle.
type histSetup struct {
	name       string
	opt        Options
	dhat, mhat int
}

var histSetups = []histSetup{
	{"sbottomup", Options{}, 4, 3},
	{"bottomup", Options{Algorithm: AlgoBottomUp}, 4, 3},
	{"bottomup-dhat2-mhat2", Options{Algorithm: AlgoBottomUp, MaxBoundDims: 2, MaxMeasureDims: 2}, 2, 2},
	{"sbottomup-noprominence", Options{DisableProminence: true}, 4, 3},
	{"sbottomup-dhat1-mhat1", Options{MaxBoundDims: 1, MaxMeasureDims: 1}, 1, 1},
}

var histShards = []int{1, 3, 4}

// histTops are the caps an append's arrival is drawn with: the count only,
// one fact, a daemon ack's five, all of them.
var histTops = []int{0, 1, 5, math.MaxInt}

// histPipelines are the lanes a history runs in lockstep; nil runs the write
// path inline.
var histPipelines = []*PipelineOptions{nil, {QueueDepth: 4}, {AdaptiveQueue: true}}

// TestHistory runs one seeded history per engine setup and shard count (one
// per setup under -short).
func TestHistory(t *testing.T) {
	n := len(histSetups) * len(histShards)
	if testing.Short() {
		n = len(histSetups)
	}
	for seed := range n {
		setup, shards := histSetups[seed%len(histSetups)], histShards[seed%len(histShards)]
		t.Run(fmt.Sprintf("seed=%d/%s/shards=%d", seed, setup.name, shards), func(t *testing.T) {
			t.Parallel()
			runHistory(t, rand.New(rand.NewSource(int64(seed))), setup, shards, histPipelines, 60, nil)
		})
	}
}

// FuzzPoolHistory decodes fuzz bytes into the same op sequence, setup and
// shard count included, over the inline and fixed-queue pools.
func FuzzPoolHistory(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 9, 3, 0, 0, 12, 1, 2, 15, 16, 0, 18, 17, 4, 0, 19, 13})
	f.Add([]byte{1, 2, 9, 5, 0, 0, 0, 0, 11, 3, 9, 4, 16, 12, 0, 17, 1, 18, 19, 14, 2})
	f.Add([]byte{4, 1, 0, 0, 15, 16, 12, 0, 17, 0, 19, 18, 14, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSource{data: data}
		rng := rand.New(src)
		setup, shards := histSetups[rng.Intn(len(histSetups))], histShards[rng.Intn(len(histShards))]
		runHistory(t, rng, setup, shards, histPipelines[:2], 64, func() bool { return len(src.data) == 0 })
	})
}

// fuzzSource hands a history one fuzz byte per draw, spread over the whole
// word so both Intn's masks and its modulus see it. Exhausted input reads
// as zeros, and ends the history.
type fuzzSource struct{ data []byte }

func (s *fuzzSource) Int63() int64 {
	if len(s.data) == 0 {
		return 0
	}
	b := uint64(s.data[0])
	s.data = s.data[1:]
	return int64(b * 0x0101010101010101 >> 1)
}

func (s *fuzzSource) Seed(int64) {}

// histLane is one of the pools a history runs in lockstep.
type histLane struct {
	pipe            *PipelineOptions
	pool            *Pool
	wal             *WAL
	walDir, snapDir string
}

// histModel is what the test fed each shard, and what a replay since the
// newest checkpoint (since the log began, without one) must report.
type histModel struct {
	next     []int64         // tuple ids assigned, per shard
	live     []map[int64]Row // live rows by tuple id, per shard
	handles  []poolHandle    // every id assigned, in order
	rows     []Row           // every row appended
	applied  int             // journaled ops that succeeded
	failed   int             // journaled ops that failed
	arrivals [][]*Arrival    // per shard, the journaled appends' arrivals, as capped
	ckpt     bool            // a checkpoint exists
}

type history struct {
	t      *testing.T
	schema *Schema
	setup  histSetup
	shards int
	lanes  []*histLane
	m      histModel
	step   int
	op     string
}

func (h *history) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d (%s): %s", h.step, h.op, fmt.Sprintf(format, args...))
}

func (h *history) check(err error) {
	h.t.Helper()
	if err != nil {
		h.fatalf("%v", err)
	}
}

// runHistory draws up to steps ops from rng (fewer once done reports the
// source spent) and runs each in lockstep on one lane per entry of pipes.
func runHistory(t *testing.T, rng *rand.Rand, setup histSetup, shards int, pipes []*PipelineOptions, steps int, done func() bool) {
	h := &history{t: t, schema: queryTestSchema(t), setup: setup, shards: shards}
	h.m.next = make([]int64, shards)
	h.m.live = make([]map[int64]Row, shards)
	for s := range h.m.live {
		h.m.live[s] = map[int64]Row{}
	}
	h.m.arrivals = make([][]*Arrival, shards)
	for _, pipe := range pipes {
		l := &histLane{pipe: pipe, walDir: t.TempDir(), snapDir: t.TempDir()}
		h.open(l, h.newPool())
		h.serve(l)
		h.lanes = append(h.lanes, l)
	}
	t.Cleanup(func() {
		for _, l := range h.lanes {
			l.pool.Close()
			l.wal.Close()
		}
	})
	for ; h.step < steps && (done == nil || !done()); h.step++ {
		switch k := rng.Intn(20); {
		case k < 8:
			h.op = "append"
			h.append([]Row{randomRow(rng)}, false, histTops[rng.Intn(len(histTops))])
		case k < 11:
			h.op = "batch"
			rows := make([]Row, 2+rng.Intn(7))
			for i := range rows {
				rows[i] = randomRow(rng)
			}
			h.append(rows, true, histTops[rng.Intn(len(histTops))])
		case k < 13:
			h.op = "delete"
			h.delete(rng)
		case k < 15:
			h.op = "read"
			h.read(rng)
		case k < 17:
			h.op = "checkpoint"
			h.checkpoint()
		case k < 18:
			h.op = "crash"
			h.crash(rng.Intn(2) == 0)
		default:
			h.op = "follow"
			h.follow()
		}
		p, live := h.lanes[0].pool, 0
		for _, rows := range h.m.live {
			live += len(rows)
		}
		if p.Len() != live {
			h.fatalf("Len = %d, the model holds %d live rows", p.Len(), live)
		}
		for i, l := range h.lanes {
			if st := l.wal.Stats(); st.SyncedLSN != st.LastLSN {
				h.fatalf("lane %d: every op is acknowledged, yet the log has synced %d of %d records", i, st.SyncedLSN, st.LastLSN)
			}
		}
		for i, l := range h.lanes[1:] {
			if l.pool.Metrics() != p.Metrics() || l.pool.Len() != p.Len() || l.pool.IndexStats() != p.IndexStats() {
				h.fatalf("lane %d: Metrics %+v, Len %d, IndexStats %+v; lane 0: %+v, %d, %+v", i+1,
					l.pool.Metrics(), l.pool.Len(), l.pool.IndexStats(), p.Metrics(), p.Len(), p.IndexStats())
			}
		}
	}
}

func (h *history) newPool() *Pool {
	p, err := NewPool(h.schema, PoolOptions{Shards: h.shards, ShardDim: "region", Engine: h.setup.opt})
	h.check(err)
	return p
}

// open gives a lane its pool and opens the lane's log for it. Small
// segments, so a checkpoint's truncation really removes records.
func (h *history) open(l *histLane, p *Pool) {
	w, err := OpenWAL(p, l.walDir, WALOptions{SegmentBytes: 512})
	h.check(err)
	l.pool, l.wal = p, w
}

// serve attaches the lane's log and starts its pipeline, as configured.
func (h *history) serve(l *histLane) {
	h.check(l.pool.AttachWAL(l.wal))
	if l.pipe != nil {
		h.check(l.pool.StartPipeline(*l.pipe))
	}
}

// append feeds rows to every lane (as one batch, or one append), each
// arrival carrying at most top facts, and checks each arrival against the
// oracle.
func (h *history) append(rows []Row, batch bool, top int) {
	var want []*Arrival
	for i, l := range h.lanes {
		var arrs []*Arrival
		var err error
		if batch {
			arrs, err = l.pool.AppendBatchContext(context.Background(), rows, top)
		} else {
			var arr *Arrival
			arr, err = l.pool.AppendContext(context.Background(), rows[0].Dims, rows[0].Measures, top)
			arrs = []*Arrival{arr}
		}
		h.check(err)
		if i == 0 {
			want = arrs
		} else if !reflect.DeepEqual(arrs, want) {
			h.fatalf("lane %d's arrivals differ from lane 0's", i)
		}
	}
	for i, r := range rows {
		h.arrived(r, want[i], top)
	}
}

// arrived records an acknowledged row in the model and holds its arrival,
// drawn with at most top facts, to the definition: it counts the groups of
// its shard whose contextual skyline holds it, and carries the best top of
// them — sizes and prominence included — in ranking order, so no group it
// leaves out ranks above one it carries.
func (h *history) arrived(r Row, arr *Arrival, top int) {
	s := h.lanes[0].pool.ShardFor(r.Dims[0])
	if arr.Shard != s || arr.TupleID != h.m.next[s] {
		h.fatalf("arrival %d:%d, the model routes it to %d:%d", arr.Shard, arr.TupleID, s, h.m.next[s])
	}
	h.m.live[s][arr.TupleID] = r
	h.m.next[s]++
	h.m.handles = append(h.m.handles, poolHandle{s, arr.TupleID})
	h.m.rows = append(h.m.rows, r)
	h.m.applied++
	h.m.arrivals[s] = append(h.m.arrivals[s], arr)
	var oracle []Fact
	want := map[string]bool{}
	for _, qf := range oracleFacts(h.m.live, h.setup.dhat, h.setup.mhat, &poolHandle{s, arr.TupleID}) {
		f := Fact{Conditions: qf.Conditions, Measures: qf.Measures}
		if !h.setup.opt.DisableProminence {
			f.ContextSize, f.SkylineSize, f.Prominence = qf.ContextSize, qf.SkylineSize, qf.Prominence
		}
		oracle = append(oracle, f)
		want[fmt.Sprint(f)] = true
	}
	if arr.FactCount != len(oracle) || len(arr.Facts) != min(top, len(oracle)) {
		h.fatalf("tuple %d:%d counts %d facts and carries %d at top=%d; %d contextual skylines hold it",
			s, arr.TupleID, arr.FactCount, len(arr.Facts), top, len(oracle))
	}
	for i, f := range arr.Facts {
		if !want[fmt.Sprint(f)] {
			h.fatalf("tuple %d:%d reports %v, not one of the %d contextual skylines that hold it (or twice)",
				s, arr.TupleID, f, len(oracle))
		}
		delete(want, fmt.Sprint(f))
		if i > 0 && !h.ranksBefore(arr.Facts[i-1], f) {
			h.fatalf("tuple %d:%d: fact %d ranks above fact %d", s, arr.TupleID, i, i-1)
		}
	}
	if len(arr.Facts) == 0 {
		return
	}
	last := arr.Facts[len(arr.Facts)-1]
	for _, f := range oracle {
		if want[fmt.Sprint(f)] && h.ranksBefore(f, last) {
			h.fatalf("tuple %d:%d leaves out %v at top=%d, which ranks above the last it carries, %v", s, arr.TupleID, f, top, last)
		}
	}
}

// ranksBefore orders two facts of one arrival as the engine ranks them:
// higher prominence first, then more bound attributes, a smaller measure
// subspace, a smaller subspace mask, and last the constraints' key order,
// which between two members of one tuple's C^t puts first the one binding
// the first attribute they disagree on. Without prominence the order is
// the rendered text's.
func (h *history) ranksBefore(a, b Fact) bool {
	if h.setup.opt.DisableProminence {
		return a.String() < b.String()
	}
	bound := func(f Fact) (m uint32) {
		for _, c := range f.Conditions {
			m |= 1 << h.schema.rs.DimIndex(c.Attr)
		}
		return m
	}
	subspace := func(f Fact) (m uint32) {
		for _, name := range f.Measures {
			m |= 1 << h.schema.rs.MeasureIndex(name)
		}
		return m
	}
	switch {
	case a.Prominence != b.Prominence:
		return a.Prominence > b.Prominence
	case len(a.Conditions) != len(b.Conditions):
		return len(a.Conditions) > len(b.Conditions)
	case len(a.Measures) != len(b.Measures):
		return len(a.Measures) < len(b.Measures)
	case subspace(a) != subspace(b):
		return subspace(a) < subspace(b)
	}
	differ := bound(a) ^ bound(b)
	return differ != 0 && bound(a)&(1<<bits.TrailingZeros32(differ)) != 0
}

// delete retracts a live, a tombstoned or a never-assigned handle on every
// lane, and requires exactly the error the model predicts.
func (h *history) delete(rng *rand.Rand) {
	live, dead := h.handles()
	s := rng.Intn(h.shards + 1) // never assigned; the last shard index is out of range
	hd := poolHandle{s, int64(rng.Intn(2))}
	if s < h.shards {
		hd.id += h.m.next[s]
	}
	switch k := rng.Intn(4); {
	case k < 2 && len(live) > 0:
		hd = live[rng.Intn(len(live))]
	case k == 2 && len(dead) > 0:
		hd = dead[rng.Intn(len(dead))]
	}
	var want error
	switch {
	case hd.shard >= h.shards:
		want = ErrNotFound
	case hd.id >= h.m.next[hd.shard]:
		want = ErrNotFound
	case !slices.Contains(live, hd):
		want = ErrAlreadyDeleted
	}
	var first error
	for i, l := range h.lanes {
		err := l.pool.Delete(hd.shard, hd.id)
		if !errors.Is(err, want) || (err == nil) != (want == nil) {
			h.fatalf("lane %d: Delete(%d, %d) = %v, the model says %v", i, hd.shard, hd.id, err, want)
		}
		if i == 0 {
			first = err
		} else if err != nil && err.Error() != first.Error() {
			h.fatalf("lane %d: Delete(%d, %d) = %q, lane 0 said %q", i, hd.shard, hd.id, err, first)
		}
	}
	switch {
	case want == nil:
		delete(h.m.live[hd.shard], hd.id)
		h.m.applied++
	case hd.shard < h.shards:
		h.m.failed++ // journaled before its validity is known
	}
}

// read drains a random filter at a random page size on every lane: the
// lanes serve the same pages, the full walk is the oracle's fact set and the
// reference scan's pages byte for byte, the filtered chain is the filtered
// walk, and TopFacts is the reference ranking.
func (h *history) read(rng *rand.Rand) {
	live, _ := h.handles()
	f := randomQueryFilter(rng, h.shards, h.m.rows, live)
	all := FactFilter{Shard: AllShards}
	draw := 1 + rng.Intn(7)
	// Page sizes scale with the result, so a chain is at most a few dozen
	// pages: the reference scan re-sorts a shard per page.
	limit := func(p *Pool, f FactFilter) int {
		page, err := p.QueryFacts(f, "", 0)
		h.check(err)
		return draw * (1 + len(page.Facts)/48)
	}
	var walk, chain []FactPage
	var tops [][]QueryFact
	var walkLimit, chainLimit int
	for i, l := range h.lanes {
		walkLimit, chainLimit = limit(l.pool, all), limit(l.pool, f)
		w := collectPages(h.t, l.pool.QueryFacts, all, walkLimit)
		c := collectPages(h.t, l.pool.QueryFacts, f, chainLimit)
		var ts [][]QueryFact
		for _, k := range []int{1, 7, 500} {
			top, err := l.pool.TopFacts(k)
			h.check(err)
			ts = append(ts, top)
		}
		if i == 0 {
			walk, chain, tops = w, c, ts
		} else if !reflect.DeepEqual(w, walk) || !reflect.DeepEqual(c, chain) || !reflect.DeepEqual(ts, tops) {
			h.fatalf("lane %d serves other pages or another ranking than lane 0 (filter %+v)", i, f)
		}
	}
	p := h.lanes[0].pool
	if scan := collectPages(h.t, p.scanFacts, all, walkLimit); !reflect.DeepEqual(walk, scan) {
		h.fatalf("the full walk's %d pages differ from the reference scan's %d", len(walk), len(scan))
	}
	if scan := collectPages(h.t, p.scanFacts, f, chainLimit); !reflect.DeepEqual(chain, scan) {
		h.fatalf("filter %+v: %d pages differ from the reference scan's %d", f, len(chain), len(scan))
	}
	served := map[string]bool{}
	var facts []QueryFact
	for _, page := range walk {
		for _, qf := range page.Facts {
			served[factKey(qf)] = true
			facts = append(facts, qf)
		}
	}
	oracle := oracleFacts(h.m.live, h.setup.dhat, h.setup.mhat, nil)
	for _, qf := range oracle {
		if h.setup.opt.DisableProminence {
			qf.ContextSize, qf.Prominence = 0, 0 // a served group still counts its skyline
		}
		if !served[factKey(qf)] {
			h.fatalf("the contextual skyline %s is not served", factKey(qf))
		}
	}
	if len(served) != len(facts) || len(facts) != len(oracle) || p.IndexStats().Entries != int64(len(oracle)) {
		h.fatalf("%d groups served (%d distinct), %d index entries; the oracle has %d",
			len(facts), len(served), p.IndexStats().Entries, len(oracle))
	}
	var got []string
	for _, page := range chain {
		for _, qf := range page.Facts {
			got = append(got, factKey(qf))
		}
	}
	var want []string
	for _, qf := range applyFilterRef(facts, f) {
		want = append(want, factKey(qf))
	}
	if !slices.Equal(got, want) {
		h.fatalf("filter %+v: %d facts served, the filtered oracle has %d", f, len(got), len(want))
	}
	ref, err := p.scanTopFacts(500) // the top k is the first k of the ranking
	h.check(err)
	for i, k := range []int{1, 7, 500} {
		if !sameQueryFacts(tops[i], ref[:min(k, len(ref))]) {
			h.fatalf("TopFacts(%d) differs from the reference ranking", k)
		}
	}
}

// handles splits the ids assigned so far into live and tombstoned ones.
func (h *history) handles() (live, dead []poolHandle) {
	for _, hd := range h.m.handles {
		if _, ok := h.m.live[hd.shard][hd.id]; ok {
			live = append(live, hd)
		} else {
			dead = append(dead, hd)
		}
	}
	return live, dead
}

// histState is a pool's logical state as a client and the store see it.
type histState struct {
	Metrics Metrics
	Len     int
	Content []string // per shard, logicalContent
	Pages   []FactPage
	Top     []QueryFact
}

func (h *history) state(p *Pool) histState {
	st := histState{Metrics: p.Metrics(), Len: p.Len()}
	for i := range p.shards {
		for _, line := range p.shards[i].eng.logicalContent() {
			st.Content = append(st.Content, fmt.Sprint(i, " ", line))
		}
	}
	st.Pages = collectPages(h.t, p.QueryFacts, FactFilter{Shard: AllShards}, 64)
	var err error
	st.Top, err = p.TopFacts(64)
	h.check(err)
	return st
}

// states reads every lane's state, requires them equal, and returns it.
func (h *history) states() histState {
	st := h.state(h.lanes[0].pool)
	for i, l := range h.lanes[1:] {
		h.sameState(h.state(l.pool), st, "lane %d against lane 0", i+1)
	}
	return st
}

func (h *history) sameState(got, want histState, format string, args ...any) {
	h.t.Helper()
	what := fmt.Sprintf(format, args...)
	switch {
	case got.Metrics != want.Metrics || got.Len != want.Len:
		h.fatalf("%s: Metrics %+v and Len %d, want %+v and %d", what, got.Metrics, got.Len, want.Metrics, want.Len)
	case !slices.Equal(got.Content, want.Content):
		diffLines(h.t, fmt.Sprintf("step %d (%s): %s: content", h.step, h.op, what), got.Content, want.Content)
		h.fatalf("%s: the content differs", what)
	case !reflect.DeepEqual(got.Pages, want.Pages):
		h.fatalf("%s: %d pages of facts differ from the %d wanted", what, len(got.Pages), len(want.Pages))
	case !sameQueryFacts(got.Top, want.Top):
		h.fatalf("%s: TopFacts(64) differs", what)
	}
}

// recovered is the pool a restart or a follower begins from: the
// checkpoint in dir, or a fresh pool without one.
func (h *history) recovered(dir string) *Pool {
	if !h.m.ckpt {
		return h.newPool()
	}
	p, _, err := RestorePool(h.schema, dir)
	h.check(err)
	return p
}

// checkpoint checkpoints and truncates every lane: the shard files are the
// same bytes on every lane, a restore reproduces the pool, and the
// restored pool's checkpoint the bytes.
func (h *history) checkpoint() {
	var files [][]byte
	for i, l := range h.lanes {
		st, err := l.pool.Checkpoint(l.snapDir, nil)
		h.check(err)
		h.check(l.wal.TruncateBefore(st.TruncatableLSN + 1))
		got := readShardSnapshots(h.t, l.snapDir, h.shards)
		if i == 0 {
			files = got
		} else if !reflect.DeepEqual(got, files) {
			h.fatalf("lane %d's shard files differ from lane 0's", i)
		}
		if n := len(slices.Concat(got...)); st.Bytes != int64(n) || st.LongestHold <= 0 || st.LongestHold > st.Elapsed {
			h.fatalf("lane %d: CheckpointStats %+v for %d bytes of shard files", i, st, n)
		}
	}
	h.m.applied, h.m.failed, h.m.arrivals, h.m.ckpt = 0, 0, make([][]*Arrival, h.shards), true
	want := h.states()
	r := h.recovered(h.lanes[0].snapDir)
	defer r.Close()
	h.sameState(h.state(r), want, "the restored pool")
	dir := h.t.TempDir()
	_, err := r.Checkpoint(dir, nil)
	h.check(err)
	if !reflect.DeepEqual(readShardSnapshots(h.t, dir, h.shards), files) {
		h.fatalf("checkpoint → restore → checkpoint changed the shard files")
	}
}

// crash drops every lane's pool and log and recovers: the newest checkpoint
// (a fresh pool without one), the log replayed observed or quiet, the log
// reattached and the pipeline restarted. Exactly the acknowledged ops come
// back, replay counts what the model journaled since the checkpoint, and an
// observer sees the original arrivals with all their facts: the ones they
// carried first.
func (h *history) crash(observe bool) {
	before := h.states()
	for i, l := range h.lanes {
		h.check(l.pool.Close())
		h.check(l.wal.Close())
		p := h.recovered(l.snapDir)
		h.open(l, p)
		seen := make([][]*Arrival, h.shards)
		var onArrival func(*Arrival)
		if observe {
			onArrival = func(a *Arrival) { seen[a.Shard] = append(seen[a.Shard], a) }
		}
		st, err := p.ReplayWAL(l.wal, onArrival)
		h.check(err)
		if st.Applied != h.m.applied || st.Failed != h.m.failed {
			h.fatalf("lane %d replayed %d applied / %d failed, the model journaled %d / %d since the checkpoint",
				i, st.Applied, st.Failed, h.m.applied, h.m.failed)
		}
		for s := range seen {
			if observe && len(seen[s]) != len(h.m.arrivals[s]) {
				h.fatalf("lane %d: the observed replay saw %d arrivals on shard %d, the model %d", i, len(seen[s]), s, len(h.m.arrivals[s]))
			}
			for j, a := range seen[s] {
				orig := h.m.arrivals[s][j]
				if a.Shard != orig.Shard || a.TupleID != orig.TupleID || a.FactCount != orig.FactCount ||
					len(a.Facts) != a.FactCount || len(orig.Facts) > 0 && !reflect.DeepEqual(a.Facts[:len(orig.Facts)], orig.Facts) {
					h.fatalf("lane %d: the observed replay's arrival %d:%d is not the original one", i, s, a.TupleID)
				}
			}
		}
		h.serve(l)
	}
	h.sameState(h.states(), before, "the recovered state against the state before the crash")
}

// follow bootstraps a follower of every lane from a copy of its checkpoint
// (a fresh pool without one) and applies the leader's tail from the
// follower's cursor: the tail has no gap, the follower serves the leader's
// state, and its snapshot is the leader's, byte for byte — though it
// interned the constraints the tail revived after the ones it restored.
func (h *history) follow() {
	want := h.states()
	for i, l := range h.lanes {
		dir := h.t.TempDir()
		h.check(os.CopyFS(dir, os.DirFS(l.snapDir)))
		f := h.recovered(dir)
		defer f.Close()
		cursor := f.TailCursor()
		recs, last, _, err := l.wal.ReadTail(cursor, 0)
		h.check(err)
		if last >= cursor && (len(recs) == 0 || recs[0].LSN != cursor) {
			h.fatalf("lane %d: a follower at cursor %d meets a gap: the tail begins at %v, the log head is %d",
				i, cursor, recs[:min(1, len(recs))], last)
		}
		_, err = f.ApplyTail(l.wal.Epoch(), recs, nil)
		h.check(err)
		h.sameState(h.state(f), want, "lane %d's follower against its leader", i)
		if !reflect.DeepEqual(snapshotsOf(h.t, f), snapshotsOf(h.t, l.pool)) {
			h.fatalf("lane %d: the follower's snapshot differs from its leader's", i)
		}
	}
}

// snapshotsOf encodes every shard of p as a checkpoint does: equal bytes
// are equal states, tuple ids and tombstones included.
func snapshotsOf(t *testing.T, p *Pool) [][]byte {
	t.Helper()
	out := make([][]byte, len(p.shards))
	for i := range p.shards {
		var err error
		if out[i], err = p.shards[i].eng.appendSnapshot(nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
