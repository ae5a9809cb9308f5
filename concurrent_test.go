package situfact

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentHistory is the history checker's concurrent tier. Six writers
// draw appends, batches of 2–8 rows, deletes (of their own acked rows, a
// tombstoned or a never-assigned handle), rows of the wrong arity or past the
// WAL's record cap, and writes under a context that ended before the call or
// ends during it, perhaps while the op is parked on a full queue, against a
// journaled pool at queue depth 4. Beside them a reader takes a shard's first
// page of facts or TopFacts, a checkpointer checkpoints without truncating,
// and a resizer sets the queues to 1, 3 and 8 ops (and calls the no-op
// StopPipeline) until it has shrunk a queue below the ops it holds. Then comes
// a calm stretch: no resize and no context ends, so only a drain wakes a
// producer parked on a full queue. Each op stamps its invocation and response
// on one logical clock (a failure's "step") and reads the synced LSN at its
// response.
// The journal is the linearization: an append's tuple id is its rank among its
// shard's appends, which links each ack to its record. After quiescence:
//
//	(a) an op a queue accepted has exactly one record and its replay's
//	    outcome; a refused op (ended context, bad row, closed pool) has none,
//	    and an oversized row is ErrRowTooLarge, not a journal failure;
//	(b) an op acked before another was invoked has the lower LSN;
//	(c) an arrival carries the oracle's facts over its shard's journal up to
//	    its record;
//	(d) the synced LSN read at a response covers the op's records;
//	(e) a read equals the oracle at a prefix of its shard's journal holding
//	    every op acked before the read and none invoked after it;
//	(f) a restore of a mid-run checkpoint plus ReplayWAL, and a follower of it
//	    running ApplyTail, replay the acks in journal order, one observer call
//	    at a time, to the live pool's snapshot bytes;
//	(g) Len, Metrics and the ingest counters account for every record, and
//	    Close leaves none unsynced.
//
// The writers draw until a batch of more than one op was drained, a producer
// parked, a context ended mid-call refused an op and, in the calm stretch,
// a producer parked again, so the run cannot pass by running sequentially.
// An op unanswered after opDeadline fails the run, naming every such op.
func TestConcurrentHistory(t *testing.T) {
	for seed, setup := range histSetups[:3] {
		if testing.Short() && seed > 0 {
			break
		}
		t.Run(fmt.Sprintf("seed=%d/%s", seed, setup.name), func(t *testing.T) {
			t.Parallel()
			runConcurrentHistory(t, int64(seed), setup)
		})
	}
}

// cop is one op of a concurrent history, a write or a read: what was asked,
// what came back, when, and the records the check links to it.
type cop struct {
	who, kind string // "writer 3's op 12"; append, batch, delete, page or top
	began     time.Time
	ctx       string // "", or "ended" before the call, "ending" during it, "bad row", "oversized row"
	rows      []Row
	top       int // an append's fact cap; TopFacts' k
	del       poolHandle
	arrs      []*Arrival
	err       error
	inv, resp int64    // the logical clock at invocation and response
	synced    uint64   // the log's SyncedLSN read at the response
	enqueued  []uint64 // per shard, the ops accepted once an "ending" context ended
	recs      []*jrec
	lo, hi    uint64 // the records' lowest and highest LSN
	shard     int    // a page's shard; -1 for TopFacts
	facts     []QueryFact
	whole     bool // the page or TopFacts holds every fact it asks for
}

// jrec is one journal record, placed in its shard's order.
type jrec struct {
	TailRecord       // an append's TupleID is its rank among its shard's appends
	rank       int   // among its shard's records
	err        error // a delete's outcome on replay
	op         *cop
	row        int
}

// opDeadline is how long a write may stay unanswered: far past any op's
// latency under -race, short of go test's timeout.
const opDeadline = 10 * time.Second

func runConcurrentHistory(t *testing.T, seed int64, setup histSetup) {
	const shards, writers, minOps, maxOps, minCalm, maxResizes, maxWindow = 4, 6, 40, 400, 10, 2000, 24
	h := &history{t: t, schema: queryTestSchema(t), setup: setup, shards: shards}
	p := h.newPool()
	defer p.Close()
	walDir, ckptDir := t.TempDir(), t.TempDir()
	w, err := OpenWAL(p, walDir, WALOptions{})
	h.check(err)
	defer w.Close()
	h.check(p.AttachWAL(w))
	h.check(p.StartPipeline(PipelineOptions{QueueDepth: 4}))

	var clock, completed, refused atomic.Int64
	var done, shrunk, calm atomic.Bool
	var calmFrom atomic.Uint64 // the full-queue waits when the calm stretch began
	pending := make([]atomic.Pointer[cop], writers)
	huge := strings.Repeat("x", 16<<20) // past the WAL's record cap
	stamp := func(o *cop, call func()) {
		o.inv = clock.Add(1)
		call()
		o.resp, o.synced = clock.Add(1), w.Stats().SyncedLSN
	}
	parks := func(on ...int) (n uint64) { // full-queue waits, on the given shards or all
		for _, st := range p.IngestSummary().PerShard {
			if len(on) == 0 || slices.Contains(on, st.Shard) {
				n += st.FullWaits
			}
		}
		return n
	}
	half := func() bool { return done.Load() || completed.Load() >= writers*minOps/2 }
	ops := make([][]*cop, writers+1) // each writer's, then the reader's
	var writing, beside sync.WaitGroup
	for wr := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			rng := rand.New(rand.NewSource(seed<<8 | int64(wr)))
			var live, dead []poolHandle
			calmOps := 0
			more := func() bool {
				return p.IngestSummary().MaxBatch < 2 || refused.Load() == 0 || !calm.Load() || calmOps < minCalm || parks() == calmFrom.Load()
			}
			for seq := 0; seq < minOps || seq < maxOps && more(); seq++ {
				o := &cop{who: fmt.Sprintf("writer %d's op %d", wr, seq), top: histTops[rng.Intn(len(histTops))]}
				switch k := rng.Intn(10); {
				case k < 5:
					o.kind, o.rows = "append", []Row{randomRow(rng)}
				case k < 7:
					o.kind, o.rows = "batch", make([]Row, 2+rng.Intn(7))
					for i := range o.rows {
						o.rows[i] = randomRow(rng)
					}
				default: // an own live or tombstoned handle, or one never assigned (shard 4 is out of range)
					o.kind, o.del = "delete", poolHandle{rng.Intn(shards + 1), 1<<40 | int64(wr)<<20 | int64(seq)}
					if mine := [][]poolHandle{live, live, dead, nil}[rng.Intn(4)]; len(mine) > 0 {
						o.del = mine[rng.Intn(len(mine))]
					}
				}
				ctx, cancel := context.WithCancel(context.Background())
				var back atomic.Bool
				ended := make(chan struct{})
				k := rng.Intn(10)
				if calm.Load() {
					if calmOps++; k < 3 { // no context ends in the calm stretch
						k = 9
					}
				}
				switch {
				case k == 0:
					o.ctx = "ended"
					cancel()
				case k < 3: // ends once a producer parks on the op's shards, most likely this one, or after a millisecond
					o.ctx = "ending"
					targets := []int{o.del.shard}
					if o.rows != nil { // a batch to one shard fills its queue
						targets = []int{p.ShardFor(o.rows[0].Dims[0])}
						for _, r := range o.rows {
							r.Dims[0] = o.rows[0].Dims[0]
						}
					}
					go func(before uint64) {
						for i := 0; i < 50 && parks(targets...) == before && !back.Load(); i++ {
							time.Sleep(20 * time.Microsecond)
						}
						cancel()
						for _, st := range p.IngestSummary().PerShard {
							o.enqueued = append(o.enqueued, st.Enqueued)
						}
						close(ended)
					}(parks(targets...))
				case k == 3 && o.kind != "delete":
					o.ctx = "bad row"
					switch rng.Intn(3) {
					case 0:
						o.rows[0].Dims = o.rows[0].Dims[:2]
					case 1:
						o.rows[0].Measures = o.rows[0].Measures[:2]
					default:
						o.ctx, o.rows[0].Dims[1] = "oversized row", huge
					}
				}
				o.began = time.Now()
				pending[wr].Store(o)
				stamp(o, func() {
					switch o.kind {
					case "delete":
						o.err = p.DeleteContext(ctx, o.del.shard, o.del.id)
					case "append":
						arr, err := p.AppendContext(ctx, o.rows[0].Dims, o.rows[0].Measures, o.top)
						o.arrs, o.err = []*Arrival{arr}, err
					default:
						o.arrs, o.err = p.AppendBatchContext(ctx, o.rows, o.top)
					}
				})
				pending[wr].Store(nil)
				if back.Store(true); o.ctx == "ending" {
					<-ended
					if errors.Is(o.err, context.Canceled) {
						refused.Add(1)
					}
				}
				cancel()
				for _, a := range o.arrs {
					if a != nil {
						live = append(live, poolHandle{a.Shard, a.TupleID})
					}
				}
				if o.kind == "delete" && o.err == nil {
					live, dead = slices.DeleteFunc(live, func(hd poolHandle) bool { return hd == o.del }), append(dead, o.del)
				}
				ops[wr] = append(ops[wr], o)
				completed.Add(1)
			}
		}()
	}
	beside.Add(3)
	go func() { // the reader
		defer beside.Done()
		rng := rand.New(rand.NewSource(^seed))
		for seq := 0; !done.Load(); seq++ {
			time.Sleep(300 * time.Microsecond)
			o := &cop{who: fmt.Sprintf("the reader's op %d", seq), kind: "top", top: []int{1, 7, 50}[rng.Intn(3)], shard: -1}
			if rng.Intn(3) == 0 {
				stamp(o, func() { o.facts, o.err = p.TopFacts(o.top) })
				o.whole = len(o.facts) < o.top
			} else {
				var pg FactPage
				o.kind, o.shard = "page", rng.Intn(shards)
				stamp(o, func() { pg, o.err = p.QueryFacts(FactFilter{Shard: o.shard}, "", []int{0, 20}[rng.Intn(2)]) })
				o.facts, o.whole = pg.Facts, pg.NextCursor == ""
			}
			ops[writers] = append(ops[writers], o)
		}
	}()
	// The checkpointer and the resizer stop once half the writers' least ops
	// are done, so the last checkpoint is mid-run.
	go func() {
		defer beside.Done()
		for n := 0; n == 0 || !half(); n++ {
			if _, err := p.Checkpoint(ckptDir, nil); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// The resizer runs until it has shrunk a queue below the ops it holds: a
	// queue that still holds more than its new capacity after the resize held
	// them when the capacity was set. Then the calm stretch begins.
	go func() { // StartPipeline never fails: it only sets the queues' capacity
		defer beside.Done()
		for i := 0; !done.Load() && (!half() || !shrunk.Load() && i < maxResizes); i++ {
			time.Sleep(500 * time.Microsecond)
			c := []int{1, 3, 8}[i%3]
			_ = p.StartPipeline(PipelineOptions{QueueDepth: c})
			p.StopPipeline()
			if slices.ContainsFunc(p.IngestSummary().PerShard, func(st IngestStats) bool { return st.Depth > c }) {
				shrunk.Store(true)
			}
		}
		_ = p.StartPipeline(PipelineOptions{QueueDepth: 4})
		calmFrom.Store(parks())
		calm.Store(true)
	}()
	quiet := make(chan struct{})
	go func() { writing.Wait(); close(quiet) }()
	for tick := time.NewTicker(50 * time.Millisecond); ; {
		select {
		case <-quiet:
			tick.Stop()
		case <-tick.C:
			var late []string
			for wr := range pending {
				if o := pending[wr].Load(); o != nil && time.Since(o.began) > opDeadline {
					late = append(late, fmt.Sprintf("%s (%s on shard %v)", o.who, o.kind, o.shards(p)))
				}
			}
			if len(late) > 0 {
				done.Store(true)
				beside.Wait()
				t.Fatalf("(a) unanswered after %v: %s", opDeadline, strings.Join(late, "; "))
			}
			continue
		}
		break
	}
	done.Store(true)
	if beside.Wait(); t.Failed() {
		return
	}
	h.op = "quiescence"
	sum := p.IngestSummary()
	if sum.MaxBatch < 2 || sum.FullWaits == 0 || !shrunk.Load() || sum.FullWaits == calmFrom.Load() {
		h.fatalf("the run showed no concurrency: max_batch %d, full_waits %d (%d in the calm stretch), a queue shrunk below its ops: %v",
			sum.MaxBatch, sum.FullWaits, sum.FullWaits-calmFrom.Load(), shrunk.Load())
	}

	// The journal, placed in each shard's order.
	tail, _, _, err := w.ReadTail(1, 0)
	h.check(err)
	var recs []*jrec
	byShard, appends := make([][]*jrec, shards), make([][]*jrec, shards)
	deletes := map[poolHandle][]*jrec{}
	state := func(s, k int) []map[int64]Row { // shard s after its first k records
		live := make([]map[int64]Row, shards)
		live[s] = map[int64]Row{}
		for _, j := range byShard[s][:k] {
			if j.Op == OpAppend {
				live[s][j.TupleID] = Row{j.Dims, j.Measures}
			} else {
				delete(live[s], j.TupleID)
			}
		}
		return live
	}
	for i, tr := range tail {
		s, hd := tr.Shard, poolHandle{tr.Shard, tr.TupleID}
		if tr.LSN != uint64(i+1) || s < 0 || s >= shards || tr.Op == OpNoop {
			h.fatalf("the journal's record %d is LSN %d, a %s on shard %d", i+1, tr.LSN, tr.Op, s)
		}
		j := &jrec{TailRecord: tr, rank: len(byShard[s])}
		if tr.Op == OpAppend {
			j.TupleID, appends[s] = int64(len(appends[s])), append(appends[s], j)
		} else {
			deletes[hd] = append(deletes[hd], j)
			if _, live := state(s, j.rank)[s][tr.TupleID]; !live {
				j.err = ErrNotFound
				if tr.TupleID >= 0 && tr.TupleID < int64(len(appends[s])) {
					j.err = ErrAlreadyDeleted
				}
			}
		}
		byShard[s], recs = append(byShard[s], j), append(recs, j)
	}
	name := func(o *cop) { h.step, h.op = int(o.inv), strings.TrimSuffix(o.who+": "+o.kind+", "+o.ctx, ", ") }

	// (a) Link each ack to its record: an append's by its tuple id, a delete's
	// as the next record of its handle (only its writer deletes a drawn handle,
	// one op after another).
	var writes []*cop
	var canceled uint64 // the ops refused as their context ended
	for _, o := range slices.Concat(ops[:writers]...) {
		name(o)
		if o.ctx == "ended" || o.ctx == "ending" { // a row without an arrival, or a delete, was refused
			canceled += uint64(len(o.arrs) - len(slices.DeleteFunc(slices.Clone(o.arrs), func(a *Arrival) bool { return a == nil })))
			if o.kind == "delete" && o.del.shard < shards && errors.Is(o.err, context.Canceled) {
				canceled++
			}
		}
		bad := strings.HasSuffix(o.ctx, " row")
		if bad && (o.err == nil || slices.ContainsFunc(o.arrs, func(a *Arrival) bool { return a != nil }) ||
			o.ctx == "oversized row" && (!errors.Is(o.err, ErrRowTooLarge) || errors.Is(o.err, ErrWALFailed))) {
			h.fatalf("(a) arrivals %v, error %v", o.arrs, o.err)
		}
		for i, a := range o.arrs {
			switch {
			case a == nil && o.err != nil && (bad || o.ctx != "" && errors.Is(o.err, context.Canceled)):
				continue
			case a == nil || o.ctx == "ended" || bad:
				h.fatalf("(a) row %d arrived as %v, and the op returned %v", i, a, o.err)
			case a.Shard < 0 || a.Shard >= shards || a.TupleID < 0 || a.TupleID >= int64(len(appends[a.Shard])) ||
				appends[a.Shard][a.TupleID].op != nil:
				h.fatalf("(a) arrival %d:%d has no record of its own", a.Shard, a.TupleID)
			}
			j := appends[a.Shard][a.TupleID]
			if !reflect.DeepEqual(Row{j.Dims, j.Measures}, o.rows[i]) {
				h.fatalf("(a) arrival %d:%d has another row's record, LSN %d", a.Shard, a.TupleID, j.LSN)
			}
			if k := slices.IndexFunc(o.recs, func(e *jrec) bool { return e.Shard == j.Shard && e.LSN > j.LSN }); k >= 0 {
				h.fatalf("(b) row %d has LSN %d, below its earlier row %d's %d on shard %d", i, j.LSN, o.recs[k].row, o.recs[k].LSN, j.Shard)
			}
			j.op, j.row, o.recs = o, i, append(o.recs, j)
		}
		if o.kind == "delete" && o.del.shard < shards && !errors.Is(o.err, context.Canceled) {
			q := deletes[o.del]
			if len(q) == 0 || o.ctx == "ended" {
				h.fatalf("(a) Delete(%d, %d) = %v has no record of its own", o.del.shard, o.del.id, o.err)
			}
			if !errors.Is(o.err, q[0].err) {
				h.fatalf("(a) Delete(%d, %d) = %v; its record at LSN %d replays to %v", o.del.shard, o.del.id, o.err, q[0].LSN, q[0].err)
			}
			q[0].op, deletes[o.del], o.recs = o, q[1:], append(o.recs, q[0])
		}
		for _, j := range o.recs {
			if o.enqueued != nil && j.rank >= int(o.enqueued[j.Shard]) {
				h.fatalf("(a) LSN %d, shard %d's op %d, was accepted after its context ended, when the shard had accepted %d",
					j.LSN, j.Shard, j.rank, o.enqueued[j.Shard])
			}
			o.lo, o.hi = min(cmp.Or(o.lo, j.LSN), j.LSN), max(o.hi, j.LSN)
		}
		if len(o.recs) > 0 {
			writes = append(writes, o)
		}
	}
	if k := slices.IndexFunc(recs, func(j *jrec) bool { return j.op == nil }); k >= 0 {
		h.fatalf("(a) LSN %d, a %s on shard %d, belongs to no accepted op", recs[k].LSN, recs[k].Op, recs[k].Shard)
	}

	// (b) Real time, and (d) acked ⇒ durable.
	byResp := slices.SortedFunc(slices.Values(writes), func(a, b *cop) int { return cmp.Compare(a.resp, b.resp) })
	var acked *cop // of the ops acked so far, the one with the highest LSN
	i := 0
	for _, o := range slices.SortedFunc(slices.Values(writes), func(a, b *cop) int { return cmp.Compare(a.inv, b.inv) }) {
		name(o)
		for ; i < len(byResp) && byResp[i].resp < o.inv; i++ {
			if acked == nil || byResp[i].hi > acked.hi {
				acked = byResp[i]
			}
		}
		if acked != nil && acked.hi >= o.lo {
			h.fatalf("(b) %s was acked before this op was invoked, yet its LSN %d is not below %d", acked.who, acked.hi, o.lo)
		}
		if o.synced < o.hi {
			h.fatalf("(d) acked with the log synced to LSN %d, below its own %d", o.synced, o.hi)
		}
	}

	// (c) Each arrival carries the oracle's facts up to its record.
	for _, j := range recs {
		if j.Op == OpAppend {
			name(j.op)
			h.checkArrival(state(j.Shard, j.rank+1), j.op.arrs[j.row], j.op.top)
		}
	}

	// (e) Each read equals the oracle at a prefix inside its window, tried
	// from the longest; a window past maxWindow records is not tried.
	oracles := map[[2]int]map[string]float64{} // factKey → prominence
	oracle := func(s, k int) map[string]float64 {
		if o, ok := oracles[[2]int{s, k}]; ok {
			return o
		}
		o := map[string]float64{}
		for _, qf := range oracleFacts(state(s, k), h.setup.dhat, h.setup.mhat, nil) {
			o[factKey(qf)] = qf.Prominence
		}
		oracles[[2]int{s, k}] = o
		return o
	}
	checked, wide := 0, 0
	for _, r := range ops[writers] {
		name(r)
		h.check(r.err)
		matches := func(s int, want map[string]float64) bool {
			got, lowest := map[string]bool{}, math.Inf(1)
			for _, qf := range r.facts {
				if _, ok := want[factKey(qf)]; qf.Shard == s && !ok {
					return false
				} else if qf.Shard == s {
					got[factKey(qf)], lowest = true, min(lowest, qf.Prominence)
				}
			}
			for key, prom := range want { // a shard's part of TopFacts is a prefix of its ranking
				if r.kind == "top" && prom > lowest && !got[key] {
					return false
				}
			}
			return !r.whole || len(got) == len(want)
		}
		for s := range shards {
			if r.shard >= 0 && r.shard != s {
				continue
			}
			lo, hi := 0, len(byShard[s])
			for _, o := range writes {
				for _, j := range o.recs {
					if j.Shard == s && o.resp < r.inv {
						lo = max(lo, j.rank+1)
					} else if j.Shard == s && o.inv > r.resp {
						hi = min(hi, j.rank)
					}
				}
			}
			if hi-lo > maxWindow {
				wide++
				continue
			}
			k := hi
			for k >= lo && !matches(s, oracle(s, k)) {
				k--
			}
			if k < lo {
				last := func(k int) uint64 { // the LSN a prefix of k records ends at
					if k == 0 {
						return 0
					}
					return byShard[s][k-1].LSN
				}
				h.fatalf("(e) shard %d's %d facts are the oracle's after none of its first %d to %d records (up to LSN %d to %d)",
					s, len(r.facts), lo, hi, last(lo), last(hi))
			}
			checked++
		}
	}

	// (g) The counters account for every record.
	h.step, h.op = 0, "quiescence"
	live, appended := 0, 0
	var enqueued uint64
	for s, st := range sum.PerShard {
		var batches uint64
		for _, c := range st.BatchHist {
			batches += c
		}
		if enqueued += st.Enqueued; batches != st.Batches {
			h.fatalf("(g) shard %d's batch histogram sums to %d of %d batches", s, batches, st.Batches)
		}
		live, appended = live+len(state(s, len(byShard[s]))[s]), appended+len(appends[s])
	}
	if sum.Canceled != canceled {
		h.fatalf("(g) the writers counted %d ops refused as their context ended; %d were", sum.Canceled, canceled)
	}
	if m := p.Metrics(); enqueued != uint64(len(recs)) || p.Len() != live || m.Tuples != int64(appended) || m.Facts == 0 || m.StoredTuples == 0 {
		h.fatalf("(g) %d ops enqueued, Len %d and Metrics %+v; the journal holds %d records, %d appends and %d live rows",
			enqueued, p.Len(), m, len(recs), appended, live)
	}
	// (f) A follower of the mid-run checkpoint, and a restore of it plus the
	// log, replay the acks in journal order to the live pool's bytes.
	want := snapshotsOf(t, p)
	replays := func(what string, replay func(q *Pool, on func(*Arrival)) (ReplayStats, error)) {
		h.op = what
		q, _, err := RestorePool(h.schema, ckptDir)
		h.check(err)
		defer q.Close()
		from := q.ShardLSNs() // the checkpoint's watermarks: the records past them replay
		seen, observed, bad := make([]int64, shards), make([]int, shards), []string(nil)
		var calls atomic.Int32
		var overlap atomic.Bool
		type replayed struct {
			st  ReplayStats
			err error
		}
		done := make(chan replayed, 1)
		go func() {
			st, err := replay(q, func(a *Arrival) {
				if calls.Add(1) != 1 {
					overlap.Store(true)
					calls.Add(-1)
					return // another call is running: leave seen and bad to it
				}
				defer calls.Add(-1)
				runtime.Gosched() // let another writer's call overlap, if it can
				if a.TupleID >= int64(len(appends[a.Shard])) {
					bad = append(bad, fmt.Sprintf("%d:%d, never journaled", a.Shard, a.TupleID))
				} else if j := appends[a.Shard][a.TupleID]; a.TupleID < seen[a.Shard] || !sameArrival(a, j.op.arrs[j.row]) {
					bad = append(bad, fmt.Sprintf("%d:%d at LSN %d", a.Shard, a.TupleID, j.LSN))
				}
				seen[a.Shard] = a.TupleID + 1
				observed[a.Shard]++
			})
			done <- replayed{st, err}
		}()
		var st ReplayStats
		select {
		case r := <-done:
			st, err = r.st, r.err
		case <-time.After(opDeadline):
			h.fatalf("(f) the replay has not returned in %v", opDeadline)
		}
		h.check(err)
		if overlap.Load() {
			h.fatalf("(f) two observer calls at once")
		}
		for s := range shards {
			if n := len(slices.DeleteFunc(slices.Clone(appends[s]), func(j *jrec) bool { return j.LSN <= from[s] })); observed[s] != n {
				h.fatalf("(f) shard %d: %d arrivals observed once the replay returned; %d appends follow the checkpoint's LSN %d", s, observed[s], n, from[s])
			}
		}
		if len(bad) > 0 || st.Applied == 0 {
			h.fatalf("(f) %d records applied; %d arrivals out of journal order or unlike their acks: %v", st.Applied, len(bad), bad[:min(len(bad), 4)])
		}
		if !reflect.DeepEqual(snapshotsOf(t, q), want) {
			h.fatalf("(f) the snapshot bytes differ from the live pool's")
		}
	}
	replays("a follower of the mid-run checkpoint", func(q *Pool, on func(*Arrival)) (ReplayStats, error) {
		tail, _, _, err := w.ReadTail(q.TailCursor(), 0)
		if err != nil {
			return ReplayStats{}, err
		}
		return q.ApplyTail(w.Epoch(), tail, on)
	})
	h.op = "close"
	h.check(p.Close())
	row := randomRow(rand.New(rand.NewSource(seed)))
	for _, write := range []func() error{
		func() error { _, err := p.Append(row.Dims, row.Measures); return err },
		func() error { _, err := p.AppendBatch([]Row{row, row}); return err },
		func() error { return p.Delete(0, 0) },
	} {
		answer := make(chan error, 1)
		go func() { answer <- write() }()
		select {
		case err := <-answer:
			if err == nil || !strings.Contains(err.Error(), "closed pool") {
				h.fatalf("(a) a write to the closed pool returned %v", err)
			}
		case <-time.After(opDeadline):
			h.fatalf("(a) a write to the closed pool is unanswered after %v", opDeadline)
		}
	}
	if p.Len() != live || p.IngestSummary().Canceled != canceled {
		h.fatalf("(g) writes to the closed pool moved Len from %d to %d, canceled from %d to %d", live, p.Len(), canceled, p.IngestSummary().Canceled)
	}
	h.check(p.Close())
	if st := w.Stats(); st.LastLSN != uint64(len(recs)) || st.SyncedLSN != st.LastLSN {
		h.fatalf("(g) after Close the log has synced %d of %d records; the journal read %d", st.SyncedLSN, st.LastLSN, len(recs))
	}
	h.check(w.Close())
	replays("a restore of the mid-run checkpoint", func(q *Pool, on func(*Arrival)) (ReplayStats, error) {
		rw, err := OpenWAL(q, walDir, WALOptions{})
		if err != nil {
			return ReplayStats{}, err
		}
		defer rw.Close()
		return q.ReplayWAL(rw, on)
	})
	t.Logf("%d records; max_batch %d, full_waits %d (%d in the calm stretch); %d writes refused as their context ended mid-call; %d reads checked, %d windows past %d records",
		len(recs), sum.MaxBatch, sum.FullWaits, sum.FullWaits-calmFrom.Load(), refused.Load(), checked, wide, maxWindow)
}

// shards names the shards a write goes to.
func (o *cop) shards(p *Pool) []int {
	if o.kind == "delete" {
		return []int{o.del.shard}
	}
	var out []int
	for _, r := range o.rows {
		if s := p.ShardFor(r.Dims[0]); !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}
