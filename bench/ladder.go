package main

// The traced run. One round's input is replayed up a ladder of rungs, each
// a deeper slice of the stack called through its public functions:
//
//	core        core.Discoverer.Process per shard substream
//	prominence  + ContextCounter.Observe and prominence.Score
//	engine      situfact.Engine.Append
//	pool        situfact.Pool.Append, direct path, two driver goroutines
//	pipeline    + StartPipeline (shard writers, completion hops)
//	wal         + AttachWAL over a counting filesystem (group-commit fsync)
//	http        the daemon, over loopback, same two connections
//
// Every rung starts from empty state, replays the set-up rows untimed and
// then times each measured request, recording one span per request (id =
// the request's first row, parent = the rung above). A rung's per-row time
// is Σ request durations / Σ rows; its SELF time is that minus the rung
// below — so the table reads "HTTP+JSON costs X µs/row, journaling Y,
// hand-off Z, materialisation W, discovery V". Counts are read at the same
// boundaries. Spans stay in memory until the run ends.
//
// The rungs run one after another, so a change in the machine's speed
// between two of them would show as a self time that is not there. The
// ladder is therefore climbed ladderPasses times, bottom to top each time,
// and a rung's time is that of its fastest pass; the spans of every pass
// are kept, numbered by pass.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	situfact "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/middleware"
	"repro/internal/prominence"
	"repro/internal/relation"
)

// Rung indices, bottom to top, and their names.
const (
	rungCore = iota
	rungProminence
	rungEngine
	rungPool
	rungPipeline
	rungWAL
	rungHTTP
)

var rungs = []string{"core", "prominence", "engine", "pool", "pipeline", "wal", "http"}

// span is one timed call into a rung for one request.
type span struct {
	ID     int    `json:"id"`   // stream index of the request's first row; -1 for a delete
	Name   string `json:"name"` // the rung
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"` // the rung above
	Rows   int    `json:"rows"`
	Pass   int    `json:"pass"`
}

// ladderPasses is how often each rung is climbed.
const ladderPasses = 3

type tracer struct {
	t0    time.Time
	pass  int // stamped on every span; set between passes, never during one
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(rung int, rows []int, start, end time.Time) {
	s := span{ID: -1, Name: rungs[rung], Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Rows: len(rows), Pass: t.pass}
	if len(rows) > 0 {
		s.ID = rows[0]
	}
	if rung+1 < len(rungs) {
		s.Parent = rungs[rung+1]
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// rungStat is what one rung's measured phase cost.
type rungStat struct {
	ns      float64   // Σ durations of append requests
	rows    int       // Σ rows of append requests
	deletes []float64 // µs per delete request
}

func (s rungStat) usPerRow() float64 { return s.ns / 1e3 / float64(s.rows) }

// replay runs each connection's requests through do, in order: with one
// driver the connections run one after the other, with two side by side
// like the real load. With a rung index the requests are timed and traced.
func (t *tracer) replay(rung int, lists [][]op, drivers int, do func(o op) error) (rungStat, error) {
	parts := make([]rungStat, len(lists))
	errs := make([]error, len(lists))
	run := func(c int) {
		for _, o := range lists[c] {
			start := time.Now()
			if errs[c] = do(o); errs[c] != nil {
				return
			}
			if rung < 0 {
				continue
			}
			end := time.Now()
			t.add(rung, o.rows, start, end)
			if o.method == "DELETE" {
				parts[c].deletes = append(parts[c].deletes, float64(end.Sub(start))/1e3)
			} else {
				parts[c].ns += float64(end.Sub(start))
				parts[c].rows += len(o.rows)
			}
		}
	}
	if drivers == 1 {
		for c := range lists {
			run(c)
		}
	} else {
		var wg sync.WaitGroup
		for c := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(c)
			}()
		}
		wg.Wait()
	}
	var total rungStat
	for c, p := range parts {
		if errs[c] != nil {
			return total, fmt.Errorf("rung %s: %w", rungName(rung), errs[c])
		}
		total.ns += p.ns
		total.rows += p.rows
		total.deletes = append(total.deletes, p.deletes...)
	}
	return total, nil
}

func rungName(rung int) string {
	if rung < 0 {
		return "set-up"
	}
	return rungs[rung]
}

// coreShard is one shard's discovery state below the engine: what
// situfact.Engine assembles, taken apart so each piece can be timed.
type coreShard struct {
	tb      *relation.Table
	disc    core.Discoverer
	counter *core.ContextCounter // nil on the core rung
	sizer   core.SkylineSizer
	deleted map[int64]bool
}

func newCoreShards(w workload, score bool) ([]*coreShard, error) {
	rs, err := gen.NBASchema(w.D, w.M)
	if err != nil {
		return nil, err
	}
	out := make([]*coreShard, shards)
	for i := range out {
		disc, err := core.NewDiscoverer(string(situfact.AlgoSBottomUp), core.Config{Schema: rs, MaxBound: w.Dhat, MaxMeasure: -1})
		if err != nil {
			return nil, err
		}
		s := &coreShard{tb: relation.NewTable(rs), disc: disc, deleted: map[int64]bool{}}
		if score {
			s.counter = core.NewContextCounter(rs.NumDims(), w.Dhat)
			s.sizer = disc.(core.SkylineSizer)
		}
		out[i] = s
	}
	return out, nil
}

func (s *coreShard) append(r situfact.Row) error {
	tu, err := s.tb.Append(r.Dims, r.Measures)
	if err != nil {
		return err
	}
	raw := s.disc.Process(tu)
	if s.counter != nil {
		s.counter.Observe(tu)
		sink = prominence.Score(raw, s.counter, s.sizer)
	}
	return nil
}

// sink keeps scored facts reachable so the compiler cannot drop the call.
var sink []prominence.ScoredFact

// delete mirrors situfact.Engine.Delete.
func (s *coreShard) delete(id int64) error {
	d, ok := s.disc.(interface {
		Delete(u *relation.Tuple, alive []*relation.Tuple)
	})
	if !ok {
		return fmt.Errorf("%s cannot delete", s.disc.Name())
	}
	alive := make([]*relation.Tuple, 0, s.tb.Len())
	for _, tu := range s.tb.Tuples() {
		if !s.deleted[tu.ID] {
			alive = append(alive, tu)
		}
	}
	tu := s.tb.At(int(id))
	d.Delete(tu, alive)
	if s.counter != nil {
		s.counter.Unobserve(tu)
	}
	s.deleted[id] = true
	return nil
}

func coreDo(st *stream, ss []*coreShard) func(op) error {
	return func(o op) error {
		if o.method == "DELETE" {
			return ss[o.shard].delete(o.tuple)
		}
		for _, ri := range o.rows {
			if err := ss[st.shardOf[ri]].append(st.rows[ri]); err != nil {
				return err
			}
		}
		return nil
	}
}

func poolDo(st *stream, pool *situfact.Pool) func(op) error {
	return func(o op) error {
		switch {
		case o.method == "DELETE":
			return pool.Delete(o.shard, o.tuple)
		case len(o.rows) == 1:
			_, err := pool.Append(st.rows[o.rows[0]].Dims, st.rows[o.rows[0]].Measures)
			return err
		default:
			rows := make([]situfact.Row, len(o.rows))
			for i, ri := range o.rows {
				rows[i] = st.rows[ri]
			}
			_, err := pool.AppendBatch(rows)
			return err
		}
	}
}

// runTraced is -trace 1: the ladder, the probes of the layers beside it,
// and the spans written to bench/out/trace-<workload>.json.
func runTraced(e *env, w workload, seed int64, logf func(string, ...any)) (result, string, error) {
	r, err := newRunner(e, w, seed, logf)
	if err != nil {
		return result{}, "", err
	}
	sha := r.plan.sha256
	tr := &tracer{t0: time.Now()}
	res := result{Correct: true, Metrics: map[string]value{}}
	stats, err := tr.inProcess(r, filepath.Join(e.workDir, "run"), &res)
	if err != nil {
		return res, sha, err
	}
	if err := tr.overHTTP(r, stats, &res); err != nil {
		return res, sha, err
	}
	m := res.set

	// The ladder: per-row time of each rung and what each adds to the one
	// below.
	m("core.process_us_per_row", stats["core"].usPerRow())
	m("prominence.score_us_per_row", stats["prominence"].usPerRow()-stats["core"].usPerRow())
	m("engine.materialize_us_per_row", stats["engine"].usPerRow()-stats["prominence"].usPerRow())
	m("pool.direct_us_per_row", stats["pool"].usPerRow()-stats["engine"].usPerRow())
	m("pipeline.handoff_us_per_row", stats["pipeline"].usPerRow()-stats["pool"].usPerRow())
	m("persist.journal_us_per_row", stats["wal"].usPerRow()-stats["pipeline"].usPerRow())
	m("situfactd.edge_us_per_row", stats["http"].usPerRow()-stats["wal"].usPerRow())
	m("ladder.http_us_per_row", stats["http"].usPerRow())
	logf("bench: %s ladder, µs per row (self = minus the rung below):", w.Name)
	below := 0.0
	for _, name := range rungs {
		us := stats[name].usPerRow()
		logf("bench:   %-11s %10.1f   self %10.1f  (%5.1f%% of http)", name, us, us-below, 100*(us-below)/stats["http"].usPerRow())
		below = us
	}

	path := filepath.Join(e.outDir, "trace-"+w.Name+".json")
	f, err := os.Create(path)
	if err != nil {
		return res, sha, err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.Name, seed, tr.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, sha, fmt.Errorf("write %s: %w", path, err)
	}
	logf("bench: %d spans written to %s", len(tr.spans), path)
	return res, sha, nil
}

// runInProcess runs only the rungs and probes that need no daemon.
func runInProcess(w workload, seed int64, scratch string, logf func(string, ...any)) (result, error) {
	r, err := newRunner(nil, w, seed, logf)
	if err != nil {
		return result{}, err
	}
	tr := &tracer{t0: time.Now()}
	res := result{Correct: true, Metrics: map[string]value{}}
	_, err = tr.inProcess(r, scratch, &res)
	return res, err
}

// inProcess climbs the rungs below the daemon and probes the layers beside
// them, all through public functions, keeping state files under scratch.
func (tr *tracer) inProcess(r *runner, scratch string, res *result) (map[string]rungStat, error) {
	w, p, seed := r.w, r.plan, r.seed
	m := res.set
	requests := 0
	for c := range p.ops {
		requests += len(p.preload[c]) + len(p.ops[c])
	}
	encStart := time.Now()
	if _, err := makePlan(w, seed); err != nil {
		return nil, err
	}
	m("loadgen.encode_us_per_req", float64(time.Since(encStart))/1e3/float64(requests))
	stats := map[string]rungStat{}
	for tr.pass = 0; tr.pass < ladderPasses; tr.pass++ {
		pass, err := tr.climb(r, scratch, res, tr.pass == ladderPasses-1)
		if err != nil {
			return nil, err
		}
		for name, st := range pass {
			if best, ok := stats[name]; !ok || st.usPerRow() < best.usPerRow() {
				stats[name] = st
			}
		}
	}
	return stats, nil
}

// climb is one pass up the in-process rungs, each from empty state. Counts
// are reported from every pass — they repeat exactly, being functions of
// the input — and the last pass also probes the layers beside the ladder on
// the state its wal rung built.
func (tr *tracer) climb(r *runner, scratch string, res *result, probe bool) (map[string]rungStat, error) {
	w, p, logf := r.w, r.plan, r.logf
	m := res.set
	stats := map[string]rungStat{}
	var err error

	// core and prominence: one goroutine, shard substreams in plan order.
	for _, rung := range []int{rungCore, rungProminence} {
		score := rung == rungProminence
		runtime.GC() // every rung starts from a collected heap
		ss, err := newCoreShards(w, score)
		if err != nil {
			return nil, err
		}
		do := coreDo(p.st, ss)
		if _, err := tr.replay(-1, p.preload, 1, do); err != nil {
			return nil, err
		}
		var before core.Metrics
		for _, s := range ss {
			before = addCore(before, s.disc.Metrics())
		}
		st, err := tr.replay(rung, p.ops, 1, do)
		if err != nil {
			return nil, err
		}
		stats[rungs[rung]] = st
		if !score {
			var after core.Metrics
			var stored, cells int64
			for _, s := range ss {
				after = addCore(after, s.disc.Metrics())
				stored += s.disc.StoreStats().StoredTuples
				cells += s.disc.StoreStats().Cells
			}
			rows := float64(st.rows)
			m("core.cmp_per_row", float64(after.Comparisons-before.Comparisons)/rows)
			m("core.cells_visited_per_row", float64(after.Traversed-before.Traversed)/rows)
			m("core.facts_per_row", float64(after.Facts-before.Facts)/rows)
			m("store.stored_tuples", float64(stored))
			m("store.cells", float64(cells))
		}
		for _, s := range ss {
			s.disc.Close()
		}
	}

	// engine: situfact.Engine per shard, one goroutine.
	runtime.GC()
	engines := make([]*situfact.Engine, shards)
	for i := range engines {
		if engines[i], err = situfact.New(r.ref.schema, situfact.Options{MaxBoundDims: w.Dhat}); err != nil {
			return nil, err
		}
	}
	engineDo := func(o op) error {
		if o.method == "DELETE" {
			return engines[o.shard].Delete(o.tuple)
		}
		for _, ri := range o.rows {
			if _, err := engines[p.st.shardOf[ri]].Append(p.st.rows[ri].Dims, p.st.rows[ri].Measures); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := tr.replay(-1, p.preload, 1, engineDo); err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	est, err := tr.replay(rungEngine, p.ops, 1, engineDo)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	stats["engine"] = est
	m("engine.allocs_per_row", float64(ms1.Mallocs-ms0.Mallocs)/float64(est.rows))
	m("engine.alloc_bytes_per_row", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(est.rows))
	// Deletes: the plan's own where it has them, else a fixed sample of
	// measured rows retracted from the finished engines.
	deletes := est.deletes
	if len(deletes) == 0 {
		first := w.Preload
		for i := 0; i < 32 && i < w.Rows; i++ {
			ri := first + i*max(1, w.Rows/32)
			if ri >= len(p.st.rows) {
				break
			}
			start := time.Now()
			if err := engines[p.st.shardOf[ri]].Delete(p.st.tupleID[ri]); err != nil {
				return nil, err
			}
			deletes = append(deletes, float64(time.Since(start))/1e3)
		}
	}
	m("engine.delete_us_per_op", median(deletes))
	for i := range engines {
		engines[i].Close()
	}
	engines = nil // engineDo still holds the slice; the pool rungs should not share the heap with it

	// pool, pipeline, wal: situfact.Pool under the two driver goroutines.
	walDir, err := os.MkdirTemp(scratch, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	cfs := newCountFS()
	var walPool *situfact.Pool
	var wal *situfact.WAL
	poolRung := func(rung int) error {
		runtime.GC()
		pool, err := newPool(r.ref.schema, w)
		if err != nil {
			return err
		}
		if rung < rungWAL {
			defer pool.Close() // the wal rung's pool lives on for the probes
		}
		if rung == rungWAL {
			if wal, err = situfact.OpenWAL(pool, filepath.Join(walDir, "wal"), situfact.WALOptions{FS: cfs}); err != nil {
				return err
			}
			if err := pool.AttachWAL(wal); err != nil {
				return err
			}
			walPool = pool
		}
		if rung >= rungPipeline {
			// The daemon's defaults: -pipeline, -pipeline-adaptive.
			if err := pool.StartPipeline(situfact.PipelineOptions{AdaptiveQueue: true}); err != nil {
				return err
			}
		}
		do := poolDo(p.st, pool)
		if _, err := tr.replay(-1, p.preload, conns, do); err != nil {
			return err
		}
		idx0, fs0 := pool.IndexStats(), cfs.snapshot()
		st, err := tr.replay(rung, p.ops, conns, do)
		if err != nil {
			return err
		}
		stats[rungs[rung]] = st
		rows := float64(st.rows)
		switch rung {
		case rungPool:
			m("factindex.inserts_per_row", float64(pool.IndexStats().Inserts-idx0.Inserts)/rows)
			if got := pool.Metrics(); got != r.ref.metrics {
				res.Correct = false
				logf("bench: %s: WRONG: pool rung counters %+v, reference %+v", w.Name, got, r.ref.metrics)
			}
		case rungWAL:
			fs := cfs.snapshot().since(fs0)
			m("persist.fsyncs_per_row", float64(fs.syncs)/rows)
			m("persist.fsync_p50_us", percentile(fs.syncNs, 0.50)/1e3)
			m("persist.fsync_p99_us", percentile(fs.syncNs, 0.99)/1e3)
			m("persist.writes_per_row", float64(fs.writes)/rows)
			m("persist.bytes_per_row", float64(fs.bytes)/rows)
			m("persist.segments", float64(wal.Stats().Segments))
		}
		return nil
	}
	for rung := rungPool; rung <= rungWAL; rung++ {
		if err := poolRung(rung); err != nil {
			return nil, err
		}
	}
	defer walPool.Close()
	if probe {
		if err := probeSnapshot(scratch, r, walPool, m); err != nil {
			return nil, err
		}
		if err := probeQueries(r, walPool, m); err != nil {
			return nil, err
		}
	}
	walPool.StopPipeline()
	if err := wal.Close(); err != nil {
		return nil, err
	}
	if probe {
		if err := probeReplay(r, filepath.Join(walDir, "wal"), m); err != nil {
			return nil, err
		}
		m("middleware.chain_ns_per_req", probeMiddleware())
	}
	return stats, nil
}

// overHTTP is the top rung: the daemon, traced and untraced in turn on the
// same input, ladderPasses times each. Of either kind the round with the
// lowest median request time is kept: the traced one is the rung and the
// source of the counts, and what separates the two is what recording spans
// costs.
func (tr *tracer) overHTTP(r *runner, stats map[string]rungStat, res *result) error {
	w, logf := r.w, r.logf
	m := res.set
	r.lifecycle = false
	var traced, plain *round
	for tr.pass = 0; tr.pass < ladderPasses; tr.pass++ {
		for _, spans := range []bool{true, false} {
			kept := &plain
			r.spans = nil
			if spans {
				kept = &traced
				r.spans = func(rows []int, start, end time.Time) { tr.add(rungHTTP, rows, start, end) }
			}
			rd, err := r.run()
			if err != nil {
				return err
			}
			res.Attempted += rd.ops.attempted
			res.Failed += rd.ops.failed
			if rd.ops.wrong != nil {
				res.Correct = false
				logf("bench: %s: WRONG: %v", w.Name, rd.ops.wrong)
			}
			if *kept == nil || rd.e2e["ingest_p50_ms"] < (*kept).e2e["ingest_p50_ms"] {
				*kept = rd
				if spans {
					stats["http"] = tr.httpStat(tr.pass)
				}
			}
		}
	}
	m("trace.overhead_share", traced.e2e["ingest_p50_ms"]/plain.e2e["ingest_p50_ms"]-1)
	rows := float64(traced.writes.rows)
	m("situfactd.req_bytes_per_row", float64(traced.writes.reqBytes)/rows)
	m("situfactd.resp_bytes_per_row", float64(traced.writes.respBytes)/rows)
	m("situfactd.shed", float64(traced.after.Overload.Shed))
	m("situfactd.limited", float64(traced.after.Overload.Limited))
	m("situfactd.panics", float64(traced.after.Overload.Panics))
	m("ingest.mean_batch", meanBatch(traced.before, traced.after))
	m("ingest.max_batch", float64(traced.after.Ingest.MaxBatch))
	m("ingest.full_waits", float64(traced.after.Ingest.FullWaits-traced.before.Ingest.FullWaits))
	m("ingest.resizes", float64(traced.after.Ingest.Resizes-traced.before.Ingest.Resizes))
	m("ingest.canceled", float64(traced.after.Ingest.Canceled-traced.before.Ingest.Canceled))
	m("snapshot.generations", float64(traced.after.Snapshot.Generation))
	hits := float64(traced.last.ReadCache.Hits - traced.before.ReadCache.Hits)
	misses := float64(traced.last.ReadCache.Misses - traced.before.ReadCache.Misses)
	m("readcache.hit_share", 0)
	if hits+misses > 0 {
		m("readcache.hit_share", hits/(hits+misses))
	}
	m("ingest_p99_ms", percentile(traced.writes.latMs, 0.99))
	m("read_p50_ms", percentile(traced.reads.latMs, 0.50))
	m("read_p99_ms", percentile(traced.reads.latMs, 0.99))
	m("loadgen.read_lateness_p99_ms", 0)
	if len(traced.reads.lateMs) > 0 {
		m("loadgen.read_lateness_p99_ms", percentile(traced.reads.lateMs, 0.99))
	}

	return nil
}

// httpStat sums one pass's http spans; like the rungs below, a rung's time
// is its appends', deletes apart.
func (t *tracer) httpStat(pass int) rungStat {
	var st rungStat
	for _, s := range t.spans {
		if s.Name == "http" && s.Pass == pass && s.ID >= 0 {
			st.ns += float64(s.End - s.Start)
			st.rows += s.Rows
		}
	}
	return st
}

func addCore(a, b core.Metrics) core.Metrics {
	a.Tuples += b.Tuples
	a.Comparisons += b.Comparisons
	a.Traversed += b.Traversed
	a.Facts += b.Facts
	return a
}

// probeSnapshot times Pool.Checkpoint and RestorePool on the finished wal
// rung's pool, and how much a checkpoint stalls an append running beside
// it: the worst append overlapping a checkpoint minus the median append.
func probeSnapshot(scratch string, r *runner, pool *situfact.Pool, m func(string, float64)) error {
	dir, err := os.MkdirTemp(scratch, "snapshot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	if _, err := pool.Checkpoint(dir, nil); err != nil {
		return err
	}
	m("snapshot.checkpoint_ms", float64(time.Since(start))/1e6)
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m("snapshot.bytes_per_row", float64(size)/float64(pool.Len()))
	start = time.Now()
	restored, _, err := situfact.RestorePool(r.ref.schema, dir)
	if err != nil {
		return err
	}
	m("snapshot.restore_ms", float64(time.Since(start))/1e6)
	restored.Close()

	// Re-send the plan's last rows (legal duplicates) in a closed loop
	// while a second checkpoint runs.
	st := r.plan.st
	var inCheckpoint atomic.Bool
	var stop atomic.Bool
	var quiet, during []float64
	var appendErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			row := st.rows[len(st.rows)-1-i%min(256, len(st.rows))]
			overlapped := inCheckpoint.Load()
			start := time.Now()
			if _, err := pool.Append(row.Dims, row.Measures); err != nil {
				appendErr = err
				return
			}
			us := float64(time.Since(start)) / 1e3
			if overlapped || inCheckpoint.Load() {
				during = append(during, us)
			} else {
				quiet = append(quiet, us)
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	inCheckpoint.Store(true)
	_, err = pool.Checkpoint(dir, nil)
	inCheckpoint.Store(false)
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	<-done
	if err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	stall := 0.0
	if len(during) > 0 && len(quiet) > 0 {
		stall = (percentile(during, 1) - median(quiet)) / 1e3
	}
	m("snapshot.stall_ms", stall)
	return nil
}

// probeQueries times the read paths of the finished pool in-process.
func probeQueries(r *runner, pool *situfact.Pool, m func(string, float64)) error {
	st := r.plan.st
	timeIt := func(n int, f func(i int) error) (float64, error) {
		var us []float64
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := f(i); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(start))/1e3)
		}
		return median(us), nil
	}
	teams := newReader("", st, len(st.rows)).teams
	first, err := timeIt(len(teams), func(i int) error {
		_, err := pool.QueryFacts(situfact.FactFilter{Shard: situfact.AllShards,
			Conditions: []situfact.Condition{{Attr: shardDim, Value: teams[i]}}}, "", 50)
		return err
	})
	if err != nil {
		return err
	}
	m("query.page_first_us", first)
	// Walk 200 pages deep, then time the next 20.
	idx0 := pool.IndexStats()
	cursor, pages := "", 0
	all := situfact.FactFilter{Shard: situfact.AllShards}
	for ; pages < 200; pages++ {
		page, err := pool.QueryFacts(all, cursor, 50)
		if err != nil {
			return err
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	deep, err := timeIt(20, func(int) error {
		page, err := pool.QueryFacts(all, cursor, 50)
		if err == nil && page.NextCursor != "" {
			cursor = page.NextCursor
		}
		pages++
		return err
	})
	if err != nil {
		return err
	}
	m("query.page_deep_us", deep)
	idx1 := pool.IndexStats()
	m("factindex.seeks_per_page", float64(idx1.Seeks-idx0.Seeks)/float64(pages))
	m("factindex.entries", float64(idx1.Entries))
	top, err := timeIt(3, func(int) error {
		_, err := pool.TopFacts(10)
		return err
	})
	if err != nil {
		return err
	}
	m("query.top_us", top)
	tuple, err := timeIt(64, func(i int) error {
		ri := i * len(st.rows) / 64
		_, err := pool.Tuple(st.shardOf[ri], st.tupleID[ri])
		return err
	})
	if err != nil {
		return err
	}
	m("query.tuple_us", tuple)
	return nil
}

// probeReplay times the journal's read side over the wal rung's log: crash
// recovery (ReplayWAL), the leader's tail read and a follower's apply.
func probeReplay(r *runner, dir string, m func(string, float64)) error {
	pool, err := newPool(r.ref.schema, r.w)
	if err != nil {
		return err
	}
	defer pool.Close()
	wal, err := situfact.OpenWAL(pool, dir, situfact.WALOptions{})
	if err != nil {
		return err
	}
	defer wal.Close()
	start := time.Now()
	rs, err := pool.ReplayWAL(wal, nil)
	if err != nil {
		return err
	}
	m("persist.replay_rows_per_s", float64(rs.Applied)/time.Since(start).Seconds())

	var recs []situfact.TailRecord
	start = time.Now()
	for from := uint64(1); ; {
		batch, _, more, err := wal.ReadTail(from, 4096)
		if err != nil {
			return err
		}
		recs = append(recs, batch...)
		if !more || len(batch) == 0 {
			break
		}
		from = batch[len(batch)-1].LSN + 1
	}
	m("replicate.readtail_rows_per_s", float64(len(recs))/time.Since(start).Seconds())
	follower, err := newPool(r.ref.schema, r.w)
	if err != nil {
		return err
	}
	defer follower.Close()
	start = time.Now()
	as, err := follower.ApplyTail(wal.Epoch(), recs, nil)
	if err != nil {
		return err
	}
	m("replicate.apply_rows_per_s", float64(as.Applied)/time.Since(start).Seconds())
	return nil
}

// probeMiddleware times the daemon's admission chain, every layer
// unconfigured as in the benchmark's daemons, around a handler that does
// nothing.
func probeMiddleware() float64 {
	var panics atomic.Uint64
	h := middleware.Chain(
		middleware.Recover(func(string, ...any) {}, &panics),
		middleware.Limit(nil),
		middleware.InflightLimit(nil),
		middleware.ShedWrites(nil),
		middleware.Deadline(0),
	)(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req, _ := http.NewRequestWithContext(context.Background(), "POST", "/v1/tuples", nil)
	var w nopWriter
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		h.ServeHTTP(&w, req)
	}
	return float64(time.Since(start)) / n
}

type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}
