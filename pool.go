package situfact

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/ingest"
	"repro/internal/persist"
)

// Pool is a sharded front-end over N independent Engines, for workloads
// that are naturally partitioned by one dimension attribute — per-league
// game feeds, per-station weather streams, per-symbol tick streams. Every
// arriving row is routed to the shard owning its partition value (a hash
// of the ShardDim value), so all rows sharing that value meet the same
// engine in arrival order.
//
// Semantics guarantee: discovery never compares tuples with different
// values of a bound attribute, so as long as callers only interpret facts
// whose context binds the shard dimension (or treat each shard as its own
// relation), the facts a shard reports are EXACTLY those a standalone
// Engine reports over that shard's substream. The unit of truth is the
// substream, not the union: a fact with an unbound shard dimension speaks
// about the shard's relation, not the global one. The history checker
// (history_test.go) asserts the per-substream identity.
//
// Pool is safe for concurrent use: each shard applies its arrivals on its
// own writer goroutine, in the order they were queued, and different shards
// proceed in parallel (see pipeline.go). Close stops the writers; a write
// to a closed pool fails.
//
// With a WAL attached (AttachWAL), every mutation is journaled before it
// is applied — under the owning shard's lock, so each shard's journal
// order equals its apply order — and acknowledged only once the record is
// durable (see wal.go).
type Pool struct {
	schema   *Schema
	shardDim int
	shards   []poolShard
	wal      *WAL // nil = no journaling
	// walEpoch is the epoch of the log the shards' lastLSN watermarks
	// refer to — restored from the snapshot manifest, updated when a WAL
	// is replayed or attached. Watermarks are discarded against a log
	// with a different epoch (see Pool.adoptWAL in wal.go).
	walEpoch string
	// writers holds one batching writer per shard, the only goroutine that
	// applies the shard's ops; commits feeds the journaled batches to
	// commitLoop, which closes commitDone when it exits (see pipeline.go).
	writers    []*ingest.Writer[*ingestOp]
	commits    chan commitGroup
	commitDone chan struct{}
	stopOnce   sync.Once
}

type poolShard struct {
	// mu is a read/write lock: every mutation (ingest, delete, replay)
	// holds the write side, so read-only surfaces — monitoring and the
	// query API (query.go) — can share the read side and proceed against
	// each other without serialising.
	mu  sync.RWMutex
	eng *Engine
	// lastLSN is the WAL LSN of the last record successfully applied to
	// this shard (0 = none), maintained under mu. Snapshots record it so
	// recovery replays exactly the uncovered tail.
	lastLSN uint64
	// recs is applyShard's journal-batch scratch, used under mu.
	recs []persist.Record
}

// Row is one arrival for Pool.AppendBatch: dimension values and measure
// values in schema order.
type Row struct {
	Dims     []string  `json:"dims"`
	Measures []float64 `json:"measures"`
}

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Shards is the number of engines; ≤ 0 selects GOMAXPROCS.
	Shards int
	// ShardDim names the dimension attribute whose value routes a row to
	// its shard; empty selects the schema's first dimension.
	ShardDim string
	// Engine configures every shard's engine identically. It must select
	// bottomup or sbottomup over the in-memory store (no StoreDir): a pool
	// serves reads, deletes and checkpoints, and only those engines can.
	Engine Options
}

// NewPool creates a pool of engines over the schema. Every algorithm but
// bottomup and sbottomup, and any StoreDir, is refused before an engine is
// built (see checkPoolEngine).
func NewPool(schema *Schema, opt PoolOptions) (*Pool, error) {
	if schema == nil || schema.rs == nil {
		return nil, fmt.Errorf("situfact: nil schema")
	}
	if err := checkPoolEngine(opt.Engine); err != nil {
		return nil, err
	}
	n := opt.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	shardDim := 0
	if opt.ShardDim != "" {
		shardDim = schema.rs.DimIndex(opt.ShardDim)
		if shardDim < 0 {
			return nil, fmt.Errorf("situfact: pool shard dimension %q not in schema %s",
				opt.ShardDim, schema.rs)
		}
	}
	p := &Pool{schema: schema, shardDim: shardDim, shards: make([]poolShard, n)}
	for i := range p.shards {
		eng, err := New(schema, opt.Engine)
		if err != nil {
			p.Close()
			// New's errors are already "situfact: "-prefixed; strip it so
			// the pool wrap doesn't stutter.
			return nil, fmt.Errorf("situfact: pool shard %d: %s", i,
				strings.TrimPrefix(err.Error(), "situfact: "))
		}
		p.shards[i].eng = eng
	}
	p.startWriters()
	return p, nil
}

// checkPoolEngine refuses the engines a pool cannot run, for NewPool and
// for a snapshot restore, naming what was asked for. A read reports a
// stored cell µ(C,M) as the contextual skyline λ_M(σ_C(R)), and only
// BottomUp's Invariant 1 makes it one: TopDown's Invariant 2 keeps a tuple
// at its maximal skyline constraints only, the baselines keep no cells and
// the file store is not indexed. Only BottomUp can repair its store on
// delete (§VIII), too.
func checkPoolEngine(opt Options) error {
	runs := string(cmp.Or(opt.Algorithm, AlgoSBottomUp))
	switch {
	case opt.StoreDir != "":
		runs += " over a file store"
	case runs == string(AlgoBottomUp) || runs == string(AlgoSBottomUp):
		return nil
	}
	return fmt.Errorf("situfact: queries require bottomup or sbottomup over the in-memory store: "+
		"only BottomUp's Invariant 1 makes a stored cell the contextual skyline a read reports (engine runs %s)", runs)
}

// Shards returns the number of shards.
func (p *Pool) Shards() int { return len(p.shards) }

// ShardDim returns the name of the dimension attribute rows are routed by.
func (p *Pool) ShardDim() string { return p.schema.rs.Dim(p.shardDim).Name }

// ShardFor returns the shard index owning the given shard-dimension value.
// The mapping is a pure function of the value and the shard count (FNV-1a),
// so routing is deterministic across runs and processes.
func (p *Pool) ShardFor(value string) int {
	h := fnv.New32a()
	h.Write([]byte(value))
	return int(h.Sum32() % uint32(len(p.shards)))
}

// Append routes one arriving row to the shard owning its partition value
// and processes it there. It may be called from any number of goroutines;
// arrivals racing for one shard are applied one after another, in the
// order its writer queued them.
func (p *Pool) Append(dims []string, measures []float64) (*Arrival, error) {
	return p.AppendContext(context.Background(), dims, measures, math.MaxInt)
}

// AppendContext is Append whose arrival carries only the top best facts
// (none for top ≤ 0; the pool's state and Metrics do not depend on top),
// and whose row is refused if ctx has ended when its shard's queue would
// accept it, under backpressure too (see write). A refused row
// was never journaled, applied or acknowledged, and the call returns ctx's
// error; so a client that disconnected, or whose deadline passed under
// backpressure, holds no future. Once the row is accepted the cancellation
// point has passed and the call completes like Append.
func (p *Pool) AppendContext(ctx context.Context, dims []string, measures []float64, top int) (*Arrival, error) {
	// Validated before journaling (the engine would reject these too, but
	// a rejected row must not leave a permanent record in the WAL).
	if len(dims) != p.schema.rs.NumDims() {
		return nil, fmt.Errorf("situfact: pool: %d dimension values for %d attributes",
			len(dims), p.schema.rs.NumDims())
	}
	if len(measures) != p.schema.rs.NumMeasures() {
		return nil, fmt.Errorf("situfact: pool: %d measure values for %d attributes",
			len(measures), p.schema.rs.NumMeasures())
	}
	rec := persist.Record{Type: persist.RecAppend, Shard: p.ShardFor(dims[p.shardDim]),
		Dims: dims, Measures: measures}
	// Oversized rows are rejected before the queue or the journal sees
	// them: one defective row must fail alone, not poison a whole drained
	// batch (and must never leave a permanent record in the WAL).
	if p.wal != nil && rec.Oversized() {
		return nil, fmt.Errorf("situfact: pool: %w (the WAL caps one record at 16 MiB)", ErrRowTooLarge)
	}
	return p.writeOne(ctx, rec, top)
}

// AppendBatch routes a batch of rows across the shards and processes the
// shards concurrently. Within a shard, rows are processed in input order;
// the returned arrivals are in input order (arrival i belongs to row i).
//
// The batch is pre-validated: a malformed row fails the whole call before
// any row is processed. Past that, every row is journaled and attempted:
// failures are joined per row and returned alongside the arrivals that
// did commit, with only the failed rows' entries nil.
func (p *Pool) AppendBatch(rows []Row) ([]*Arrival, error) {
	return p.AppendBatchContext(context.Background(), rows, math.MaxInt)
}

// AppendBatchContext is AppendBatch with AppendContext's cap on every
// arrival's facts and its one cancellation point, row by row: rows
// accepted before ctx ends complete normally (they may be journaled), rows
// not yet accepted fail with ctx's error — never a half-acknowledged row.
func (p *Pool) AppendBatchContext(ctx context.Context, rows []Row, top int) ([]*Arrival, error) {
	d, m := p.schema.rs.NumDims(), p.schema.rs.NumMeasures()
	for i, r := range rows {
		if len(r.Dims) != d || len(r.Measures) != m {
			return nil, fmt.Errorf("situfact: pool: row %d has %d/%d values for a %d/%d schema",
				i, len(r.Dims), len(r.Measures), d, m)
		}
		// Checked with the batch's widest possible shard index: the shard
		// varint contributes to the encoded size, and no row that passes
		// here may fail the journal pass mid-batch.
		if p.wal != nil && (persist.Record{Type: persist.RecAppend, Shard: len(p.shards) - 1,
			Dims: r.Dims, Measures: r.Measures}).Oversized() {
			return nil, fmt.Errorf("situfact: pool: row %d: %w (the WAL caps one record at 16 MiB)",
				i, ErrRowTooLarge)
		}
	}
	ops := make([]*ingestOp, len(rows))
	for i, r := range rows {
		ops[i] = getOp()
		ops[i].rec = persist.Record{Type: persist.RecAppend, Shard: p.ShardFor(r.Dims[p.shardDim]),
			Dims: r.Dims, Measures: r.Measures}
		ops[i].top = top
	}
	p.write(ctx, ops)
	out := make([]*Arrival, len(rows))
	var errs []error
	for i, op := range ops {
		out[i] = op.arr
		if op.err != nil {
			errs = append(errs, fmt.Errorf("situfact: pool shard %d, row %d: %w", op.rec.Shard, i, op.err))
		}
		putOp(op)
	}
	return out, errors.Join(errs...)
}

// Delete retracts tuple tupleID of the given shard — TupleIDs are
// per-shard substream positions, so the pair (shard, tupleID) from an
// Arrival names a tuple uniquely. It travels the same queue as appends, so
// a shard's deletes order with its appends exactly as they were issued.
func (p *Pool) Delete(shard int, tupleID int64) error {
	return p.DeleteContext(context.Background(), shard, tupleID)
}

// DeleteContext is Delete with AppendContext's one cancellation point.
func (p *Pool) DeleteContext(ctx context.Context, shard int, tupleID int64) error {
	if shard < 0 || shard >= len(p.shards) {
		return fmt.Errorf("situfact: pool: shard %d of %d: %w", shard, len(p.shards), ErrNotFound)
	}
	// Journaled before tuple validity is known: a delete that fails at
	// apply (unknown or tombstoned tuple) re-fails identically at replay,
	// so the record is harmless.
	_, err := p.writeOne(ctx, persist.Record{Type: persist.RecDelete, Shard: shard, TupleID: tupleID}, 0)
	return err
}

// The write path. Every mutation of a shard — a live Append, AppendBatch
// or Delete, a record re-applied by ReplayWAL or ApplyTail — is an
// ingestOp on the shard's writer, which hands it to applyShard, the one
// function that journals and applies, in a batch with whatever else has
// queued (pipeline.go). A live op gets there through write, a replayed
// record through the replayer (wal.go). Either way the caller returns only
// after its op is applied and, with a WAL, durable.

// ingestOp is one mutation plus its outcome. applyShard fills arr/err (or
// skipped); settle completes it exactly once, ending its enqueuer's wait
// on wg or, for a replayed record, handing it to its replayer.
type ingestOp struct {
	// rec is the operation: Type + Shard, Dims/Measures (append) or
	// TupleID (delete). LSN is non-zero on entry only for a replayed
	// record; a live op receives its LSN from the journal pass.
	rec persist.Record
	// top caps the facts an append's arrival carries (0 = the count only,
	// as for a replayed append nobody observes).
	top int
	arr *Arrival // result of a successful append
	err error
	// skipped reports a replayed record at or below the shard's
	// watermark: already reflected in the restored state, not re-applied.
	skipped bool
	wg      *sync.WaitGroup // a live op's enqueuer waits here
	replay  *replayer       // the replay a re-applied record belongs to
}

// opPool recycles live ingestOps.
var opPool = sync.Pool{New: func() any { return new(ingestOp) }}

func getOp() *ingestOp { return opPool.Get().(*ingestOp) }

func putOp(op *ingestOp) {
	*op = ingestOp{}
	opPool.Put(op)
}

// applyShard runs ops, in order, against one shard under its write lock:
// one journal pass (a single WAL.AppendAll assigning the ops their LSNs;
// skipped when no WAL is attached, which a replay requires), then the
// apply loop, advancing the shard's watermark past every op that
// succeeded. Only the shard's writer calls it. The lock spans journal +
// apply, so the shard's journal order equals its apply order —
// Checkpoint's truncation cover relies on that atomicity. Outcomes land on the ops, unwrapped (callers add their
// own context); a failed journal pass fails every op with ErrWALFailed
// and applies none. It returns the highest LSN it journaled (0 = none)
// for the caller to make durable before acknowledging: the fsync wait
// happens outside the lock, so later ops for this shard journal
// meanwhile and share it. A journaled op that fails to apply (a delete
// of an unknown tuple, say) leaves a record replay re-fails identically.
func (p *Pool) applyShard(shard int, ops []*ingestOp) (journaled uint64) {
	sh := &p.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p.wal != nil {
		sh.recs = sh.recs[:0]
		for _, op := range ops {
			sh.recs = append(sh.recs, op.rec)
		}
		last, err := p.wal.w.AppendAll(sh.recs)
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrWALFailed, err)
			for _, op := range ops {
				op.err = err
			}
			return 0
		}
		journaled = last
		for i, op := range ops {
			op.rec.LSN = last - uint64(len(ops)-1-i)
		}
	}
	for _, op := range ops {
		if op.replay != nil && op.rec.LSN <= sh.lastLSN {
			op.skipped = true
			continue
		}
		switch op.rec.Type {
		case persist.RecAppend:
			if op.arr, op.err = sh.eng.append(op.rec.Dims, op.rec.Measures, op.top); op.err == nil {
				op.arr.Shard = shard
			}
		case persist.RecDelete:
			op.err = sh.eng.Delete(op.rec.TupleID)
		}
		if op.err == nil && op.rec.LSN > 0 {
			sh.lastLSN = op.rec.LSN
		}
	}
	return journaled
}

// commit waits until every record up to lsn (0 = nothing was journaled)
// is durable: a group-committed fsync wait.
func (p *Pool) commit(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	if err := p.wal.w.WaitSync(lsn); err != nil {
		return fmt.Errorf("%w: %w", ErrWALFailed, err)
	}
	return nil
}

// settle acknowledges applied ops, in order, once their durability wait
// has ended with commitErr. A failed wait reports ErrWALFailed even where
// the apply succeeded; an op that already failed keeps its own, more
// specific error. The enqueuer owns a live op again from the moment its
// wait ends; a replayed record goes back to its replayer.
func settle(ops []*ingestOp, commitErr error) {
	for _, op := range ops {
		if commitErr != nil && op.err == nil {
			op.arr, op.err = nil, commitErr
		}
		if op.replay != nil {
			op.replay.settled(op)
		} else {
			op.wg.Done()
		}
	}
}

// errPoolClosed fails a write to a pool whose writers Close stopped.
var errPoolClosed = errors.New("write to a closed pool")

// enqueue hands op to its shard's writer. Its error is a refusal: ctx had
// ended (enqueue canceled), or the pool is closed. A refused op was never
// accepted, so it is never journaled, applied or acknowledged.
func (p *Pool) enqueue(ctx context.Context, op *ingestOp) error {
	err := p.writers[op.rec.Shard].EnqueueContext(ctx, op)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ingest.ErrClosed):
		return errPoolClosed
	}
	return fmt.Errorf("enqueue canceled: %w", err)
}

// write runs live ops through the write path; every Append, AppendBatch
// and Delete comes here. Each op is accepted on its shard's writer queue,
// the one point where it can be refused (see enqueue), and write waits
// until every accepted op is applied and durable, or carries its error.
func (p *Pool) write(ctx context.Context, ops []*ingestOp) {
	var wg sync.WaitGroup
	for _, op := range ops {
		op.wg = &wg
		wg.Add(1)
		if err := p.enqueue(ctx, op); err != nil {
			op.err = err
			wg.Done()
		}
	}
	wg.Wait()
}

// writeOne runs one live op through write and returns its outcome. A
// refusal or a journal failure gets the pool's prefix; an engine's error
// already names its source.
func (p *Pool) writeOne(ctx context.Context, rec persist.Record, top int) (*Arrival, error) {
	op := getOp()
	defer putOp(op)
	op.rec, op.top = rec, top
	p.write(ctx, []*ingestOp{op})
	if cerr := ctx.Err(); errors.Is(op.err, ErrWALFailed) || errors.Is(op.err, errPoolClosed) ||
		cerr != nil && errors.Is(op.err, cerr) {
		return nil, fmt.Errorf("situfact: pool: %w", op.err)
	}
	return op.arr, op.err
}

// Algorithm returns the name of the algorithm the shard engines run.
func (p *Pool) Algorithm() string { return p.shards[0].eng.Algorithm() }

// ShardStat describes one shard of a pool for monitoring.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Len is the shard's live (appended and not deleted) tuple count.
	Len int `json:"len"`
	// Metrics is the shard engine's work counters.
	Metrics Metrics `json:"metrics"`
}

// IndexStat is a monitoring snapshot of the incremental fact index,
// summed over the shards.
type IndexStat struct {
	// Entries is the live cell count of the indexed stores across shards:
	// the fact groups a full QueryFacts walk returns.
	Entries int64 `json:"entries"`
	// Inserts and Deletes count the index's maintenance operations: a
	// constraint gaining its first cell, a constraint losing its last
	// (snapshot restore and WAL replay rebuild through Inserts too).
	Inserts uint64 `json:"inserts"`
	Deletes uint64 `json:"deletes"`
	// Seeks counts iterator seek operations: cursor positioning,
	// predicate-pushdown skips, and a checkpoint's key-order walk.
	Seeks uint64 `json:"seeks"`
}

// IndexStats returns the fact-index counters merged over all shards,
// each shard read under its own lock.
func (p *Pool) IndexStats() IndexStat {
	var st IndexStat
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		st.Entries += s.eng.factGroups()
		is := s.eng.fidx.Stats()
		s.mu.RUnlock()
		st.Inserts += is.Inserts
		st.Deletes += is.Deletes
		st.Seeks += is.Seeks
	}
	return st
}

// ShardStats returns a per-shard monitoring snapshot. Each shard is read
// under its own lock; the slice is not a cross-shard consistent cut (an
// append may land between two reads), which is fine for monitoring —
// shards are independent substreams.
func (p *Pool) ShardStats() []ShardStat {
	out := make([]ShardStat, len(p.shards))
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		out[i] = ShardStat{Shard: i, Len: s.eng.Len(), Metrics: s.eng.Metrics()}
		s.mu.RUnlock()
	}
	return out
}

// Len returns the total number of live tuples across all shards.
func (p *Pool) Len() int {
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		total += s.eng.Len()
		s.mu.RUnlock()
	}
	return total
}

// Metrics returns the work counters merged over all shards.
func (p *Pool) Metrics() Metrics {
	var total Metrics
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		m := s.eng.Metrics()
		s.mu.RUnlock()
		total.Add(m)
	}
	return total
}

// Close drains and stops the shard writers, then releases every shard's
// resources; all shards are closed even if some fail, and the failures are
// joined. A write after Close fails naming the closed pool; reads keep
// serving.
func (p *Pool) Close() error {
	p.stopWriters()
	var errs []error
	for i := range p.shards {
		if p.shards[i].eng == nil {
			continue // NewPool failed before this shard existed
		}
		if err := p.shards[i].eng.Close(); err != nil {
			errs = append(errs, fmt.Errorf("situfact: pool shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
