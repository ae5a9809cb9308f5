package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	situfact "repro"
	"repro/internal/faultfs"
	"repro/internal/middleware"
	"repro/internal/readcache"
)

// config carries every run parameter; flags fill one in main.
type config struct {
	addr         string        // listen address
	relation     string        // relation name (cosmetic, part of the schema signature)
	dims         string        // comma-separated dimension column names
	measures     string        // comma-separated measure names ('-' prefix = smaller-is-better)
	algo         string        // algorithm name (core registry)
	dhat         int           // max bound dimension attributes (0 = no cap)
	mhat         int           // max measure subspace size (0 = no cap)
	shards       int           // pool shard count
	shardDim     string        // dimension routing rows to shards; "" = first dimension
	stateDir     string        // snapshot directory; "" disables persistence
	wal          bool          // journal ingest to <stateDir>/wal, replay on start
	walSegBytes  int64         // WAL segment rotation threshold (0 = 64 MiB)
	snapInterval time.Duration // background checkpoint period; 0 = shutdown-only snapshots
	pipeQueue    int           // per-shard ingest queue depth (0 = 256)
	pprofAddr    string        // extra net/http/pprof listener; "" = off
	follow       string        // leader base URL; non-empty = read-only follower
	followPoll   time.Duration // follower WAL-tail poll period (> 0)
	followMaxLag uint64        // replication lag (records) beyond which /healthz degrades
	readCacheTTL time.Duration // TTL of the read cache over /v1/facts{,/top}; 0 = off
	faultPlan    string        // faultfs plan injected under the WAL (testing only); "" = none
	// followRebootstrapMax caps automatic follower re-bootstraps after a
	// fatal replication error; 0 = never re-bootstrap (fatal states stand
	// until an operator restarts the process).
	followRebootstrapMax int

	// Overload protection & request lifecycle (see internal/middleware and
	// docs/ARCHITECTURE.md "Overload control & admission").
	configPath     string        // JSON config file; flags override its keys
	logRequests    bool          // structured per-request log lines
	rateLimit      float64       // per-client token-bucket rate (req/s); 0 = off
	rateBurst      int           // token-bucket burst; 0 = 2×rate
	maxInflight    int           // concurrent in-flight request bound; 0 = off
	shedWindow     time.Duration // sustained-backpressure window before shedding writes; 0 = off
	requestTimeout time.Duration // per-request context deadline; 0 = none
	readTimeout    time.Duration // http.Server.ReadTimeout (whole request read); 0 = none
	writeTimeout   time.Duration // http.Server.WriteTimeout; 0 = none (snapshot streams!)
	idleTimeout    time.Duration // http.Server.IdleTimeout for keep-alives
	maxBody        int64         // POST /v1/tuples body cap in bytes
	maxBatchBody   int64         // POST /v1/tuples:batch body cap in bytes
	walVerifyMode  bool          // -wal-verify: offline fsck then exit
}

// server owns the pool. Append/Delete handlers rely on the Pool's own
// ingest discipline for safety — the server adds no request serialization
// of its own. A leader's pool runs the ingest pipeline:
// handlers enqueue onto per-shard batching writers, arrivals racing for
// one shard are applied in enqueue order, and different shards proceed in
// parallel (see docs/ARCHITECTURE.md for why that ordering is sound).
type server struct {
	cfg      config
	schema   *situfact.Schema
	measures []measureWire
	// poolv holds the serving pool. It is a swappable pointer because a
	// follower's automatic re-bootstrap replaces the whole pool under live
	// readers: handlers load it once per request via db() and never mix
	// two pools within one request. On a leader it is set once.
	poolv   atomic.Pointer[situfact.Pool]
	wal     *situfact.WAL // nil without -wal
	started time.Time
	// cache fronts the hot read endpoints (/v1/facts, /v1/facts/top) with
	// a TTL'd singleflight layer; nil without -read-cache-ttl. On a
	// leader staleness is bounded by the TTL alone; on a follower the
	// replication loop additionally invalidates it whenever the applied
	// LSN advances.
	cache *readcache.Cache
	// repl is the follower runtime (see replication.go); nil on a leader.
	repl *replState

	// faults is the injected I/O plan under the WAL (-fault-plan); nil
	// without one. In-process tests clear or reprogram it to drive the
	// daemon into and out of degraded mode.
	faults *faultfs.Faulty
	// walRepairs counts successful background WAL repairs this process.
	walRepairs atomic.Uint64

	// Admission control (nil members = that layer is off; every accessor
	// on them is nil-safe). limiter and admit protect leaders and
	// followers alike; shedder only runs where there is a pipeline to
	// watch, so it is nil on followers.
	limiter *middleware.Limiter
	admit   *middleware.Gate
	shedder *middleware.Shedder
	panics  atomic.Uint64 // handler panics Recover turned into 500s

	// Background work (see run): every loop runs under ctx, and close
	// cancels it and waits on loops before it closes what they use.
	ctx    context.Context
	cancel context.CancelFunc
	loops  sync.WaitGroup

	// stateMu serialises checkpoints (background snapshotter vs shutdown).
	stateMu sync.Mutex
	// snapMu guards the snapshot telemetry for GET /v1/metrics.
	snapMu    sync.Mutex
	lastSnap  time.Time // zero until the first checkpoint this process
	snapStats situfact.CheckpointStats
}

// db returns the pool currently serving requests. Handlers call it once
// per request and work against that pool for the request's whole
// lifetime, so a concurrent re-bootstrap swap never mixes two pools
// within one response.
func (s *server) db() *situfact.Pool { return s.poolv.Load() }

// buildSchema parses the -dims/-measures flags into a schema, returning
// the measure descriptions for GET /v1/schema alongside.
func buildSchema(cfg config) (*situfact.Schema, []measureWire, error) {
	schema, specs, err := situfact.ParseSchema(cfg.relation, cfg.dims, cfg.measures)
	if err != nil {
		return nil, nil, err
	}
	wires := make([]measureWire, len(specs))
	for i, sp := range specs {
		dir := "larger-better"
		if sp.Direction == situfact.SmallerBetter {
			dir = "smaller-better"
		}
		wires[i] = measureWire{Name: sp.Name, Direction: dir}
	}
	return schema, wires, nil
}

// newServer builds the pool and the server around it, running the full
// recovery sequence when cfg.stateDir holds prior state: restore the
// newest snapshot, replay the WAL tail through the write path, then attach
// the WAL for live journaling. cfg must have passed validate.
func newServer(cfg config) (*server, error) {
	if cfg.follow != "" {
		return newFollower(cfg)
	}
	schema, wires, err := buildSchema(cfg)
	if err != nil {
		return nil, err
	}
	var pool *situfact.Pool
	if cfg.stateDir != "" {
		// The manifest's sidecars are ignored: this daemon writes none, and
		// one an older binary left behind is bytes nobody reads.
		began := time.Now()
		pool, _, err = situfact.RestorePool(schema, cfg.stateDir)
		switch {
		case errors.Is(err, situfact.ErrNoSnapshot):
			pool = nil // fresh start below
		case err != nil:
			// A corrupt or mismatched snapshot must fail startup loudly —
			// starting empty over existing state would be silent data loss —
			// and so must one taken under an algorithm a pool cannot run.
			return nil, fmt.Errorf("situfactd: the snapshot in %s: %w", cfg.stateDir, err)
		default:
			log.Printf("restored %d shards (%d tuples) from %s in %s",
				pool.Shards(), pool.Len(), cfg.stateDir, time.Since(began).Round(100*time.Microsecond))
			// A snapshot pins shard count, routing, algorithm and caps;
			// flags that ask for something else are overridden — say so.
			if cfg.shards > 0 && cfg.shards != pool.Shards() {
				log.Printf("warning: -shards %d ignored, snapshot has %d shards", cfg.shards, pool.Shards())
			}
			if d := strings.TrimSpace(cfg.shardDim); d != "" && d != pool.ShardDim() {
				log.Printf("warning: -shard-dim %s ignored, snapshot routes by %s", d, pool.ShardDim())
			}
			if !strings.EqualFold(pool.Algorithm(), cfg.algo) {
				log.Printf("warning: -algo %s ignored, snapshot was taken under %s", cfg.algo, pool.Algorithm())
			}
			if cfg.dhat != 0 || cfg.mhat != 0 {
				log.Printf("warning: -dhat/-mhat are pinned by the snapshot; flag values ignored")
			}
		}
	}
	if pool == nil {
		pool, err = situfact.NewPool(schema, situfact.PoolOptions{
			Shards:   cfg.shards,
			ShardDim: strings.TrimSpace(cfg.shardDim),
			Engine: situfact.Options{
				Algorithm:      situfact.Algorithm(cfg.algo),
				MaxBoundDims:   cfg.dhat,
				MaxMeasureDims: cfg.mhat,
			},
		})
		if err != nil {
			// NewPool refuses every algorithm but bottomup and sbottomup, in
			// the read path's own words.
			return nil, fmt.Errorf("situfactd: -algo %s: %w", cfg.algo, err)
		}
	}
	s := serverFor(cfg, schema, wires, pool)
	if err := s.startLeader(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serverFor wraps a built pool in a server: the read cache and admission
// layers the config asks for, and the context its background loops run
// under. Leaders and followers share it, so every limit a leader enforces
// holds on its followers too — a follower fleet is exactly where unbounded
// read fan-in lands. Layers the config leaves at zero come back nil, and
// every middleware accessor treats nil as "off".
func serverFor(cfg config, schema *situfact.Schema, wires []measureWire, pool *situfact.Pool) *server {
	s := &server{
		cfg:      cfg,
		schema:   schema,
		measures: wires,
		started:  time.Now(),
		limiter:  middleware.NewLimiter(cfg.rateLimit, cfg.rateBurst),
		admit:    middleware.NewGate(cfg.maxInflight),
	}
	if cfg.readCacheTTL > 0 {
		s.cache = readcache.New(cfg.readCacheTTL)
	}
	if cfg.follow == "" {
		// Shedding watches the ingest pipeline's backpressure; a follower
		// runs none, so there is nothing to watch.
		s.shedder = middleware.NewShedder(cfg.shedWindow)
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.poolv.Store(pool)
	return s
}

// startLeader brings a leader's pool into service: it refuses a journal a
// -wal run left behind, replays and attaches the WAL, starts the ingest
// pipeline and then the background loops. On error the caller closes s.
func (s *server) startLeader() error {
	cfg, pool := s.cfg, s.db()
	if !cfg.wal && cfg.stateDir != "" {
		// A journal from a prior -wal run may hold acknowledged rows past
		// the newest snapshot; starting without -wal would silently drop
		// that tail (and a later -wal restart would replay it out of
		// order). Refuse until the operator decides.
		walDir := filepath.Join(cfg.stateDir, "wal")
		ents, err := os.ReadDir(walDir)
		switch {
		case err == nil && len(ents) > 0:
			return fmt.Errorf("situfactd: %s holds a write-ahead log but -wal is off: "+
				"its unreplayed tail would be silently dropped; restart with -wal, or move the wal directory away to discard it", walDir)
		case err != nil && !os.IsNotExist(err):
			// Unreadable is not the same as absent — starting anyway could
			// silently drop the very tail the guard protects.
			return fmt.Errorf("situfactd: checking %s for a leftover write-ahead log: %w", walDir, err)
		}
	}
	if cfg.faultPlan != "" {
		faults, err := faultfs.NewWithPlan(faultfs.OS, cfg.faultPlan)
		if err != nil {
			return fmt.Errorf("situfactd: %w", err)
		}
		s.faults = faults
		log.Printf("FAULT INJECTION ACTIVE (testing only): %s", cfg.faultPlan)
	}
	if cfg.wal {
		opts := situfact.WALOptions{SegmentBytes: cfg.walSegBytes}
		if s.faults != nil {
			opts.FS = s.faults
		}
		wal, err := situfact.OpenWAL(pool, filepath.Join(cfg.stateDir, "wal"), opts)
		if err != nil {
			return fmt.Errorf("situfactd: %w", err)
		}
		s.wal = wal
		// Replay through the write path, unobserved: the tail changes the
		// pool's state exactly as the original requests did, and nobody
		// reads the facts they reported, so they are not ranked again.
		began := time.Now()
		stats, err := pool.ReplayWAL(wal, nil)
		if err != nil {
			return fmt.Errorf("situfactd: wal replay: %w", err)
		}
		if stats.Records > 0 {
			log.Printf("wal: replayed %d records (%d applied, %d already in snapshot, %d re-failed) in %s; %d tuples live",
				stats.Records, stats.Applied, stats.Skipped, stats.Failed, time.Since(began).Round(100*time.Microsecond), pool.Len())
		}
		if err := pool.AttachWAL(wal); err != nil {
			return fmt.Errorf("situfactd: %w", err)
		}
	}
	// The pipeline starts after recovery (restore + replay), which applies
	// its records inline; every live request from here on batches through
	// the per-shard writers, each queue's capacity floating up to
	// -pipeline-queue.
	if err := pool.StartPipeline(situfact.PipelineOptions{
		QueueDepth:    cfg.pipeQueue,
		AdaptiveQueue: true,
	}); err != nil {
		return fmt.Errorf("situfactd: %w", err)
	}
	if cfg.stateDir != "" && cfg.snapInterval > 0 {
		s.run(s.snapshotLoop)
	}
	if s.shedder != nil {
		s.run(s.shedLoop)
	}
	if s.wal != nil {
		s.run(s.walRepairLoop)
	}
	return nil
}

// run starts fn as one of the server's background loops. fn must return
// once ctx ends; close cancels ctx and waits for it before closing the
// pool and the WAL it works on.
func (s *server) run(fn func(ctx context.Context)) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		fn(s.ctx)
	}()
}

// sleep waits d, reporting false instead if ctx ends first: every
// background loop paces itself with it, so close never waits out a period.
func sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// jitter spreads d by up to ±25 %, so a fleet retrying the same failure
// does not retry in lockstep.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	return d + time.Duration((rng.Float64()-0.5)*0.5*float64(d))
}

// walRepairLoop watches the log for a sticky failure and retries
// WAL.Repair with capped exponential backoff — the heal half of degraded
// mode: a relieved ENOSPC or transient device error clears without a
// process restart, and writers that were receiving 503s resume. See
// docs/ARCHITECTURE.md "Failure domains & degraded mode".
func (s *server) walRepairLoop(ctx context.Context) {
	const probe = 50 * time.Millisecond
	const maxBackoff = 5 * time.Second
	backoff := probe
	for sleep(ctx, backoff) {
		if s.wal.Err() == nil {
			backoff = probe
			continue
		}
		rewritten, err := s.wal.Repair()
		if err != nil {
			backoff = min(backoff*2, maxBackoff)
			log.Printf("wal repair failed (next attempt in %v): %v", backoff, err)
			continue
		}
		s.walRepairs.Add(1)
		backoff = probe
		log.Printf("wal repaired: resuming writes (%d unsynced records written again)", rewritten)
	}
}

// routes is the single source of truth for the API surface;
// TestAPIDocEndpoints keeps docs/API.md's endpoint list equal to it.
func (s *server) routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"GET /healthz":           s.handleHealthz,
		"GET /v1/schema":         s.handleSchema,
		"GET /v1/metrics":        s.handleMetrics,
		"GET /v1/facts":          s.handleFacts,
		"GET /v1/facts/top":      s.handleTopFacts,
		"GET /v1/tuples/{id}":    s.handleTuple,
		"GET /v1/snapshot":       s.handleSnapshot,
		"GET /v1/wal":            s.handleWALTail,
		"POST /v1/tuples":        s.handleAppend,
		"POST /v1/tuples:batch":  s.handleBatch,
		"DELETE /v1/tuples/{id}": s.handleDelete,
	}
}

// shedSamplePeriod is how often shedLoop samples the pipeline for
// sustained backpressure; it must divide the -shed-window finely enough
// that a calm sample inside the window resets it.
const shedSamplePeriod = 50 * time.Millisecond

// shedLoop feeds the shedder its saturation signal: the pipeline is
// saturated when producers blocked on a full queue since the last sample
// AND some shard's queue is still at capacity now. The first condition
// alone would trip on a momentary blip the adaptive queue absorbs by
// growing; the second alone would trip on a queue that is full but
// draining fine. Only both, sustained across the whole -shed-window,
// turn shedding on — and one calm sample turns it back off.
func (s *server) shedLoop(ctx context.Context) {
	var lastFullWaits uint64
	for sleep(ctx, shedSamplePeriod) {
		sum := s.db().IngestSummary()
		saturated := false
		if sum.FullWaits > lastFullWaits {
			for _, st := range sum.PerShard {
				if st.Depth >= st.Cap {
					saturated = true
					break
				}
			}
		}
		lastFullWaits = sum.FullWaits
		s.shedder.Observe(saturated, time.Now())
	}
}

// handler routes the API behind the admission and lifecycle middleware.
// The chain, outermost first:
//
//	Log            per-request line + the verdict slot (only with -log-requests)
//	Recover        a handler panic 500s one request, not the process
//	Limit          per-client token bucket → 429 + Retry-After
//	InflightLimit  concurrent-request bound → 503 + Retry-After
//	ShedWrites     sustained pipeline backpressure → writes 503, reads pass
//	Deadline       per-request context budget (-request-timeout)
//
// Log sits outside Recover so the line records the 500 and the "panic"
// verdict; the admission layers sit inside Recover so even a bug in them
// cannot kill the daemon. Rejections happen before the body is read or
// journaled, so a shed request was never acknowledged. routes() stays
// the undecorated source of truth for the API surface.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range s.routes() {
		mux.HandleFunc(pattern, h)
	}
	var layers []middleware.Func
	if s.cfg.logRequests {
		layers = append(layers, middleware.Log(log.Printf))
	}
	layers = append(layers,
		middleware.Recover(log.Printf, &s.panics),
		middleware.Limit(s.limiter),
		middleware.InflightLimit(s.admit),
		middleware.ShedWrites(s.shedder),
		middleware.Deadline(s.cfg.requestTimeout),
	)
	return middleware.Chain(layers...)(mux)
}

// checkpoint snapshots every shard into the state dir and truncates WAL
// segments the new generation covers; a no-op without -state-dir. The
// background snapshotter and graceful shutdown both call it, and stateMu
// serialises them.
func (s *server) checkpoint() error {
	if s.cfg.stateDir == "" {
		return nil
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	_, err := s.checkpointLocked()
	return err
}

// checkpointLocked is checkpoint's body, factored out so the snapshot
// shipper (handleSnapshot) can hold stateMu across the checkpoint AND the
// subsequent file streaming — no newer generation may replace the files
// mid stream. Caller holds s.stateMu.
func (s *server) checkpointLocked() (situfact.CheckpointStats, error) {
	stats, err := s.db().Checkpoint(s.cfg.stateDir, nil)
	if err != nil {
		return stats, err
	}
	s.snapMu.Lock()
	s.lastSnap = time.Now()
	s.snapStats = stats
	s.snapMu.Unlock()
	if s.wal != nil && stats.TruncatableLSN > 0 {
		if err := s.wal.TruncateBefore(stats.TruncatableLSN + 1); err != nil {
			// The checkpoint itself committed; stale segments only cost
			// replay time, so log rather than fail.
			log.Printf("wal truncate: %v", err)
		}
	}
	return stats, nil
}

// snapshotLoop checkpoints every -snapshot-interval until ctx ends — the
// background companion to the WAL: the log bounds data loss, the loop
// bounds the log.
func (s *server) snapshotLoop(ctx context.Context) {
	for sleep(ctx, s.cfg.snapInterval) {
		if err := s.checkpoint(); err != nil {
			log.Printf("background checkpoint: %v", err)
		}
	}
}

// close stops the background loops — a checkpoint, repair or tail batch
// in flight finishes first — and then closes the pool and the WAL they
// work on.
func (s *server) close() error {
	s.cancel()
	s.loops.Wait()
	err := s.db().Close()
	if s.wal != nil {
		err = errors.Join(err, s.wal.Close())
	}
	return err
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	pool := s.db()
	if s.repl != nil {
		// A follower is healthy only while it can promise near-leader reads:
		// a fatal replication error (epoch mismatch, truncated-away tail) or
		// lag beyond -follow-max-lag degrades it to 503 so load balancers
		// stop routing reads here.
		if reason := s.repl.unhealthy(); reason != "" {
			writeJSON(w, http.StatusServiceUnavailable,
				healthResponse{Status: "unavailable", Tuples: pool.Len(), Reason: reason})
			return
		}
	}
	if s.wal != nil {
		if err := s.wal.Err(); err != nil {
			// Degraded, not down: reads still serve (hence 200, so probes
			// that gate read traffic keep routing here), writes 503 until
			// the background repair loop clears the fault.
			writeJSON(w, http.StatusOK,
				healthResponse{Status: "degraded", Tuples: pool.Len(), Reason: "wal: " + errMsg(err)})
			return
		}
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Tuples: pool.Len()})
}

// errMsg strips the library prefix for wire-facing reasons.
func errMsg(err error) string {
	return strings.TrimPrefix(err.Error(), "situfact: ")
}

func (s *server) handleSchema(w http.ResponseWriter, r *http.Request) {
	pool := s.db()
	writeJSON(w, http.StatusOK, schemaResponse{
		Relation:   s.cfg.relation,
		Dimensions: s.schema.DimensionNames(),
		Measures:   s.measures,
		ShardDim:   pool.ShardDim(),
		Shards:     pool.Shards(),
		Algorithm:  pool.Algorithm(),
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// One ShardStats sweep supplies both views, so per_shard always sums
	// to merged even under concurrent ingest (Pool.Metrics would re-take
	// the shard locks in a second pass that could disagree).
	pool := s.db()
	resp := metricsResponse{
		Algorithm:     pool.Algorithm(),
		ShardDim:      pool.ShardDim(),
		Shards:        pool.Shards(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		PerShard:      pool.ShardStats(),
		Ingest:        pool.IngestSummary(),
		Index:         pool.IndexStats(),
	}
	for _, st := range resp.PerShard {
		resp.Len += st.Len
		resp.Merged.Add(st.Metrics)
	}
	if s.wal != nil {
		wst := s.wal.Stats()
		resp.WAL = walWire{
			Enabled:    true,
			LastLSN:    wst.LastLSN,
			SyncedLSN:  wst.SyncedLSN,
			LagRecords: wst.LastLSN - wst.SyncedLSN,
			Syncs:      wst.Syncs,
			Segments:   wst.Segments,
			Repairs:    s.walRepairs.Load(),
		}
		if werr := s.wal.Err(); werr != nil {
			resp.WAL.Degraded = true
			resp.WAL.DegradedReason = errMsg(werr)
		}
	}
	resp.Snapshot = snapshotWire{Enabled: s.cfg.stateDir != "", SecondsSinceLast: -1}
	s.snapMu.Lock()
	if !s.lastSnap.IsZero() {
		resp.Snapshot.SecondsSinceLast = time.Since(s.lastSnap).Seconds()
		resp.Snapshot.Generation = s.snapStats.Generation
		resp.Snapshot.LastBytes = s.snapStats.Bytes
		resp.Snapshot.LastMS = float64(s.snapStats.Elapsed) / float64(time.Millisecond)
		resp.Snapshot.LastHoldMS = float64(s.snapStats.LongestHold) / float64(time.Millisecond)
	}
	s.snapMu.Unlock()
	if s.repl != nil {
		rw := s.repl.wire()
		resp.Replication = &rw
	}
	resp.ReadCache = readCacheWire{Enabled: s.cache != nil}
	if s.cache != nil {
		cst := s.cache.Stats()
		resp.ReadCache.TTLSeconds = s.cfg.readCacheTTL.Seconds()
		resp.ReadCache.Hits = cst.Hits
		resp.ReadCache.Misses = cst.Misses
		resp.ReadCache.Entries = cst.Entries
		resp.ReadCache.OldestAgeSeconds = cst.OldestAge.Seconds()
	}
	resp.Overload = overloadWire{
		Shed:         s.admit.Shed() + s.shedder.Shed(),
		Limited:      s.limiter.Limited(),
		Inflight:     s.admit.Inflight(),
		InflightPeak: s.admit.Peak(),
		MaxInflight:  s.admit.Bound(),
		RateLimit:    s.cfg.rateLimit,
		Clients:      s.limiter.Clients(),
		Shedding:     s.shedder.Shedding(),
		Panics:       s.panics.Load(),
	}
	writeJSON(w, http.StatusOK, resp)
}

// topDefaultK is GET /v1/facts/top's k when the request names none; like
// /v1/facts' limit it is capped at factsMaxLimit.
const topDefaultK = 10

// handleTopFacts serves the leaderboard: the k highest-prominence fact
// groups of the current fact set (Pool.TopFacts), so a deleted tuple's
// facts leave it and a follower ranks exactly as its leader does. The
// cache key carries the clamped k: every k past the cap shares one fill.
func (s *server) handleTopFacts(w http.ResponseWriter, r *http.Request) {
	k := topDefaultK
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad k %q", q))
			return
		}
		k = min(n, factsMaxLimit)
	}
	pool := s.db()
	s.serveCached(w, "top|"+strconv.Itoa(k), func() ([]byte, error) {
		facts, err := pool.TopFacts(k)
		if err != nil {
			return nil, err
		}
		resp := topFactsResponse{Source: "live", Facts: make([]queryFactWire, len(facts))}
		for i := range facts {
			resp.Facts[i] = toQueryFactWire(&facts[i])
		}
		return marshalBody(resp)
	})
}

// rejectOnFollower answers write requests on a follower with 403: the
// follower's state is a replica of the leader's journal, and a local write
// would fork it. Returns true when the request was handled (rejected).
func (s *server) rejectOnFollower(w http.ResponseWriter) bool {
	if s.repl == nil {
		return false
	}
	writeErr(w, http.StatusForbidden, "read-only follower: send writes to the leader")
	return true
}

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	var req tupleRequest
	if !decodeBody(w, r, s.cfg.maxBody, &req) || !validTop(w, req.Top) {
		return
	}
	arr, err := s.db().AppendContext(r.Context(), req.Dims, req.Measures, cmp.Or(req.Top, math.MaxInt))
	if err != nil {
		writeIngestErr(w, r, err, nil)
		return
	}
	resp := toArrival(arr)
	if req.Narrate != nil {
		values := make(map[string]float64, len(s.measures))
		for i, m := range s.measures {
			values[m.Name] = req.Measures[i]
		}
		for i := range resp.Facts {
			f := arr.Facts[i]
			resp.Facts[i].Narration = situfact.Narrate(f, req.Narrate.Subject, values)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	var req batchRequest
	if !decodeBody(w, r, s.cfg.maxBatchBody, &req) || !validTop(w, req.Top) {
		return
	}
	if len(req.Rows) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	arrs, batchErr := s.db().AppendBatchContext(r.Context(), req.Rows, req.Top)
	if batchErr != nil && arrs == nil {
		// Nothing was processed: usually a pre-validation failure (400),
		// but a poisoned WAL also fails whole batches before any arrival.
		writeIngestErr(w, r, batchErr, nil)
		return
	}
	resp := batchResponse{Arrivals: make([]*arrivalResponse, len(arrs))}
	for i, arr := range arrs {
		if arr == nil {
			continue // unprocessed row of a failed shard
		}
		a := toArrival(arr)
		resp.Arrivals[i] = &a
	}
	if batchErr != nil {
		// Mid-batch failure: the arrivals present above DID commit; report
		// them with the error so the client can reconcile.
		writeIngestErr(w, r, batchErr, &resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	pool := s.db()
	shard, tupleID, err := parseTupleID(r.PathValue("id"), situfact.AllShards, pool.Shards())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := pool.DeleteContext(r.Context(), shard, tupleID); err != nil {
		writeIngestErr(w, r, err, nil)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ingestFailure is the one mapping from an ingest error — append, batch or
// delete; refused whole, or (partial) a batch some of whose rows committed —
// to its answer: the HTTP status, whether it carries Retry-After, and the
// access log's verdict. Status 0 answers nothing.
func ingestFailure(err error, partial bool) (status int, retryAfter bool, verdict string) {
	switch {
	case errors.Is(err, context.Canceled):
		// The client hung up while rows were parked on a full queue: those
		// were never accepted, and nobody is reading a response.
		return 0, false, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		// The -request-timeout budget ran out waiting for queue space: the
		// daemon is overloaded, so answer like every other overload rejection.
		return http.StatusServiceUnavailable, true, "deadline"
	case errors.Is(err, situfact.ErrWALFailed):
		// A journal failure is the daemon's fault, not the request's: it is
		// degraded but repairing itself in the background, so retry soon —
		// the row is not malformed and the daemon has not crashed.
		return http.StatusServiceUnavailable, true, ""
	case partial:
		return http.StatusInternalServerError, false, "" // an engine failed mid batch
	case errors.Is(err, situfact.ErrNotFound):
		return http.StatusNotFound, false, ""
	case errors.Is(err, situfact.ErrAlreadyDeleted):
		return http.StatusConflict, false, ""
	default:
		// The request's own defect: validation, ErrRowTooLarge.
		return http.StatusBadRequest, false, ""
	}
}

// writeIngestErr answers a failed ingest request as ingestFailure maps err.
// partial, when non-nil, is the batch result so far: it goes out as the body
// with the error beside the arrivals that committed.
func writeIngestErr(w http.ResponseWriter, r *http.Request, err error, partial *batchResponse) {
	status, retryAfter, verdict := ingestFailure(err, partial != nil)
	if verdict != "" {
		middleware.SetVerdict(r, verdict)
	}
	if status == 0 {
		return
	}
	if retryAfter {
		w.Header().Set("Retry-After", "1")
	}
	switch {
	case partial != nil:
		partial.Error = strings.TrimPrefix(err.Error(), "situfact: ")
		writeJSON(w, status, partial)
	case verdict == "deadline":
		writeErr(w, status, "overloaded: request deadline exceeded waiting for ingest queue space")
	default:
		writeErr(w, status, err.Error())
	}
}

// validTop refuses a negative top with 400.
func validTop(w http.ResponseWriter, top int) bool {
	if top < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("top must be >= 0, got %d", top))
		return false
	}
	return true
}

// toArrival converts an arrival with the facts it carries: the pool
// already capped them at the request's top.
func toArrival(arr *situfact.Arrival) arrivalResponse {
	resp := arrivalResponse{
		ID:        strconv.Itoa(arr.Shard) + ":" + strconv.FormatInt(arr.TupleID, 10),
		Shard:     arr.Shard,
		TupleID:   arr.TupleID,
		FactCount: arr.FactCount,
		Facts:     make([]factWire, len(arr.Facts)),
	}
	for i, f := range arr.Facts {
		resp.Facts[i] = factWire{Fact: f, Text: f.String()}
	}
	return resp
}

// parseTupleID resolves a "<shard>:<tuple_id>" handle on a pool of shards
// shards. A bare tuple id is of shard bare, the shard the request names
// elsewhere; with bare AllShards it is of shard 0 on a single-shard pool
// and refused on a multi-shard one, where it could retract or read the
// wrong tuple.
func parseTupleID(id string, bare, shards int) (shard int, tupleID int64, err error) {
	shardStr, tupleStr, found := strings.Cut(id, ":")
	switch {
	case found:
		shard, err = strconv.Atoi(shardStr)
	case bare != situfact.AllShards:
		shard, tupleStr = bare, id
	case shards == 1:
		tupleStr = id
	default:
		return 0, 0, fmt.Errorf("bare tuple id %q is ambiguous with %d shards: use <shard>:<tuple_id>", id, shards)
	}
	if err == nil {
		tupleID, err = strconv.ParseInt(tupleStr, 10, 64)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("bad tuple id %q: want <shard>:<tuple_id>", id)
	}
	return shard, tupleID, nil
}

// decodeOne decodes one JSON value from dec into v and requires it to be the
// whole input: the next read must hit io.EOF, so a second value, a stray '}'
// or ']' or any other byte after the value is refused as trailing data
// instead of being silently dropped.
func decodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// decodeBody decodes a size-capped JSON body, exactly one value of v's
// type, straight off the request, writing the error response itself when
// decoding fails. A body past maxBytes is 413 wherever the overflow falls —
// inside the value, or after a complete one, where decodeOne alone would
// report trailing data — so a refused body is read to the cap before the
// status is chosen.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := decodeOne(dec, v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if _, rest := io.Copy(io.Discard, body); errors.As(err, &tooLarge) || errors.As(rest, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, tooLarge.Error())
		return false
	}
	writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
	return false
}

// writeJSON renders v as a response body with status: the one encoder, which
// cached reads use too (marshalBody, then writeRawJSON from the cache).
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalBody(v)
	if err != nil {
		// Nothing has been written yet, so a plain 500 is still possible.
		log.Printf("encode response: %v", err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	writeRawJSON(w, status, body)
}

// marshalBody renders a response body: the value's JSON and a trailing
// newline.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeRawJSON writes an already-rendered JSON body.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client gone away; nothing to do
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: strings.TrimPrefix(msg, "situfact: ")})
}
