package main

// The end-to-end run: what the daemon's three kinds of user pay for. Every
// workload goes through the same life — an operator starts the daemon over
// an empty state directory and bulk-loads history (set-up); feed adapters
// POST events and wait for durable acks while a dashboard reads; the
// machine dies (kill -9); the operator restarts the daemon and attaches a
// follower — `rounds` times over, with a fresh daemon and state directory
// each round. Which round a metric reports is decided in main.go
// (medianOfRounds).
//
// Work is fixed (row and read counts, not durations): per-row discovery
// cost grows with the relation, so only runs of equal depth compare.
// -seconds scales the counts; the frozen counts fill the default length on
// the machine the baseline was recorded on.

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/relation"
)

// round is everything one round measured.
type round struct {
	e2e    map[string]float64 // end-to-end metric name → value
	ops    tally              // every request of the round
	before *daemonMetrics     // scraped around the ingest phase
	after  *daemonMetrics
	last   *daemonMetrics // scraped after the reads, on the quiet daemon
	writes tally          // the measured writers only
	reads  tally
	calib  []float64 // seconds the calibration kernel took, each time it ran (calib.go)
}

// runner carries one run's fixed inputs through its rounds.
type runner struct {
	env    *env
	w      workload
	seed   int64
	plan   *plan
	ref    *reference
	oracle map[int]int
	logf   func(format string, args ...any)
	// spans, when non-nil, receives one span per measured write request
	// (the traced run's http rung).
	spans func(ri []int, start, end time.Time)
	// lifecycle false stops a round before the crash and leaves the
	// calibration out: the traced run's http rung needs only set-up,
	// ingest and reads.
	lifecycle bool

	done int    // rounds completed
	raw  string // digest of the walk the last round's leader served
}

// makePlan generates the workload's input for the seed.
func makePlan(w workload, seed int64) (*plan, error) {
	schema, err := newSchema(w)
	if err != nil {
		return nil, err
	}
	pool, err := newPool(schema, w)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	st, err := genStream(w.D, w.M, seed, w.Preload+w.Rows, pool.ShardFor)
	if err != nil {
		return nil, err
	}
	return buildPlan(st, w)
}

func newRunner(e *env, w workload, seed int64, logf func(string, ...any)) (*runner, error) {
	t := time.Now()
	p, err := makePlan(w, seed)
	if err != nil {
		return nil, err
	}
	logf("bench:   %-22s %7.3fs", "input", time.Since(t).Seconds())
	t = time.Now()
	ref, err := buildReference(w, p)
	if err != nil {
		return nil, err
	}
	logf("bench:   %-22s %7.3fs", "reference pool", time.Since(t).Seconds())
	t = time.Now()
	oracle, err := oracleCounts(w, p)
	if err != nil {
		return nil, err
	}
	logf("bench:   %-22s %7.3fs", "brute-force oracle", time.Since(t).Seconds())
	return &runner{env: e, w: w, seed: seed, plan: p, ref: ref, oracle: oracle, logf: logf, lifecycle: true}, nil
}

// schemaFlags spells the workload's relation as daemon flags.
func schemaFlags(w workload) ([]string, error) {
	rs, err := gen.NBASchema(w.D, w.M)
	if err != nil {
		return nil, err
	}
	var dims, measures []string
	for _, d := range rs.Dims() {
		dims = append(dims, d.Name)
	}
	for _, m := range rs.Measures() {
		name := m.Name
		if m.Direction == relation.SmallerBetter {
			name = "-" + name
		}
		measures = append(measures, name)
	}
	return []string{"-relation", rs.Name(), "-dims", strings.Join(dims, ","), "-measures", strings.Join(measures, ",")}, nil
}

// run executes one round. Any error is a failed round: the caller keeps
// the daemon logs and gives up on the run.
func (r *runner) run() (*round, error) {
	w := r.w
	out := &round{e2e: map[string]float64{}}
	step := func(err error) { // lifecycle steps count as operations too
		out.ops.attempted++
		if err != nil {
			out.ops.failed++
		}
	}

	// Set-up: generate the input, start the daemon over an empty state
	// directory, bulk-load the history and checkpoint it.
	t0 := time.Now()
	p, err := makePlan(w, r.seed)
	if err != nil {
		return nil, err
	}
	if p.sha256 != r.plan.sha256 {
		return nil, fmt.Errorf("input is not a function of the seed: sha256 %s, then %s", r.plan.sha256, p.sha256)
	}
	schema, err := schemaFlags(w)
	if err != nil {
		return nil, err
	}
	dir, err := r.env.tempDir("leader-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	leaderFlags := append(append(schema,
		"-dhat", fmt.Sprint(w.Dhat), "-shards", fmt.Sprint(shards), "-shard-dim", shardDim,
		"-state-dir", dir, "-wal"), w.Flags...)
	leader, err := r.env.start("leader", leaderFlags...)
	if err != nil {
		return nil, err
	}
	_, err = leader.waitHealthy(t0, 5*time.Millisecond, 30*time.Second)
	step(err)
	if err != nil {
		return nil, err
	}
	g := &gate{st: p.st, rows: r.ref.rows, oracle: r.oracle}
	writers := make([]*http.Client, conns)
	for c := range writers {
		writers[c] = newConn()
	}
	out.ops.add(drive(leader, writers, p.preload, g, false, nil))
	if w.Preload > 0 {
		err := leader.checkpoint()
		step(err)
		if err != nil {
			return nil, err
		}
	}
	out.e2e["setup_s"] = time.Since(t0).Seconds()
	phase := time.Now()
	lap := func(name string) {
		r.logf("bench:   %-22s %7.3fs", name, time.Since(phase).Seconds())
		phase = time.Now()
	}

	// Ingest, with the dashboard reading beside it or after it.
	if r.lifecycle {
		out.calib = append(out.calib, calibrate().Seconds())
		lap("calibration")
	}
	if out.before, err = leader.metrics(); err != nil {
		return nil, err
	}
	cpu0, err := leader.cpu()
	if err != nil {
		return nil, err
	}
	rd := newReader(leader.base, p.st, w.Preload+w.Rows)
	var stop chan struct{}
	var readDone chan tally
	if w.ReadRate > 0 {
		stop, readDone = make(chan struct{}), make(chan tally, 1)
		go func() { readDone <- rd.openLoop(w.ReadRate, stop) }()
	}
	start := time.Now()
	out.writes = drive(leader, writers, p.ops, g, true, r.spans)
	elapsed := time.Since(start)
	if w.ReadRate > 0 {
		close(stop)
		out.reads = <-readDone
	}
	cpu1, err := leader.cpu()
	if err != nil {
		return nil, err
	}
	if out.after, err = leader.metrics(); err != nil {
		return nil, err
	}
	lap("ingest")
	if w.ReadRate == 0 {
		out.reads = rd.sweep(w.Reads)
		lap("read sweep")
	}
	for _, c := range writers {
		c.CloseIdleConnections()
	}
	rd.client.CloseIdleConnections()
	out.ops.add(out.writes)
	out.ops.add(out.reads)
	rows := float64(out.writes.rows)
	out.e2e["ingest_rows_per_s"] = rows / elapsed.Seconds()
	out.e2e["ingest_p50_ms"] = percentile(out.writes.latMs, 0.50)
	out.e2e["daemon_cpu_ms_per_row"] = float64(cpu1-cpu0) / float64(time.Millisecond) / rows
	rss, err := leader.peakRSS()
	if err != nil {
		return nil, err
	}
	out.e2e["daemon_peak_rss_mb"] = float64(rss) / (1 << 20)

	// The gate, on the quiet leader: counters and the complete fact set
	// against the reference pool.
	m, err := leader.metrics()
	if err != nil {
		return nil, err
	}
	out.last = m
	if err := checkCounters("leader", m, r.ref); err != nil && out.ops.wrong == nil {
		out.ops.wrong = err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	out.e2e["disk_bytes_per_row"] = float64(disk) / float64(m.Len)
	// The long walk is compared with the reference once per run (every
	// round holds the same facts: same input, same per-shard order); the
	// other rounds compare a short one with the round before.
	perShard := walkSample
	if r.done == 0 {
		perShard = walkFull
	}
	raw, facts, n, err := walk(leader, perShard, r.done == 0)
	step(err)
	if err != nil {
		return nil, err
	}
	if r.done == 0 && (facts != r.ref.digest || n != r.ref.facts) && out.ops.wrong == nil {
		out.ops.wrong = fmt.Errorf("leader: /v1/facts walk has %d fact groups (digest %.12s), reference pool %d (%.12s)", n, facts, r.ref.facts, r.ref.digest)
	}
	if r.done > 1 && raw != r.raw && out.ops.wrong == nil {
		out.ops.wrong = fmt.Errorf("leader: facts digest %.12s, the previous round's leader served %.12s", raw, r.raw)
	}
	r.raw = raw
	lap(fmt.Sprintf("walk %d per shard", perShard))

	// Crash, restart, follower.
	r.env.stop(leader)
	if !r.lifecycle {
		r.done++
		return out, nil
	}
	t := time.Now()
	leader, err = r.env.start("restarted", leaderFlags...)
	if err != nil {
		return nil, err
	}
	restart, err := leader.waitHealthy(t, 5*time.Millisecond, 60*time.Second)
	step(err)
	if err != nil {
		return nil, err
	}
	out.e2e["restart_s"] = restart.Seconds()
	lap("restart")
	if err := r.sameState("restarted leader", leader, perShard, raw); err != nil && out.ops.wrong == nil {
		out.ops.wrong = err
	}
	lap("check restarted")
	fdir, err := r.env.tempDir("follower-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(fdir)
	head, err := leader.metrics()
	if err != nil {
		return nil, err
	}
	t = time.Now()
	follower, err := r.env.start("follower", append(append(schema,
		"-follow", leader.base, "-follow-poll", "50ms", "-state-dir", fdir), w.Flags...)...)
	if err != nil {
		return nil, err
	}
	sync, err := follower.waitApplied(t, head.WAL.LastLSN, 60*time.Second)
	step(err)
	if err != nil {
		return nil, err
	}
	out.e2e["follower_sync_s"] = sync.Seconds()
	lap("follower sync")
	if err := r.sameState("follower", follower, perShard, raw); err != nil && out.ops.wrong == nil {
		out.ops.wrong = err
	}
	lap("check follower")
	r.env.stop(follower)
	r.env.stop(leader)
	out.calib = append(out.calib, calibrate().Seconds())
	lap("calibration")
	r.done++
	return out, nil
}

// sameState checks a recovered daemon against the reference counters and
// the bytes the leader served before it was killed.
func (r *runner) sameState(who string, d *daemon, perShard int, raw string) error {
	m, err := d.metrics()
	if err != nil {
		return fmt.Errorf("%s: %w", who, err)
	}
	if err := checkCounters(who, m, r.ref); err != nil {
		return err
	}
	got, _, _, err := walk(d, perShard, false)
	if err != nil {
		return fmt.Errorf("%s: %w", who, err)
	}
	if got != raw {
		return fmt.Errorf("%s: /v1/facts digest %.12s, the leader served %.12s before the crash", who, got, raw)
	}
	return nil
}

// waitApplied polls a follower's /v1/metrics until it has applied the
// leader's log through lsn, returning the time since `since`.
func (d *daemon) waitApplied(since time.Time, lsn uint64, timeout time.Duration) (time.Duration, error) {
	deadline := since.Add(timeout)
	for {
		select {
		case <-d.exited:
			return 0, fmt.Errorf("%s exited before syncing:\n%s", d.name, d.logTail(2048))
		default:
		}
		if m, err := d.metrics(); err == nil && m.Replication != nil {
			if m.Replication.Fatal != "" {
				return 0, fmt.Errorf("%s: replication stopped: %s", d.name, m.Replication.Fatal)
			}
			if m.Replication.AppliedLSN >= lsn {
				return time.Since(since), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s not in sync with lsn %d after %s:\n%s", d.name, lsn, timeout, d.logTail(2048))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drive runs each connection's request list in its own closed loop and
// merges what they saw. With sample, each list's requests past its warm-up
// share are timed; without (set-up traffic), none are.
func drive(d *daemon, clients []*http.Client, lists [][]op, g *gate, sample bool, span func([]int, time.Time, time.Time)) tally {
	parts := make([]tally, len(lists))
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm := len(lists[c])
			if sample {
				warm = int(warmupFrac * float64(len(lists[c])))
			}
			parts[c] = write(clients[c], d.base, lists[c], g, warm, span)
		}()
	}
	wg.Wait()
	var t tally
	for _, p := range parts {
		t.add(p)
	}
	return t
}
