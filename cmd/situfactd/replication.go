package main

// Follower mode (-follow <leader-url>) and the leader endpoints backing
// it. A follower bootstraps by downloading the leader's snapshot stream
// (GET /v1/snapshot), restoring it like a local restart would, and then
// polls the leader's WAL tail (GET /v1/wal) forever, applying each batch
// through Pool.ApplyTail — the same per-record path crash recovery uses,
// which is what makes follower state converge to the leader's bit for
// bit. The follower pins the leader's WAL epoch at bootstrap: a tail from
// any other log instance (leader re-initialised, wrong leader) is a fatal
// error, as is a gap in the dense LSN sequence (the leader truncated the
// tail away before the follower read it). Transient poll errors retry
// with jittered exponential backoff; fatal errors trigger an automatic
// re-bootstrap — the follower re-downloads the leader's snapshot and
// swaps the restored pool in under live readers, up to
// -follow-rebootstrap-max consecutive attempts. Only when that budget is
// exhausted (or re-bootstrap is disabled) does replication stop and
// /healthz degrade to 503 until an operator restarts the process.

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	situfact "repro"
	"repro/internal/persist"
)

// snapshotStreamMagic heads the GET /v1/snapshot byte stream; each file
// follows as [uvarint name length][name][uvarint size][bytes], shard
// files first and the manifest last (its presence commits the download —
// a partial stream leaves no manifest and the next bootstrap starts
// clean).
const snapshotStreamMagic = "situfact-snapshot-stream/v1\n"

const (
	walTailDefaultMax = 4096
	walTailMaxMax     = 65536
)

// ---------------------------------------------------------------- leader

// handleSnapshot ships a fresh checkpoint as one self-contained stream.
// stateMu is held across the checkpoint AND the file reads, so a
// concurrent checkpoint cannot replace the generation mid stream.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.repl != nil {
		writeErr(w, http.StatusConflict, "followers do not ship snapshots: bootstrap from the leader")
		return
	}
	if s.cfg.stateDir == "" || s.wal == nil {
		writeErr(w, http.StatusConflict, "snapshot shipping requires -state-dir and -wal (a follower needs the log tail after the snapshot)")
		return
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	stats, err := s.checkpointLocked()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "checkpoint: "+err.Error())
		return
	}
	pool := s.db()
	names := make([]string, 0, pool.Shards()+1)
	for i := 0; i < pool.Shards(); i++ {
		names = append(names, persist.ShardSnapshotName(i, stats.Generation))
	}
	names = append(names, persist.ManifestName) // last: the commit record
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := io.WriteString(w, snapshotStreamMagic); err != nil {
		return
	}
	var hdr [binary.MaxVarintLen64]byte
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(s.cfg.stateDir, name))
		if err != nil {
			// Headers are out; aborting mid stream is the only option. The
			// follower sees a truncated stream (no manifest) and retries.
			log.Printf("snapshot stream: %v", err)
			return
		}
		n := binary.PutUvarint(hdr[:], uint64(len(name)))
		if _, err := w.Write(hdr[:n]); err != nil {
			return
		}
		if _, err := io.WriteString(w, name); err != nil {
			return
		}
		n = binary.PutUvarint(hdr[:], uint64(len(data)))
		if _, err := w.Write(hdr[:n]); err != nil {
			return
		}
		if _, err := w.Write(data); err != nil {
			return
		}
	}
}

// handleWALTail serves a batch of journaled records from from_lsn on —
// the poll target of follower catch-up.
func (s *server) handleWALTail(w http.ResponseWriter, r *http.Request) {
	if s.wal == nil {
		writeErr(w, http.StatusConflict, "no write-ahead log to read: run the leader with -wal")
		return
	}
	from := uint64(1)
	if v := r.URL.Query().Get("from_lsn"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad from_lsn %q", v))
			return
		}
		from = n
	}
	max := walTailDefaultMax
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad max %q", v))
			return
		}
		max = min(n, walTailMaxMax)
	}
	recs, lastLSN, more, err := s.wal.ReadTail(from, max)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, walTailResponse{Epoch: s.wal.Epoch(), LastLSN: lastLSN, Records: recs, More: more})
}

// -------------------------------------------------------------- follower

// replState is a follower's replication runtime; the server's config
// carries its poll period and re-bootstrap budget.
type replState struct {
	client       *http.Client
	leader       string // leader base URL, no trailing slash
	maxLag       uint64 // 0 = no health bound
	bootstrapDir string // scratch a (re-)bootstrap downloads the snapshot into

	mu        sync.Mutex
	epoch     string // leader WAL epoch pinned at (re-)bootstrap
	nextLSN   uint64 // next LSN to fetch; nextLSN-1 is applied through
	leaderLSN uint64 // leader's highest LSN at the last successful poll
	lastPoll  time.Time
	lastErr   string // transient; cleared by the next successful poll
	fatal     string // terminal; replication stopped pending re-bootstrap
	applied   situfact.ReplayStats
	// rebootstraps counts completed automatic re-bootstraps.
	rebootstraps int
}

// newFollower bootstraps a read-only follower: snapshot download, restore,
// then the background tail loop. The follower carries the leader's exact
// schema flags (-dims/-measures/-relation) — the restored manifest
// validates them — and uses -state-dir only as scratch for the bootstrap
// download (a follower never checkpoints; its durable state is the
// leader's).
func newFollower(cfg config) (*server, error) {
	schema, wires, err := buildSchema(cfg)
	if err != nil {
		return nil, err
	}
	leader := strings.TrimRight(cfg.follow, "/")
	client := &http.Client{Timeout: 5 * time.Minute}
	bootstrapDir := filepath.Join(cfg.stateDir, "bootstrap")
	pool, epoch, err := bootstrapPool(context.Background(), client, leader, bootstrapDir, schema, cfg.pipeQueue)
	if err != nil {
		return nil, fmt.Errorf("situfactd: %w", err)
	}
	// The follower never checkpoints: stateDir was scratch for the
	// bootstrap only.
	cfg.stateDir = ""
	s := serverFor(cfg, schema, wires, pool)
	next := pool.TailCursor()
	s.repl = &replState{
		client:       client,
		leader:       leader,
		maxLag:       cfg.followMaxLag,
		bootstrapDir: bootstrapDir,
		epoch:        epoch,
		nextLSN:      next,
		leaderLSN:    next - 1, // lag 0 until the first poll says otherwise
	}
	log.Printf("following %s from lsn %d (epoch %s, %d tuples bootstrapped)",
		leader, next, epoch, pool.Len())
	s.run(func(ctx context.Context) { s.repl.run(ctx, s) })
	return s, nil
}

// bootstrapPool downloads the leader's snapshot stream into bootstrapDir
// (wiped first: follower state is a cache of the leader's, so a stale or
// torn download is never worth salvaging) and restores a serving pool
// from it, each shard queue holding queue ops. Shared by the initial
// bootstrap and the automatic re-bootstrap after a fatal replication error.
func bootstrapPool(ctx context.Context, client *http.Client, leader, bootstrapDir string, schema *situfact.Schema, queue int) (*situfact.Pool, string, error) {
	if err := os.RemoveAll(bootstrapDir); err != nil {
		return nil, "", fmt.Errorf("clearing %s: %w", bootstrapDir, err)
	}
	if err := os.MkdirAll(bootstrapDir, 0o755); err != nil {
		return nil, "", err
	}
	if err := fetchSnapshot(ctx, client, leader, bootstrapDir); err != nil {
		return nil, "", fmt.Errorf("bootstrap from %s: %w", leader, err)
	}
	pool, _, err := situfact.RestorePool(schema, bootstrapDir)
	if err != nil {
		return nil, "", fmt.Errorf("restoring leader snapshot: %w", err)
	}
	epoch := pool.WALEpoch()
	if epoch == "" {
		pool.Close()
		return nil, "", fmt.Errorf("leader snapshot carries no WAL epoch: the leader must run -wal")
	}
	// The fact index reads are served from was rebuilt during the restore
	// above, and ApplyTail maintains it from here on.
	return pool, epoch, pool.StartPipeline(situfact.PipelineOptions{QueueDepth: queue})
}

// fetchSnapshot downloads the leader's snapshot stream into dir. Each
// file lands via an atomic write; the manifest arrives last, so a
// truncated stream leaves no manifest and the error below fires instead
// of a half-restored pool.
func fetchSnapshot(ctx context.Context, client *http.Client, leader, dir string) error {
	body, err := getOK(ctx, client, leader+"/v1/snapshot")
	if err != nil {
		return err
	}
	defer body.Close()
	br := bufio.NewReader(body)
	magic := make([]byte, len(snapshotStreamMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("reading stream header: %w", err)
	}
	if string(magic) != snapshotStreamMagic {
		return fmt.Errorf("not a snapshot stream (bad magic %q)", magic)
	}
	for {
		nameLen, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading file header: %w", err)
		}
		if nameLen == 0 || nameLen > 4096 {
			return fmt.Errorf("implausible file name length %d", nameLen)
		}
		nameBytes := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBytes); err != nil {
			return fmt.Errorf("reading file name: %w", err)
		}
		name := string(nameBytes)
		// The stream names files, not paths: refuse anything that would
		// escape dir.
		if name != filepath.Base(name) || name == "." || name == ".." {
			return fmt.Errorf("unsafe file name %q in snapshot stream", name)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("reading size of %s: %w", name, err)
		}
		err = persist.WriteFileAtomic(filepath.Join(dir, name), func(w io.Writer) error {
			_, err := io.CopyN(w, br, int64(size))
			return err
		})
		if err != nil {
			return fmt.Errorf("writing %s: %w", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, persist.ManifestName)); err != nil {
		return fmt.Errorf("stream ended without the manifest (truncated download)")
	}
	return nil
}

// getOK GETs url from the leader under ctx and returns the body of a 200;
// any other status is an error quoting the leader's answer.
func getOK(ctx context.Context, client *http.Client, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("leader returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return resp.Body, nil
}

// run is the follower's tail loop: drain the leader's WAL, sleep, repeat,
// until ctx ends. Healthy polls sleep one poll period; transient failures
// back off exponentially (capped and jittered) instead of hammering a
// struggling leader at full poll rate. A fatal error hands off to
// rebootstrap; an exhausted re-bootstrap budget also ends the loop.
func (r *replState) run(ctx context.Context, s *server) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	poll := s.cfg.followPoll
	maxDelay := max(min(32*poll, 30*time.Second), poll)
	delay := poll
	for {
		healthy := r.drain(ctx, s)
		switch {
		case r.fatalReason() != "":
			if !r.rebootstrap(ctx, s, rng) {
				return // budget exhausted or disabled: stay fatal until restarted
			}
			delay = poll
			continue
		case healthy:
			delay = poll
		default:
			delay = min(2*delay, maxDelay)
		}
		if !sleep(ctx, jitter(rng, delay)) {
			return
		}
	}
}

func (r *replState) fatalReason() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fatal
}

// rebootstrap heals a fatal replication error without a restart: it
// re-runs the snapshot bootstrap and swaps the restored pool in under
// live readers (handlers hold the old pool at most for the request that
// loaded it). Up to -follow-rebootstrap-max consecutive download attempts
// are made, backing off between failures; it reports whether replication
// may continue. The old pool is closed once the new one serves: that stops
// its shard writers, which nothing feeds any more, and reads still in
// flight on it keep serving.
func (r *replState) rebootstrap(ctx context.Context, s *server, rng *rand.Rand) bool {
	budget := s.cfg.followRebootstrapMax
	if budget <= 0 {
		return false
	}
	backoff := s.cfg.followPoll
	for attempt := 1; attempt <= budget; attempt++ {
		if ctx.Err() != nil {
			return false
		}
		log.Printf("re-bootstrapping from %s (attempt %d/%d) after: %s",
			r.leader, attempt, budget, r.fatalReason())
		pool, epoch, err := bootstrapPool(ctx, r.client, r.leader, r.bootstrapDir, s.schema, s.cfg.pipeQueue)
		if err == nil {
			s.poolv.Swap(pool).Close()
			// Everything cached predates the new pool.
			if s.cache != nil {
				s.cache.Clear()
			}
			next := pool.TailCursor()
			r.mu.Lock()
			r.epoch = epoch
			r.nextLSN = next
			r.leaderLSN = next - 1
			r.fatal = ""
			r.lastErr = ""
			r.rebootstraps++
			n := r.rebootstraps
			r.mu.Unlock()
			log.Printf("re-bootstrap %d complete: following %s from lsn %d (epoch %s, %d tuples)",
				n, r.leader, next, epoch, pool.Len())
			return true
		}
		log.Printf("re-bootstrap attempt %d/%d failed: %v", attempt, budget, err)
		if attempt == budget {
			break
		}
		if !sleep(ctx, jitter(rng, backoff)) {
			return false
		}
		backoff = min(2*backoff, 30*time.Second)
	}
	log.Printf("re-bootstrap budget (%d) exhausted; replication stays stopped until this follower is restarted", budget)
	return false
}

// drain polls and applies WAL batches until the leader has no more, a
// transient error says back off and retry, a fatal error hands off to
// re-bootstrap, or ctx ends. It reports false exactly when a transient
// error ended the drain — the signal run uses to back its poll delay off.
func (r *replState) drain(ctx context.Context, s *server) bool {
	for ctx.Err() == nil {
		r.mu.Lock()
		if r.fatal != "" {
			r.mu.Unlock()
			return true
		}
		from := r.nextLSN
		r.mu.Unlock()
		pool := s.db()

		resp, err := r.pollTail(ctx, from)
		if err != nil {
			r.mu.Lock()
			r.lastErr = err.Error()
			r.mu.Unlock()
			return false
		}
		if resp.Epoch != r.epoch {
			r.setFatal(fmt.Sprintf("leader wal epoch changed (%s -> %s): this follower's state belongs to the old log", r.epoch, resp.Epoch))
			return true
		}
		if len(resp.Records) > 0 && resp.Records[0].LSN > from {
			// LSNs are dense; a gap means the leader truncated records the
			// follower never saw.
			r.setFatal(fmt.Sprintf("leader truncated wal records %d..%d before they replicated", from, resp.Records[0].LSN-1))
			return true
		}
		if recs := resp.Records; len(recs) > 0 {
			stats, err := pool.ApplyTail(resp.Epoch, recs, nil)
			r.mu.Lock()
			r.applied.Records += stats.Records
			r.applied.Applied += stats.Applied
			r.applied.Skipped += stats.Skipped
			r.applied.Failed += stats.Failed
			r.mu.Unlock()
			if err != nil {
				r.setFatal("applying wal tail: " + err.Error())
				return true
			}
			// Reads must see the advance, so the cache is cleared BEFORE
			// nextLSN advances: once the applied LSN is observable in
			// /v1/metrics, no pre-batch page may serve.
			if s.cache != nil {
				s.cache.Clear()
			}
			r.mu.Lock()
			r.nextLSN = recs[len(recs)-1].LSN + 1
			r.mu.Unlock()
		}
		r.mu.Lock()
		r.leaderLSN = resp.LastLSN
		r.lastPoll = time.Now()
		r.lastErr = ""
		r.mu.Unlock()
		if !resp.More {
			return true
		}
	}
	return true
}

// pollTail fetches one WAL batch from the leader.
func (r *replState) pollTail(ctx context.Context, from uint64) (*walTailResponse, error) {
	body, err := getOK(ctx, r.client, fmt.Sprintf("%s/v1/wal?from_lsn=%d&max=%d", r.leader, from, walTailDefaultMax))
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var tail walTailResponse
	if err := json.NewDecoder(body).Decode(&tail); err != nil {
		return nil, fmt.Errorf("decoding wal tail: %w", err)
	}
	return &tail, nil
}

func (r *replState) setFatal(msg string) {
	r.mu.Lock()
	if r.fatal == "" {
		r.fatal = msg
		log.Printf("replication stopped: %s", msg)
	}
	r.mu.Unlock()
}

// unhealthy returns the reason this follower should not serve reads, or
// "" when it is fine — the /healthz gate.
func (r *replState) unhealthy() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fatal != "" {
		return "replication stopped: " + r.fatal
	}
	if applied := r.nextLSN - 1; r.maxLag > 0 && r.leaderLSN > applied && r.leaderLSN-applied > r.maxLag {
		return fmt.Sprintf("replication lag %d records exceeds -follow-max-lag %d", r.leaderLSN-applied, r.maxLag)
	}
	return ""
}

// wire snapshots the replication state for GET /v1/metrics.
func (r *replState) wire() replicationWire {
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := r.nextLSN - 1
	var lag uint64
	if r.leaderLSN > applied {
		lag = r.leaderLSN - applied
	}
	out := replicationWire{
		Follower:         true,
		Leader:           r.leader,
		Epoch:            r.epoch,
		AppliedLSN:       applied,
		LeaderLSN:        r.leaderLSN,
		LagRecords:       lag,
		MaxLagRecords:    r.maxLag,
		Applied:          r.applied.Applied,
		Skipped:          r.applied.Skipped,
		Failed:           r.applied.Failed,
		SecondsSincePoll: -1,
		LastError:        r.lastErr,
		Fatal:            r.fatal,
		Rebootstraps:     r.rebootstraps,
	}
	if !r.lastPoll.IsZero() {
		out.SecondsSincePoll = time.Since(r.lastPoll).Seconds()
	}
	return out
}
