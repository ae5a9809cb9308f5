package main

// The validated config surface: every run parameter is a flag, every
// flag can also come from a JSON -config file, and the merged result is
// checked as a whole before the daemon touches any state. Flags given on
// the command line override the file (operator intent at invocation time
// beats the checked-in baseline); unknown file keys, malformed values,
// out-of-range settings and contradictory combinations are all fatal at
// startup — a daemon that silently ignored half its configuration would
// be worse than one that refused to start.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// registerFlags declares every situfactd flag on fs, filling cfg. main
// uses it with flag.CommandLine; config tests build private FlagSets so
// they can exercise parsing and file merging without touching globals.
func registerFlags(fs *flag.FlagSet, cfg *config) {
	fs.StringVar(&cfg.configPath, "config", "", "JSON config file mapping flag names to values; flags given on the command line override it, unknown keys are fatal")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.relation, "relation", "stream", "relation name (part of the schema signature snapshots validate)")
	fs.StringVar(&cfg.dims, "dims", "", "comma-separated dimension attribute names (required)")
	fs.StringVar(&cfg.measures, "measures", "", "comma-separated measure attribute names; '-' prefix = smaller-is-better (required)")
	fs.StringVar(&cfg.algo, "algo", "sbottomup", "algorithm: sbottomup|bottomup (reads are served from the stored cells, which are the contextual skylines only under BottomUp's Invariant 1; any other is refused)")
	fs.IntVar(&cfg.dhat, "dhat", 0, "max bound dimension attributes (0 = no cap)")
	fs.IntVar(&cfg.mhat, "mhat", 0, "max measure subspace size (0 = no cap)")
	fs.IntVar(&cfg.shards, "shards", 0, "pool shard count (0 = GOMAXPROCS)")
	fs.StringVar(&cfg.shardDim, "shard-dim", "", "dimension attribute whose value routes a row to its shard (default: first of -dims)")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "snapshot directory: restore on start, save on graceful shutdown (empty = no persistence)")
	fs.BoolVar(&cfg.wal, "wal", false, "write-ahead log under <state-dir>/wal: journal every ingest before applying it, replay the tail on start (requires -state-dir)")
	fs.Int64Var(&cfg.walSegBytes, "wal-segment-bytes", 0, "WAL segment size in bytes: a segment is sealed at the first group commit past it (0 = 64 MiB)")
	fs.DurationVar(&cfg.snapInterval, "snapshot-interval", 0, "background checkpoint period: snapshot every shard and truncate covered WAL segments (0 = snapshot only on graceful shutdown)")
	fs.IntVar(&cfg.pipeQueue, "pipeline-queue", 0, "per-shard ingest queue capacity; a full queue blocks producers (0 = 256)")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this extra listener (e.g. localhost:6060); empty = off. Keep it on a loopback or firewalled port")
	fs.StringVar(&cfg.follow, "follow", "", "run as a read-only follower of this leader base URL (e.g. http://leader:8080): bootstrap from its snapshot, replay its WAL tail; requires -state-dir as bootstrap scratch")
	fs.DurationVar(&cfg.followPoll, "follow-poll", 500*time.Millisecond, "follower WAL-tail poll period, > 0 (transient errors back the poll off exponentially from here)")
	fs.Uint64Var(&cfg.followMaxLag, "follow-max-lag", 0, "replication lag in records beyond which the follower's /healthz degrades to 503 (0 = no bound)")
	fs.IntVar(&cfg.followRebootstrapMax, "follow-rebootstrap-max", 5, "consecutive snapshot re-bootstrap attempts a follower makes after a fatal replication error (leader WAL epoch change, truncated tail) before giving up; 0 disables self-healing")
	fs.DurationVar(&cfg.readCacheTTL, "read-cache-ttl", 0, "front /v1/facts and /v1/facts/top with a TTL'd singleflight cache; staleness is bounded by the TTL on a leader and by replication progress on a follower (0 = off)")
	fs.StringVar(&cfg.faultPlan, "fault-plan", "", "TESTING ONLY: inject WAL I/O faults per this plan (see internal/faultfs; e.g. 'fsync:from=3;clear-after=2s'); requires -wal")
	fs.BoolVar(&cfg.walVerifyMode, "wal-verify", false, "offline fsck: scan <state-dir>/wal segment by segment (framing, CRCs, LSN density), print a report, and exit — non-zero on corruption; the log is opened read-only and never modified")

	// Overload protection & request lifecycle.
	fs.BoolVar(&cfg.logRequests, "log-requests", false, "log one structured line per request: method, path, status, bytes, duration, client, admission verdict")
	fs.Float64Var(&cfg.rateLimit, "rate-limit", 0, "per-client request rate in req/s (token bucket keyed by auth token, else remote IP); over-rate requests get 429 + Retry-After (0 = off)")
	fs.IntVar(&cfg.rateBurst, "rate-burst", 0, "token-bucket burst size per client (0 = 2×rate); requires -rate-limit")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 0, "bound on concurrently served requests; excess requests get 503 + Retry-After instead of queueing inside the daemon (0 = off)")
	fs.DurationVar(&cfg.shedWindow, "shed-window", 2*time.Second, "shed new writes with 503 + Retry-After after the ingest pipeline has been saturated (producers blocked on full queues) this long; reads keep serving; one calm sample re-admits writes (0 = never shed)")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", 0, "per-request context deadline: queries stop scanning and parked writes give up their queue slot when it expires, answering 503 + Retry-After (0 = none)")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 2*time.Minute, "http.Server.ReadTimeout: the whole request, header + body, must arrive within this (also caps the 10s header timeout when set lower; 0 = none)")
	fs.DurationVar(&cfg.writeTimeout, "write-timeout", 0, "http.Server.WriteTimeout: the whole response must be written within this; 0 = none, which /v1/snapshot bootstrap streams of arbitrary size rely on")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "http.Server.IdleTimeout: keep-alive connections idle this long are closed (0 = ReadTimeout governs)")
	fs.Int64Var(&cfg.maxBody, "max-body-bytes", 1<<20, "POST /v1/tuples request body cap in bytes; larger bodies get 413")
	fs.Int64Var(&cfg.maxBatchBody, "max-batch-body-bytes", 32<<20, "POST /v1/tuples:batch request body cap in bytes; larger bodies get 413")
}

// applyConfigFile merges the JSON object at path into fs: every key
// names a flag, every value is converted to the flag's text form and
// applied through fs.Set — so file values pass exactly the same parsing
// and the same validation as command-line flags. Flags the command line
// already set are left alone. Call after fs.Parse.
func applyConfigFile(fs *flag.FlagSet, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // keep numbers textual: 0.5, 42 and 1e6 all round-trip
	var raw map[string]any
	if err := decodeOne(dec, &raw); err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	fromCLI := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { fromCLI[f.Name] = true })
	// Deterministic application (and error) order.
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k == "config" {
			return fmt.Errorf("config %s: a config file cannot nest another via %q", path, k)
		}
		f := fs.Lookup(k)
		if f == nil {
			return fmt.Errorf("config %s: unknown key %q (keys are flag names, e.g. \"shards\")", path, k)
		}
		if fromCLI[k] {
			continue // explicit flag wins over the file
		}
		val, err := flagValueString(raw[k])
		if err != nil {
			return fmt.Errorf("config %s: key %q: %w", path, k, err)
		}
		if err := fs.Set(k, val); err != nil {
			return fmt.Errorf("config %s: key %q: %w", path, k, err)
		}
	}
	return nil
}

// flagValueString renders one JSON config value as the text a flag
// parser accepts. Only scalars make sense — a flag has no list or
// object form.
func flagValueString(v any) (string, error) {
	switch t := v.(type) {
	case string:
		return t, nil
	case bool:
		return strconv.FormatBool(t), nil
	case json.Number:
		return t.String(), nil
	default:
		return "", fmt.Errorf("unsupported value %v (want a string, number, or bool)", v)
	}
}

// validate checks the merged configuration as a whole: ranges first,
// then combinations that contradict each other. It runs before any
// state is touched, so a bad config can never half-start the daemon. It
// is the one home of every flag contradiction; requirements with richer
// context (snapshot/flag mismatches, WAL leftovers) stay in newServer
// where that context lives. Defaults live in registerFlags alone: the
// daemon does not re-default a value validate let through.
func (cfg *config) validate() error {
	// Ranges.
	for _, c := range []struct {
		name string
		v    int
	}{
		{"-dhat", cfg.dhat}, {"-mhat", cfg.mhat},
		{"-shards", cfg.shards}, {"-pipeline-queue", cfg.pipeQueue},
		{"-follow-rebootstrap-max", cfg.followRebootstrapMax},
		{"-rate-burst", cfg.rateBurst}, {"-max-inflight", cfg.maxInflight},
	} {
		if c.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", c.name, c.v)
		}
	}
	for _, c := range []struct {
		name string
		v    time.Duration
	}{
		{"-snapshot-interval", cfg.snapInterval}, {"-read-cache-ttl", cfg.readCacheTTL},
		{"-shed-window", cfg.shedWindow}, {"-request-timeout", cfg.requestTimeout},
		{"-read-timeout", cfg.readTimeout}, {"-write-timeout", cfg.writeTimeout},
		{"-idle-timeout", cfg.idleTimeout},
	} {
		if c.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %v", c.name, c.v)
		}
	}
	if cfg.followPoll <= 0 {
		return fmt.Errorf("-follow-poll must be > 0, got %v", cfg.followPoll)
	}
	if cfg.rateLimit < 0 {
		return fmt.Errorf("-rate-limit must be >= 0, got %v", cfg.rateLimit)
	}
	if cfg.walSegBytes < 0 {
		return fmt.Errorf("-wal-segment-bytes must be >= 0, got %d", cfg.walSegBytes)
	}
	if cfg.maxBody <= 0 {
		return fmt.Errorf("-max-body-bytes must be > 0, got %d", cfg.maxBody)
	}
	if cfg.maxBatchBody < cfg.maxBody {
		return fmt.Errorf("-max-batch-body-bytes (%d) must be >= -max-body-bytes (%d): a batch of one row must fit", cfg.maxBatchBody, cfg.maxBody)
	}

	// Contradictions.
	if cfg.wal && cfg.stateDir == "" {
		return fmt.Errorf("-wal requires -state-dir (the log lives at <state-dir>/wal)")
	}
	if cfg.follow != "" && cfg.wal {
		return fmt.Errorf("-wal conflicts with -follow: a follower replays the leader's log, it does not journal its own")
	}
	if cfg.follow != "" && cfg.stateDir == "" {
		return fmt.Errorf("-follow requires -state-dir (scratch space for the snapshot bootstrap)")
	}
	if cfg.faultPlan != "" && !cfg.wal {
		return fmt.Errorf("-fault-plan covers the write-ahead log and needs -wal")
	}
	if cfg.walVerifyMode && cfg.stateDir == "" {
		return fmt.Errorf("-wal-verify requires -state-dir (the log lives at <state-dir>/wal)")
	}
	if cfg.rateBurst > 0 && cfg.rateLimit <= 0 {
		return fmt.Errorf("-rate-burst %d without -rate-limit: a burst is meaningless with no rate", cfg.rateBurst)
	}
	return nil
}
