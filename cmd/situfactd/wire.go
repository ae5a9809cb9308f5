package main

import situfact "repro"

// Wire types of the situfactd JSON API, documented in docs/API.md. Field
// names are the contract; keep them in sync with the curl examples there.
// A library value goes out as itself: its JSON names live on the library
// type (situfact.Fact, Metrics, IngestSummary, …), and a wire type here
// only adds what the wire carries beside it. TestWireGolden pins the bytes.

// tupleRequest is the body of POST /v1/tuples: one arriving row, in schema
// order, plus response shaping.
type tupleRequest struct {
	situfact.Row
	// Top caps the facts returned (0 = all facts of the arrival; negative
	// is refused). Only the facts returned are sorted and decoded.
	Top int `json:"top,omitempty"`
	// Narrate, when present, adds a newsroom-style sentence to each
	// returned fact, speaking about Subject (e.g. a player name).
	Narrate *narrateRequest `json:"narrate,omitempty"`
}

type narrateRequest struct {
	Subject string `json:"subject"`
}

// batchRequest is the body of POST /v1/tuples:batch.
type batchRequest struct {
	Rows []situfact.Row `json:"rows"`
	// Top caps the facts returned per arrival (0 = counts only, the
	// default for batches — a batch can surface thousands of facts;
	// negative is refused).
	Top int `json:"top,omitempty"`
}

// factWire is one discovered situational fact.
type factWire struct {
	situfact.Fact
	// Text is the paper-notation rendering (Fact.String).
	Text string `json:"text"`
	// Narration is the newsroom sentence; only set when requested.
	Narration string `json:"narration,omitempty"`
}

// arrivalResponse reports the outcome of one appended row. FactCount counts
// every fact of the arrival; Facts carries the request's top of them.
type arrivalResponse struct {
	// ID is "<shard>:<tuple_id>", the handle DELETE /v1/tuples/{id} takes.
	ID        string     `json:"id"`
	Shard     int        `json:"shard"`
	TupleID   int64      `json:"tuple_id"`
	FactCount int        `json:"fact_count"`
	Facts     []factWire `json:"facts,omitempty"`
}

// batchResponse is the body of a POST /v1/tuples:batch response; arrival i
// belongs to row i. On a mid-batch engine failure (HTTP 500) Error is set
// and the arrivals that did commit are still present, with the failed
// shard's unprocessed rows null — Pool.AppendBatch's partial-result
// contract, passed through so clients can reconcile instead of
// blind-retrying committed rows.
type batchResponse struct {
	Arrivals []*arrivalResponse `json:"arrivals"`
	Error    string             `json:"error,omitempty"`
}

// measureWire describes one measure attribute of GET /v1/schema.
type measureWire struct {
	Name      string `json:"name"`
	Direction string `json:"direction"` // "larger-better" | "smaller-better"
}

// schemaResponse is the body of GET /v1/schema.
type schemaResponse struct {
	Relation   string        `json:"relation"`
	Dimensions []string      `json:"dimensions"`
	Measures   []measureWire `json:"measures"`
	ShardDim   string        `json:"shard_dim"`
	Shards     int           `json:"shards"`
	Algorithm  string        `json:"algorithm"`
}

// walWire is the write-ahead-log block of GET /v1/metrics.
type walWire struct {
	// Enabled reports whether the daemon journals to a WAL (-wal).
	Enabled bool `json:"enabled"`
	// LastLSN is the highest journaled record; SyncedLSN the highest one
	// fsynced. LagRecords = LastLSN − SyncedLSN is the number of records
	// buffered but not yet synced — none of them acknowledged yet.
	LastLSN    uint64 `json:"last_lsn"`
	SyncedLSN  uint64 `json:"synced_lsn"`
	LagRecords uint64 `json:"lag_records"`
	// Syncs counts the fsyncs that advanced SyncedLSN since the log was
	// opened: Δsynced_lsn / Δsyncs is the records per group commit.
	Syncs uint64 `json:"syncs"`
	// Segments is the live log segment count; checkpoints truncate it.
	Segments int `json:"segments"`
	// Degraded reports a sticky log failure: writes are refused with 503
	// until the background repair loop heals the log. DegradedReason is
	// the failure; Repairs counts successful heals since start.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Repairs        uint64 `json:"repairs"`
}

// snapshotWire is the checkpoint block of GET /v1/metrics.
type snapshotWire struct {
	// Enabled reports whether the daemon persists snapshots (-state-dir).
	Enabled bool `json:"enabled"`
	// Generation numbers the last checkpoint this process committed.
	Generation uint64 `json:"generation,omitempty"`
	// SecondsSinceLast is the age of that checkpoint; -1 before the first
	// one (a restored-at-boot snapshot predates this process).
	SecondsSinceLast float64 `json:"seconds_since_last"`
	// LastBytes, LastMS and LastHoldMS describe that checkpoint: the size
	// of its shard files, how long it took from the first shard to the
	// manifest, and the longest it held any one shard's lock — the most it
	// can have delayed an append.
	LastBytes  int64   `json:"last_bytes,omitempty"`
	LastMS     float64 `json:"last_ms,omitempty"`
	LastHoldMS float64 `json:"last_hold_ms,omitempty"`
}

// replicationWire is the follower block of GET /v1/metrics (absent on a
// leader).
type replicationWire struct {
	Follower bool   `json:"follower"`
	Leader   string `json:"leader"`
	// Epoch is the leader WAL instance the follower is pinned to.
	Epoch string `json:"epoch"`
	// AppliedLSN is the highest leader record applied locally; LeaderLSN
	// the leader's highest assigned LSN at the last poll. LagRecords is
	// their difference — /healthz degrades when it exceeds MaxLagRecords.
	AppliedLSN    uint64 `json:"applied_lsn"`
	LeaderLSN     uint64 `json:"leader_lsn"`
	LagRecords    uint64 `json:"lag_records"`
	MaxLagRecords uint64 `json:"max_lag_records"`
	// Applied / Skipped / Failed accumulate ApplyTail's per-record
	// outcomes since bootstrap (Failed counts deterministic re-failures,
	// exactly as WAL replay does).
	Applied          int     `json:"applied"`
	Skipped          int     `json:"skipped"`
	Failed           int     `json:"failed"`
	SecondsSincePoll float64 `json:"seconds_since_poll"`
	// LastError is the most recent transient poll failure (cleared by a
	// successful poll); Fatal a terminal one (epoch mismatch, truncated
	// tail) that stops replication until the operator re-bootstraps.
	LastError string `json:"last_error,omitempty"`
	Fatal     string `json:"fatal,omitempty"`
	// Rebootstraps counts automatic snapshot re-bootstraps after fatal
	// errors (-follow-rebootstrap-max bounds consecutive attempts).
	Rebootstraps int `json:"rebootstraps"`
}

// readCacheWire is the read-cache block of GET /v1/metrics.
type readCacheWire struct {
	// Enabled reports whether the TTL'd singleflight cache fronts
	// /v1/facts and /v1/facts/top (-read-cache-ttl).
	Enabled    bool    `json:"enabled"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// Hits counts requests served from a fresh entry (shared-fill waiters
	// included); Misses counts fills run against the pool.
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	// OldestAgeSeconds is the age of the oldest cached response.
	OldestAgeSeconds float64 `json:"oldest_age_seconds"`
}

// overloadWire is the admission-control block of GET /v1/metrics.
type overloadWire struct {
	// Shed counts requests rejected 503 by admission control: the
	// in-flight gate plus backpressure write shedding. Degraded-mode WAL
	// rejections are the WAL block's concern, not counted here.
	Shed uint64 `json:"shed"`
	// Limited counts requests rejected 429 by the per-client token
	// bucket (-rate-limit).
	Limited uint64 `json:"limited"`
	// Inflight is the current concurrent-request count and InflightPeak
	// its high-water mark; MaxInflight the -max-inflight bound (0 = the
	// gate is off and both counters stay 0).
	Inflight     int64 `json:"inflight"`
	InflightPeak int64 `json:"inflight_peak"`
	MaxInflight  int64 `json:"max_inflight"`
	// RateLimit echoes -rate-limit (req/s per client; 0 = off) and
	// Clients is the number of per-client buckets currently tracked.
	RateLimit float64 `json:"rate_limit"`
	Clients   int     `json:"clients"`
	// Shedding reports whether write shedding is active right now
	// (sustained pipeline backpressure for longer than -shed-window).
	Shedding bool `json:"shedding"`
	// Panics counts handler panics recovered into single-request 500s.
	Panics uint64 `json:"panics"`
}

// metricsResponse is the body of GET /v1/metrics.
type metricsResponse struct {
	Algorithm     string                 `json:"algorithm"`
	ShardDim      string                 `json:"shard_dim"`
	Shards        int                    `json:"shards"`
	Len           int                    `json:"len"`
	UptimeSeconds float64                `json:"uptime_seconds"`
	Merged        situfact.Metrics       `json:"merged"`
	PerShard      []situfact.ShardStat   `json:"per_shard"`
	WAL           walWire                `json:"wal"`
	Ingest        situfact.IngestSummary `json:"ingest"`
	Snapshot      snapshotWire           `json:"snapshot"`
	Replication   *replicationWire       `json:"replication,omitempty"`
	ReadCache     readCacheWire          `json:"read_cache"`
	Overload      overloadWire           `json:"overload"`
	Index         situfact.IndexStat     `json:"index"`
}

// topFactsResponse is the body of GET /v1/facts/top: the k
// highest-prominence fact groups of the current fact set, best first. They
// are live µ-store cells, hence queryFactWire: the ranking is computed
// from current state, not remembered from arrivals.
type topFactsResponse struct {
	Facts []queryFactWire `json:"facts"`
}

// queryFactWire is one fact of GET /v1/facts. Unlike factWire (an
// arrival's view) it names the owning shard and the skyline's tuple ids,
// because a query spans shards and pages are resumable.
type queryFactWire struct {
	situfact.QueryFact
	// Text is the paper-notation rendering (QueryFact.String).
	Text string `json:"text"`
}

// factsResponse is the body of GET /v1/facts. NextCursor, when non-empty,
// resumes the listing exactly after the last returned fact.
type factsResponse struct {
	Facts      []queryFactWire `json:"facts"`
	NextCursor string          `json:"next_cursor,omitempty"`
}

// tupleResponse is the body of GET /v1/tuples/{id}.
type tupleResponse struct {
	// ID is "<shard>:<tuple_id>", as an arrival names it.
	ID string `json:"id"`
	situfact.TupleInfo
}

// walTailResponse is the body of GET /v1/wal: a batch of journaled
// records with LSN >= from_lsn, each in situfact.TailRecord's JSON form
// (op "noop" is an LSN an earlier build's repair burned). Records are
// dense — a first record past the requested from_lsn means the tail was
// truncated away and the follower must re-bootstrap from a snapshot. More reports records
// remaining past the batch; LastLSN is the log's highest assigned LSN.
type walTailResponse struct {
	Epoch   string                `json:"epoch"`
	LastLSN uint64                `json:"last_lsn"`
	Records []situfact.TailRecord `json:"records"`
	More    bool                  `json:"more"`
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	Status string `json:"status"`
	Tuples int    `json:"tuples"`
	// Reason explains a non-ok status (follower lag or a fatal
	// replication error).
	Reason string `json:"reason,omitempty"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}
