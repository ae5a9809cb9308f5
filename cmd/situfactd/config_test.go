package main

import (
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// flagConfig is the config a situfactd command line makes of args: every
// in-process daemon a test builds starts from the flag defaults, so it
// runs what a deployment runs unless the test says otherwise.
func flagConfig(args ...string) config {
	var cfg config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	registerFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		panic(err)
	}
	return cfg
}

// validConfig is a minimal configuration that must pass validate: the
// flag defaults plus the two required schema fields. Every table case
// below starts here and breaks exactly one thing.
func validConfig() config {
	return flagConfig("-dims", "player,team", "-measures", "points,-fouls")
}

// TestConfigDefaultsAreValid pins that a bare `situfactd -dims ...
// -measures ...` invocation passes validation — the defaults must never
// contradict each other.
func TestConfigDefaultsAreValid(t *testing.T) {
	cfg := validConfig()
	if err := cfg.validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestConfigValidateTable drives validate through every rejection class:
// each case mutates one field of a valid config and names the substring
// the error must carry.
func TestConfigValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*config)
		wantErr string // "" = must stay valid
	}{
		{"negative shards", func(c *config) { c.shards = -1 }, "-shards"},
		{"negative dhat", func(c *config) { c.dhat = -2 }, "-dhat"},
		{"negative queue", func(c *config) { c.pipeQueue = -1 }, "-pipeline-queue"},
		{"negative rate burst", func(c *config) { c.rateBurst = -3 }, "-rate-burst"},
		{"negative max inflight", func(c *config) { c.maxInflight = -1 }, "-max-inflight"},
		{"negative rate limit", func(c *config) { c.rateLimit = -0.5 }, "-rate-limit"},
		{"negative snapshot interval", func(c *config) { c.snapInterval = -time.Second }, "-snapshot-interval"},
		{"negative shed window", func(c *config) { c.shedWindow = -time.Second }, "-shed-window"},
		{"negative request timeout", func(c *config) { c.requestTimeout = -1 }, "-request-timeout"},
		{"negative read timeout", func(c *config) { c.readTimeout = -1 }, "-read-timeout"},
		{"negative segment bytes", func(c *config) { c.walSegBytes = -1 }, "-wal-segment-bytes"},
		{"zero follow poll", func(c *config) { c.followPoll = 0 }, "-follow-poll must be > 0"},
		{"zero body cap", func(c *config) { c.maxBody = 0 }, "-max-body-bytes"},
		{"batch cap below body cap", func(c *config) { c.maxBatchBody = c.maxBody - 1 }, "must be >= -max-body-bytes"},
		{"wal without state dir", func(c *config) { c.wal = true }, "-wal requires -state-dir"},
		{"follow with wal", func(c *config) {
			c.stateDir = "/tmp/x"
			c.wal = true
			c.follow = "http://leader:8080"
		}, "-wal conflicts with -follow"},
		{"follow without state dir", func(c *config) { c.follow = "http://leader:8080" }, "-follow requires -state-dir"},
		{"fault plan without wal", func(c *config) { c.faultPlan = "fsync:from=1" }, "-fault-plan"},
		{"wal verify without state dir", func(c *config) { c.walVerifyMode = true }, "-wal-verify requires -state-dir"},
		{"burst without rate", func(c *config) { c.rateBurst = 10 }, "-rate-burst"},

		// Valid combinations that must NOT be rejected.
		{"wal with state dir", func(c *config) { c.stateDir = "/tmp/x"; c.wal = true }, ""},
		{"follower", func(c *config) { c.stateDir = "/tmp/x"; c.follow = "http://leader:8080" }, ""},
		{"rate limit with burst", func(c *config) { c.rateLimit = 50; c.rateBurst = 100 }, ""},
		{"admission stack", func(c *config) {
			c.rateLimit = 10
			c.maxInflight = 64
			c.requestTimeout = time.Second
		}, ""},
		{"shedding off", func(c *config) { c.shedWindow = 0 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			err := cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// parseWithFile registers a fresh flag set, parses args, then merges the
// config file — exactly main's sequence.
func parseWithFile(t *testing.T, fileJSON string, args ...string) (config, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "situfactd.json")
	if err := os.WriteFile(path, []byte(fileJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var cfg config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	registerFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg, applyConfigFile(fs, path)
}

// TestConfigFileMerge pins the precedence contract: the file fills flags
// the command line left at their defaults, and the command line wins
// where both speak.
func TestConfigFileMerge(t *testing.T) {
	cfg, err := parseWithFile(t,
		`{"dims": "player,team", "measures": "points", "shards": 6,
		  "rate-limit": 12.5, "snapshot-interval": "250ms",
		  "max-inflight": 4}`,
		"-shards", "3", "-max-inflight", "128")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.dims != "player,team" || cfg.measures != "points" {
		t.Fatalf("file-only keys not applied: dims=%q measures=%q", cfg.dims, cfg.measures)
	}
	if cfg.shards != 3 {
		t.Fatalf("shards = %d: the -shards 3 flag must override the file's 6", cfg.shards)
	}
	if cfg.maxInflight != 128 {
		t.Fatalf("maxInflight = %d: the flag must override the file's 4", cfg.maxInflight)
	}
	if cfg.rateLimit != 12.5 {
		t.Fatalf("rateLimit = %v, want 12.5 from the file", cfg.rateLimit)
	}
	if cfg.snapInterval != 250*time.Millisecond {
		t.Fatalf("snapInterval = %v, want 250ms from the file", cfg.snapInterval)
	}
	if err := cfg.validate(); err != nil {
		t.Fatalf("merged config invalid: %v", err)
	}
}

// TestConfigFileRejects drives every file-level failure: unknown keys,
// values of the wrong shape, nesting, and trailing garbage — all fatal,
// never silently ignored.
func TestConfigFileRejects(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string
	}{
		{"unknown key", `{"shardz": 4}`, `unknown key "shardz"`},
		{"misspelled key", `{"rate_limit": 5}`, `unknown key "rate_limit"`},
		{"bad duration", `{"snapshot-interval": "fast"}`, `"snapshot-interval"`},
		{"bad number", `{"shards": "many"}`, `"shards"`},
		{"list value", `{"dims": ["a", "b"]}`, "unsupported value"},
		{"object value", `{"shards": {"n": 4}}`, "unsupported value"},
		{"null value", `{"shards": null}`, "unsupported value"},
		{"nested config", `{"config": "other.json"}`, "cannot nest"},
		{"trailing garbage", `{"shards": 4} {"shards": 5}`, "trailing data"},
		{"stray brace", `{"shards": 4}}`, "trailing data"},
		{"stray bracket", `{"shards": 4}]`, "trailing data"},
		{"not an object", `[1, 2, 3]`, "cannot unmarshal"},
		// Flags that no longer exist are unknown keys like any other.
		{"removed pipeline switch", `{"pipeline": false}`, `unknown key "pipeline"`},
		{"removed fact-index switch", `{"fact-index": false}`, `unknown key "fact-index"`},
		{"removed shard-workers", `{"shard-workers": 2}`, `unknown key "shard-workers"`},
		{"removed workers", `{"workers": 2}`, `unknown key "workers"`},
		{"removed topk", `{"topk": 64}`, `unknown key "topk"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseWithFile(t, tc.json)
			if err == nil {
				t.Fatalf("applyConfigFile accepted %s, want error containing %q", tc.json, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
	// A removed flag is as unknown on the command line as in the file.
	for _, name := range []string{"pipeline", "fact-index", "shard-workers", "workers", "topk"} {
		var cfg config
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, &cfg)
		if err := fs.Parse([]string{"-" + name + "=1"}); err == nil {
			t.Errorf("removed flag -%s still parses", name)
		}
	}
}

// TestConfigFileMissing: a -config path that does not exist is fatal.
func TestConfigFileMissing(t *testing.T) {
	var cfg config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	registerFlags(fs, &cfg)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := applyConfigFile(fs, filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("applyConfigFile succeeded on a missing file")
	}
}

// TestConfigValidateProperty is the property-based sweep: any config
// drawn from the valid ranges must validate, and corrupting exactly one
// field with a known-bad value must always be caught. A fixed seed keeps
// failures reproducible.
func TestConfigValidateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfac7))
	dur := func(maxMS int) time.Duration { return time.Duration(rng.Intn(maxMS)) * time.Millisecond }
	genValid := func() config {
		cfg := validConfig()
		cfg.shards = rng.Intn(64)
		cfg.dhat = rng.Intn(8)
		cfg.mhat = rng.Intn(8)
		cfg.pipeQueue = rng.Intn(4096)
		cfg.snapInterval = dur(60000)
		cfg.readCacheTTL = dur(5000)
		cfg.shedWindow = dur(10000)
		cfg.requestTimeout = dur(30000)
		cfg.readTimeout = dur(120000)
		cfg.writeTimeout = dur(120000)
		cfg.idleTimeout = dur(120000)
		cfg.maxInflight = rng.Intn(10000)
		cfg.rateLimit = float64(rng.Intn(1000))
		if cfg.rateLimit > 0 {
			cfg.rateBurst = rng.Intn(1000)
		}
		cfg.maxBody = 1 + rng.Int63n(1<<26)
		cfg.maxBatchBody = cfg.maxBody + rng.Int63n(1<<28)
		if rng.Intn(2) == 0 {
			cfg.stateDir = "/tmp/situfactd-prop"
			cfg.wal = rng.Intn(2) == 0
		}
		return cfg
	}
	corruptions := []func(*config){
		func(c *config) { c.shards = -1 - rng.Intn(100) },
		func(c *config) { c.pipeQueue = -1 - rng.Intn(100) },
		func(c *config) { c.rateLimit = -float64(1 + rng.Intn(100)) },
		func(c *config) { c.shedWindow = -dur(5000) - time.Millisecond },
		func(c *config) { c.requestTimeout = -dur(5000) - time.Millisecond },
		func(c *config) { c.followPoll = -dur(5000) },
		func(c *config) { c.maxBody = -c.maxBody },
		func(c *config) { c.maxBatchBody = c.maxBody - 1 - rng.Int63n(1000) },
		func(c *config) { c.rateLimit = 0; c.rateBurst = 1 + rng.Intn(100) },
		func(c *config) { c.stateDir = ""; c.wal = true },
		func(c *config) { c.follow = "http://leader"; c.stateDir = "" },
	}
	for i := 0; i < 500; i++ {
		cfg := genValid()
		if err := cfg.validate(); err != nil {
			t.Fatalf("iteration %d: generated-valid config rejected: %v\n%+v", i, err, cfg)
		}
		bad := cfg
		corruptions[rng.Intn(len(corruptions))](&bad)
		if err := bad.validate(); err == nil {
			t.Fatalf("iteration %d: corrupted config accepted:\n%+v", i, bad)
		}
	}
}
