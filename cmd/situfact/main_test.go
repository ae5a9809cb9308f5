package main

import (
	"bytes"
	"strings"
	"testing"
)

const gamelogCSV = `player,month,season,team,opp_team,points,assists,rebounds,fouls
Bogues,Feb,1991-92,Hornets,Hawks,4,12,5,2
Seikaly,Feb,1991-92,Heat,Hawks,24,5,15,3
Sherman,Dec,1993-94,Celtics,Nets,13,13,5,1
Wesley,Feb,1994-95,Celtics,Nets,2,5,2,4
Wesley,Feb,1994-95,Celtics,Timberwolves,3,5,3,2
Strickland,Jan,1995-96,Blazers,Celtics,27,18,8,5
Wesley,Feb,1995-96,Celtics,Nets,12,13,5,0
`

// base returns the shared flag defaults; tests override fields as needed.
func base() config {
	return config{algo: "sbottomup", top: 3, shards: 1, batch: 64}
}

func TestRunBasic(t *testing.T) {
	var out bytes.Buffer
	cfg := base()
	cfg.dims = "player,month,season,team,opp_team"
	cfg.measures = "points,assists,rebounds"
	if err := run(strings.NewReader(gamelogCSV), &out, cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "tuple 6") {
		t.Errorf("output missing last arrival:\n%s", s)
	}
	if !strings.Contains(s, "195 facts") {
		t.Errorf("output missing t7's 195 facts:\n%s", s)
	}
	if !strings.Contains(s, "# 7 arrivals") {
		t.Errorf("output missing summary:\n%s", s)
	}
}

func TestRunSmallerBetterAndTau(t *testing.T) {
	var out bytes.Buffer
	cfg := base()
	cfg.dims, cfg.measures = "player,team", "points,-fouls"
	cfg.algo, cfg.dhat, cfg.mhat, cfg.tau, cfg.top = "bottomup", 2, 2, 2.0, 1
	if err := run(strings.NewReader(gamelogCSV), &out, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "PROMINENT") {
		t.Errorf("τ-filtered run printed no prominent facts:\n%s", out.String())
	}
}

func TestRunQuiet(t *testing.T) {
	var out bytes.Buffer
	cfg := base()
	cfg.dims, cfg.measures = "player,team", "points"
	cfg.algo, cfg.quiet = "stopdown", true
	if err := run(strings.NewReader(gamelogCSV), &out, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "#") {
		t.Errorf("quiet mode printed rows:\n%s", out.String())
	}
}

func TestRunBaselineDisablesProminence(t *testing.T) {
	var out bytes.Buffer
	cfg := base()
	cfg.dims, cfg.measures = "player,team", "points,assists"
	cfg.algo, cfg.top = "baselineseq", 2
	if err := run(strings.NewReader(gamelogCSV), &out, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BaselineSeq") {
		t.Errorf("summary missing algorithm name:\n%s", out.String())
	}
}

func TestRunSharded(t *testing.T) {
	// The sharded front-end must see all rows and report per-shard tuples.
	for _, batch := range []int{1, 3, 64} {
		var out bytes.Buffer
		cfg := base()
		cfg.dims = "player,month,season,team,opp_team"
		cfg.measures = "points,assists,rebounds"
		cfg.shards, cfg.shardDim, cfg.batch = 3, "team", batch
		if err := run(strings.NewReader(gamelogCSV), &out, cfg); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		if !strings.Contains(s, "# 7 arrivals") {
			t.Errorf("batch=%d: summary missing arrivals:\n%s", batch, s)
		}
		if !strings.Contains(s, "3 shards") {
			t.Errorf("batch=%d: summary missing shard count:\n%s", batch, s)
		}
		if !strings.Contains(s, "shard ") {
			t.Errorf("batch=%d: no per-shard arrival lines:\n%s", batch, s)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	mk := func(dims, measures, algo string) config {
		cfg := base()
		cfg.dims, cfg.measures, cfg.algo = dims, measures, algo
		return cfg
	}
	if err := run(strings.NewReader(gamelogCSV), &out, mk("nope", "points", "sbottomup")); err == nil {
		t.Error("unknown dimension column accepted")
	}
	if err := run(strings.NewReader(gamelogCSV), &out, mk("player", "nope", "sbottomup")); err == nil {
		t.Error("unknown measure column accepted")
	}
	if err := run(strings.NewReader(gamelogCSV), &out, mk("player", "points", "bogus-algo")); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(strings.NewReader("a,b\nx,notanumber\n"), &out, mk("a", "b", "sbottomup")); err == nil {
		t.Error("non-numeric measure accepted")
	}
	if err := run(strings.NewReader(""), &out, mk("a", "b", "sbottomup")); err == nil {
		t.Error("empty input accepted")
	}
	// Sharded-mode errors surface too: unknown shard dimension and unknown
	// algorithm inside the pool.
	cfg := mk("player,team", "points", "sbottomup")
	cfg.shards, cfg.shardDim = 2, "nope"
	if err := run(strings.NewReader(gamelogCSV), &out, cfg); err == nil {
		t.Error("unknown shard dimension accepted")
	}
	cfg = mk("player,team", "points", "bogus-algo")
	cfg.shards = 2
	if err := run(strings.NewReader(gamelogCSV), &out, cfg); err == nil {
		t.Error("unknown algorithm accepted in sharded mode")
	}
	// A pool runs the BottomUp family only, and says so before it reads a
	// byte of input.
	cfg = mk("player,team", "points", "topdown")
	cfg.shards = 2
	in := strings.NewReader(gamelogCSV)
	if err := run(in, &out, cfg); err == nil || !strings.Contains(err.Error(), "Invariant 1") ||
		!strings.Contains(err.Error(), "topdown") || in.Len() != len(gamelogCSV) {
		t.Errorf("-shards 2 -algo topdown: error %v after reading %d bytes", err, len(gamelogCSV)-in.Len())
	}
}
