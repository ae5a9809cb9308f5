// Command situfactd serves situational-fact discovery over HTTP — the
// paper's online setting as a long-running daemon: tuples are POSTed as
// they occur in the real world, and the response carries the facts the
// arrival just made true. A situfact.Pool shards the stream across engines
// by one dimension attribute; the daemon adds the wire format, a
// prominence leaderboard, and snapshot-based persistence.
//
// Usage:
//
//	situfactd -dims player,team,opp_team -measures points,rebounds,-fouls \
//	          [-addr :8080] [-algo sbottomup] [-shards 4] [-shard-dim team] \
//	          [-dhat 0] [-mhat 0] [-state-dir /var/lib/situfactd] \
//	          [-wal] [-wal-segment-bytes 0] \
//	          [-snapshot-interval 0s] [-relation stream] \
//	          [-pipeline-queue 0] [-read-cache-ttl 0s] \
//	          [-follow http://leader:8080] [-follow-poll 500ms] [-follow-max-lag 0]
//
// Endpoints (wire format in docs/API.md):
//
//	POST   /v1/tuples        one arrival → its ranked facts (optional narration)
//	POST   /v1/tuples:batch  many arrivals, fanned across shards concurrently
//	DELETE /v1/tuples/{id}   retract an arrival by its "<shard>:<tuple_id>" handle
//	GET    /v1/facts         page through the live fact set with filters
//	GET    /v1/facts/top?k=  the k most prominent facts of the live fact set
//	GET    /v1/tuples/{id}   point read of one ingested row
//	GET    /v1/metrics       merged work counters + per-shard breakdown
//	GET    /v1/schema        the relation schema the daemon was started with
//	GET    /v1/snapshot      checkpoint stream a follower bootstraps from
//	GET    /v1/wal           journaled records from a given LSN on
//	GET    /healthz          liveness (503 on a lagging or broken follower)
//
// With -follow the daemon runs as a read-only follower of another
// situfactd: it bootstraps from the leader's snapshot stream, replays the
// leader's WAL tail continuously, rejects every write endpoint with 403,
// and degrades /healthz when replication lag exceeds -follow-max-lag or
// the leader's log identity changes.
//
// With -state-dir, SIGINT/SIGTERM triggers a graceful shutdown: in-flight
// requests drain, then every shard's state is snapshotted into the
// directory, and the next start with the same schema restores it.
//
// With -wal on top, every ingest is journaled to <state-dir>/wal before
// it is applied and fsynced before it is acknowledged, so a
// crash — kill -9, power loss — loses nothing acknowledged: the next
// start restores the newest snapshot and replays the log's tail.
// -snapshot-interval adds background checkpoints that bound replay time
// and truncate covered log segments.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the -pprof-addr listener's DefaultServeMux only
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/persist"
)

func main() {
	var cfg config
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()
	log.SetPrefix("situfactd: ")
	log.SetFlags(log.LstdFlags)

	if cfg.configPath != "" {
		if err := applyConfigFile(flag.CommandLine, cfg.configPath); err != nil {
			log.Fatal(err)
		}
	}
	if err := cfg.validate(); err != nil {
		log.Fatal(err)
	}

	if cfg.walVerifyMode {
		if cfg.stateDir == "" {
			log.Fatal("-wal-verify requires -state-dir (the log lives at <state-dir>/wal)")
		}
		os.Exit(runWALVerify(filepath.Join(cfg.stateDir, "wal")))
	}
	if cfg.dims == "" || cfg.measures == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := serve(cfg); err != nil {
		log.Fatal(err)
	}
}

// runWALVerify is `situfactd -wal-verify`: a read-only segment-by-segment
// scan of the log, reporting per-segment record counts and where (if
// anywhere) the log stops being clean. Exit status 0 = clean, 1 = damaged
// or unreadable.
func runWALVerify(dir string) int {
	reports, err := persist.VerifyWAL(dir)
	for _, rep := range reports {
		status := "ok"
		if rep.Torn {
			status = "torn tail (next open truncates it)"
		}
		fmt.Printf("%s  base_lsn=%d  records=%d  bytes=%d  %s\n",
			rep.Name, rep.Base, rep.Records, rep.Bytes, status)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "situfactd: wal-verify %s: %v\n", dir, err)
		return 1
	}
	total := 0
	for _, rep := range reports {
		total += rep.Records
	}
	fmt.Printf("ok: %d segments, %d records\n", len(reports), total)
	return 0
}

// newHTTPServer builds the main listener with the connection-lifecycle
// limits the config asks for. The header timeout is always on: it is
// the Slowloris defence, and -read-timeout only ever tightens it —
// a client that cannot finish its headers in 10s is not a client worth
// holding a goroutine for. The slowloris regression test shares this
// constructor, so the limits it pins are the ones production runs.
func newHTTPServer(cfg config, h http.Handler) *http.Server {
	headerTimeout := 10 * time.Second
	if cfg.readTimeout > 0 && cfg.readTimeout < headerTimeout {
		headerTimeout = cfg.readTimeout
	}
	return &http.Server{
		Addr:              cfg.addr,
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		ReadTimeout:       cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
		MaxHeaderBytes:    1 << 20,
	}
}

// serve runs the daemon until SIGINT/SIGTERM, then drains in-flight
// requests, snapshots the pool, and closes it.
func serve(cfg config) error {
	s, err := newServer(cfg)
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		// The profiler gets its own listener and mux: the API surface
		// (server.routes, guarded by TestAPIDocEndpoints) stays exactly the
		// documented set, and the debug port can be firewalled separately.
		go func() {
			log.Printf("pprof listening on %s", cfg.pprofAddr)
			// A configured server, not the bare helper: without a read
			// header timeout an idle client could hold debug-port
			// connections open forever (Slowloris).
			dbg := &http.Server{
				Addr:              cfg.pprofAddr,
				Handler:           nil, // DefaultServeMux, where pprof registered
				ReadHeaderTimeout: 10 * time.Second,
			}
			log.Printf("pprof server: %v", dbg.ListenAndServe())
		}()
	}
	srv := newHTTPServer(cfg, s.handler())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// snapDone joins the background snapshotter before saveState/close: a
	// checkpoint in flight when the shutdown signal lands must finish
	// before the pool and WAL are closed under it.
	snapDone := make(chan struct{})
	if cfg.stateDir != "" && cfg.snapInterval > 0 && cfg.follow == "" {
		go func() {
			defer close(snapDone)
			s.snapshotLoop(ctx, cfg.snapInterval)
		}()
	} else {
		close(snapDone)
	}
	errCh := make(chan error, 1)
	go func() {
		durability := "no persistence"
		switch {
		case cfg.wal:
			durability = fmt.Sprintf("wal + snapshots in %s", cfg.stateDir)
		case cfg.stateDir != "":
			durability = fmt.Sprintf("snapshots in %s", cfg.stateDir)
		}
		pool := s.db()
		log.Printf("listening on %s (%s over %d shards by %s; %s)",
			cfg.addr, pool.Algorithm(), pool.Shards(), pool.ShardDim(), durability)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		stop() // release the snapshotter's context so it can exit
		<-snapDone
		s.close()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	drainErr := srv.Shutdown(shutdownCtx)
	<-snapDone // ctx is done; wait out any in-flight checkpoint
	if drainErr != nil {
		errs = append(errs, fmt.Errorf("drain: %w", drainErr))
	}
	if cfg.stateDir != "" && cfg.follow == "" {
		if drainErr != nil {
			// Handlers may still be appending: a snapshot taken now could
			// omit writes already acked 200. The previous snapshot
			// generation stays valid, so refusing loses nothing committed —
			// and with -wal the journal still covers every acked write.
			log.Printf("drain incomplete; NOT snapshotting to %s (previous snapshot untouched)", cfg.stateDir)
		} else if err := s.saveState(); err != nil {
			errs = append(errs, err)
		} else {
			log.Printf("snapshotted %d tuples to %s", s.db().Len(), cfg.stateDir)
		}
	}
	if err := s.close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
