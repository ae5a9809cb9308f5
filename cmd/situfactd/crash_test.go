package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	situfact "repro"
)

// TestCrashRecoverySIGKILL is the end-to-end durability acceptance test:
// real situfactd processes, built once, are SIGKILLed — no drain, no
// shutdown snapshot — over one state directory in three cycles.
//
//  1. Clean: kill -9 mid-ingest, restart, feed the rest of the stream; the
//     final /v1/facts/top and /v1/metrics must equal those of an
//     uninterrupted daemon over the same input. The feeder sends rows one
//     at a time over one connection, so the applied set is always a prefix
//     of the stream; merged.tuples of the recovered daemon says exactly
//     where to resume.
//  2. Faulted: restart armed with a self-expiring fsync fault while
//     concurrent posters send unique rows; writes must degrade to 503 +
//     Retry-After and heal unattended, then the daemon is killed mid-flight.
//  3. Survivor: a fault-free restart must hold every row ever acked, by
//     content, and an in-process follower of it must serve byte-identical
//     reads.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemon processes")
	}
	bin := buildDaemon(t)
	rows := crashRows(400)

	// Uninterrupted reference run.
	refDir := t.TempDir()
	ref := startDaemon(t, bin, refDir)
	for i, r := range rows {
		if !postRow(ref.url, r) {
			t.Fatalf("reference: row %d rejected", i)
		}
	}
	wantTop := getTop(t, ref.url)
	wantMetrics := getMetrics(t, ref.url)
	ref.stop()

	// Cycle 1, clean: feed in the background, SIGKILL mid-stream.
	crashDir := t.TempDir()
	d := startDaemon(t, bin, crashDir)
	acked := make(chan int, 1)
	go func() {
		n := 0
		for _, r := range rows {
			if !postRow(d.url, r) {
				break // the kill severed us mid-request
			}
			n++
		}
		acked <- n
	}()
	// Let roughly a third of the stream through (including at least one
	// background checkpoint at the daemon's 150ms -snapshot-interval),
	// then kill -9.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m, err := tryMetrics(d.url); err == nil && m.Merged.Tuples >= int64(len(rows)/3) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	nAcked := <-acked
	if nAcked >= len(rows) {
		t.Fatalf("daemon survived to the end of the stream (%d rows) — the kill was not mid-ingest", nAcked)
	}

	// Restart over the same state dir: recovery = newest snapshot + WAL
	// tail. Every acknowledged row must be there.
	d2 := startDaemon(t, bin, crashDir)
	m := getMetrics(t, d2.url)
	applied := int(m.Merged.Tuples)
	if applied < nAcked {
		t.Fatalf("recovered daemon lost acknowledged rows: %d applied < %d acked", applied, nAcked)
	}
	if applied > len(rows) {
		t.Fatalf("recovered daemon applied %d rows of a %d-row stream", applied, len(rows))
	}
	t.Logf("killed after %d acked rows; recovered %d applied rows", nAcked, applied)

	// Resume the stream exactly where the recovered state ends.
	for i, r := range rows[applied:] {
		if !postRow(d2.url, r) {
			t.Fatalf("resumed feed: row %d rejected", applied+i)
		}
	}

	gotMetrics := getMetrics(t, d2.url)
	if gotMetrics.Merged != wantMetrics.Merged {
		t.Errorf("merged metrics after crash+recovery = %+v, want uninterrupted run's %+v",
			gotMetrics.Merged, wantMetrics.Merged)
	}
	if gotMetrics.Len != wantMetrics.Len {
		t.Errorf("len after crash+recovery = %d, want %d", gotMetrics.Len, wantMetrics.Len)
	}
	gotTop := getTop(t, d2.url)
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Errorf("leaderboard after crash+recovery diverged from uninterrupted run:\n got %+v\nwant %+v",
			gotTop, wantTop)
	}
	d2.stop()

	// Cycle 2, faulted: from the third WAL fsync on every fsync fails until
	// 400ms after the first failure. Posters record exactly which rows got a
	// 200; a 503 is a rejection, retried with a fresh row after a beat.
	d3 := startDaemonAt(t, bin, crashDir, freeAddr(t), "-fault-plan", "fsync:from=3;clear-after=400ms")
	var (
		mu             sync.Mutex
		ackedRows      []situfact.Row
		degraded, heal int // 503s with Retry-After; 200s after the first of them
		other          []int
	)
	healed := make(chan struct{}) // closed at the 30th 200 after a 503
	var wg sync.WaitGroup
	for c := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ; seq++ {
				r := situfact.Row{
					Dims:     []string{fmt.Sprintf("team-%d", seq%7), fmt.Sprintf("acked-%d-%d", c, seq)},
					Measures: []float64{float64(seq % 37), float64(seq % 11)},
				}
				status, retry, err := post(d3.url, r)
				if err != nil {
					return // the kill -9 below ends every poster here
				}
				mu.Lock()
				switch {
				case status == http.StatusOK:
					ackedRows = append(ackedRows, r)
					if degraded > 0 {
						if heal++; heal == 30 {
							close(healed)
						}
					}
				case status == http.StatusServiceUnavailable && retry != "":
					degraded++
				default:
					other = append(other, status)
				}
				mu.Unlock()
				if status != http.StatusOK {
					time.Sleep(25 * time.Millisecond)
				}
			}
		}()
	}
	select {
	case <-healed:
	case <-time.After(20 * time.Second):
	}
	wal := getMetrics(t, d3.url).WAL
	d3.stop()
	wg.Wait()
	t.Logf("faulted cycle: %d acked, %d degraded 503s, %d 200s after them, %+v", len(ackedRows), degraded, heal, wal)
	if degraded == 0 || heal == 0 {
		t.Fatalf("faulted cycle: %d 503s with Retry-After, %d 200s after them; want both > 0", degraded, heal)
	}
	if len(other) > 0 {
		t.Errorf("faulted cycle: statuses %v, want only 200 or 503 with Retry-After", other)
	}
	if wal.Degraded || wal.Repairs < 1 {
		t.Errorf("faulted cycle: wal metrics %+v, want not degraded with repairs >= 1", wal)
	}

	// Cycle 3, survivor: every row ever acked is present, counted by content.
	d4 := startDaemon(t, bin, crashDir)
	have := map[string]int{}
	for shard := 0; shard < 3; shard++ {
		for id := 0; ; id++ {
			status, body := getBody(t, fmt.Sprintf("%s/v1/tuples/%d:%d", d4.url, shard, id))
			if status == http.StatusNotFound {
				break
			}
			var tu tupleResponse
			if err := json.Unmarshal(body, &tu); err != nil {
				t.Fatalf("tuple %d:%d: %v: %s", shard, id, err, body)
			}
			if !tu.Deleted {
				have[fmt.Sprint(tu.Dims, tu.Measures)]++
			}
		}
	}
	var lost []string
	for _, r := range append(ackedRows, rows...) {
		k := fmt.Sprint(r.Dims, r.Measures)
		if have[k] == 0 {
			lost = append(lost, k)
		}
		have[k]--
	}
	if len(lost) > 0 {
		t.Errorf("%d acked rows lost after the faulted crash, e.g. %v", len(lost), lost[0])
	}

	_, fts := startServer(t, flagConfig("-dims", "team,player", "-measures", "points,rebounds",
		"-state-dir", t.TempDir(), "-follow", d4.url, "-follow-poll", "20ms"))
	for _, r := range rows[:30] { // rows past the bootstrap make the follower tail
		if !postRow(d4.url, r) {
			t.Fatal("survivor rejected a row")
		}
	}
	waitApplied(t, fts.URL, getMetrics(t, d4.url).WAL.LastLSN)
	assertSameReads(t, d4.url, fts.URL, []string{"", "shard=1", "where=team=team-0"})
}

// buildDaemon compiles this package into a runnable binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "situfactd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

type daemon struct {
	cmd *exec.Cmd
	url string
	t   *testing.T
}

// startDaemon launches the binary on a free port with crash-friendly
// settings: WAL on, frequent background checkpoints, small segments so
// rotation and truncation both happen inside the test.
func startDaemon(t *testing.T, bin, stateDir string) *daemon {
	t.Helper()
	return startDaemonAt(t, bin, stateDir, freeAddr(t))
}

// freeAddr reserves a loopback port and returns it, so a daemon can be
// restarted on the same address after a crash.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemonAt is startDaemon on a caller-chosen address; extra flags
// are appended after the defaults (the flag package keeps the last
// occurrence, so callers can override any of them).
func startDaemonAt(t *testing.T, bin, stateDir, addr string, extra ...string) *daemon {
	t.Helper()
	args := []string{
		"-addr", addr,
		"-dims", "team,player",
		"-measures", "points,rebounds",
		"-shards", "3",
		"-shard-dim", "team",
		"-state-dir", stateDir,
		"-wal",
		"-wal-segment-bytes", "4096",
		"-snapshot-interval", "150ms",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, t: t}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("daemon logs (%s):\n%s", stateDir, logs.String())
		}
	})
	// Wait for readiness (startup includes recovery).
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon never became healthy\n%s", logs.String())
	return nil
}

func (d *daemon) stop() {
	if d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

// crashRows builds a deterministic stream with a skewed team dimension so
// shards fill unevenly — the harder case for per-shard snapshot LSNs.
func crashRows(n int) []situfact.Row {
	rng := rand.New(rand.NewSource(42))
	rows := make([]situfact.Row, n)
	for i := range rows {
		rows[i] = situfact.Row{
			Dims: []string{
				fmt.Sprintf("team-%d", rng.Intn(7)*rng.Intn(2)), // skewed: team-0 is hot
				fmt.Sprintf("player-%d", rng.Intn(23)),
			},
			Measures: []float64{float64(rng.Intn(60)), float64(rng.Intn(20))},
		}
	}
	return rows
}

// post POSTs one row and returns the status code plus the Retry-After
// header (degraded-mode 503s must carry one).
func post(url string, r situfact.Row) (int, string, error) {
	body, _ := json.Marshal(tupleRequest{Row: r})
	resp, err := http.Post(url+"/v1/tuples", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	// Drain so the connection is reused and request order is strict.
	var sink json.RawMessage
	json.NewDecoder(resp.Body).Decode(&sink)
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

func postRow(url string, r situfact.Row) bool {
	status, _, err := post(url, r)
	return err == nil && status == http.StatusOK
}

func tryMetrics(url string) (metricsResponse, error) {
	var m metricsResponse
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func getMetrics(t *testing.T, url string) metricsResponse {
	t.Helper()
	m, err := tryMetrics(url)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func getTop(t *testing.T, url string) topFactsResponse {
	t.Helper()
	var top topFactsResponse
	resp, err := http.Get(url + "/v1/facts/top?k=64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	return top
}
