package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// postStatus is post for the test goroutine: a transport error fails
// the test.
func postStatus(t *testing.T, url string, r rowWire) (int, string) {
	t.Helper()
	status, retry, err := post(url, r)
	if err != nil {
		t.Fatalf("POST /v1/tuples: %v", err)
	}
	return status, retry
}

func healthStatus(t *testing.T, url string) (int, healthResponse) {
	t.Helper()
	status, body := getBody(t, url+"/healthz")
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decode /healthz %s: %v", body, err)
	}
	return status, h
}

// TestDegradedModeServesReadsAndHeals is the degraded-mode acceptance
// test, in process with the pipeline on: a sticky fsync fault must turn
// writes into 503 + Retry-After (never 500, never a false 200), leave
// every read endpoint serving, report "degraded" on /healthz and in
// /v1/metrics — and the background repair loop must heal the log without
// a restart once the fault clears.
func TestDegradedModeServesReadsAndHeals(t *testing.T) {
	cfg := gamelogConfig(2, t.TempDir())
	cfg.wal = true
	cfg.faultPlan = "fsync:from=999999" // inert; armed for real below
	s, ts := startServer(t, cfg)

	for i, row := range table1[:3] {
		if st, _ := postStatus(t, ts.URL, row); st != http.StatusOK {
			t.Fatalf("warmup row %d: status %d", i, st)
		}
	}
	if err := s.faults.Program("fsync:from=1"); err != nil {
		t.Fatal(err)
	}

	st, retry := postStatus(t, ts.URL, wesley)
	if st != http.StatusServiceUnavailable {
		t.Fatalf("write under fsync fault: status %d, want 503", st)
	}
	if retry == "" {
		t.Error("degraded 503 carries no Retry-After header")
	}
	// Sticky: the log stays poisoned for follow-up writes too.
	if st, _ := postStatus(t, ts.URL, table1[3]); st != http.StatusServiceUnavailable {
		t.Errorf("second write under fault: status %d, want 503", st)
	}

	// Reads keep serving the durable state.
	if status, body := getBody(t, ts.URL+"/v1/facts?limit=5"); status != http.StatusOK {
		t.Errorf("GET /v1/facts while degraded: %d: %s", status, body)
	}
	if status, _ := getBody(t, ts.URL+"/v1/facts/top?k=8"); status != http.StatusOK {
		t.Errorf("GET /v1/facts/top while degraded: %d", status)
	}
	if status, h := healthStatus(t, ts.URL); status != http.StatusOK || h.Status != "degraded" {
		t.Errorf("/healthz while degraded = %d %+v, want 200 with status \"degraded\"", status, h)
	} else if h.Reason == "" {
		t.Error("degraded /healthz carries no reason")
	}
	m := getMetrics(t, ts.URL)
	if !m.WAL.Degraded || m.WAL.DegradedReason == "" {
		t.Errorf("metrics wal block while degraded = %+v, want degraded with a reason", m.WAL)
	}

	// Fault clears; the repair loop must heal without a restart.
	s.faults.Clear()
	deadline := time.Now().Add(15 * time.Second)
	healed := false
	for time.Now().Before(deadline) {
		if _, h := healthStatus(t, ts.URL); h.Status == "ok" {
			healed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !healed {
		t.Fatalf("repair loop never healed the log: metrics %+v", getMetrics(t, ts.URL).WAL)
	}
	if st, _ := postStatus(t, ts.URL, wesley); st != http.StatusOK {
		t.Fatalf("write after heal: status %d, want 200", st)
	}
	m = getMetrics(t, ts.URL)
	if m.WAL.Degraded || m.WAL.Repairs < 1 {
		t.Errorf("metrics after heal = %+v, want not degraded with repairs >= 1", m.WAL)
	}
}

// TestRebootstrapAfterEpochSwap replaces the leader behind a fixed URL
// with a different instance, exactly like TestFollowerEpochMismatch —
// but this follower runs with a re-bootstrap budget, so instead of
// staying down it must re-download the new leader's snapshot, swap its
// pool under live readers, and converge on the new history.
func TestRebootstrapAfterEpochSwap(t *testing.T) {
	var inner atomic.Value
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(stub.Close)

	cfgA := gamelogConfig(2, t.TempDir())
	cfgA.wal = true
	a, _ := startServer(t, cfgA)
	inner.Store(a.handler())
	for _, row := range table1[:2] {
		if st, _ := postStatus(t, stub.URL, row); st != http.StatusOK {
			t.Fatalf("leader A rejected row: status %d", st)
		}
	}

	fcfg := gamelogConfig(2, t.TempDir())
	fcfg.follow = stub.URL
	fcfg.followPoll = 20 * time.Millisecond
	fcfg.followRebootstrapMax = 3
	_, fts := startServer(t, fcfg)
	waitApplied(t, fts.URL, 2)

	// Swap in leader B: same URL, different WAL epoch, different history.
	cfgB := gamelogConfig(2, t.TempDir())
	cfgB.wal = true
	b, bts := startServer(t, cfgB)
	for _, row := range table1[2:5] {
		if st, _ := postStatus(t, bts.URL, row); st != http.StatusOK {
			t.Fatalf("leader B rejected row: status %d", st)
		}
	}
	inner.Store(b.handler())

	// The follower must detect the epoch change and self-heal: one
	// re-bootstrap, then convergence on B's three rows.
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := tryMetrics(fts.URL)
		if err == nil && m.Replication != nil && m.Replication.Rebootstraps >= 1 &&
			m.Replication.Fatal == "" && m.Replication.AppliedLSN >= 3 && m.Replication.LagRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-bootstrapped: replication state %+v", m.Replication)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status, h := healthStatus(t, fts.URL); status != http.StatusOK {
		t.Fatalf("re-bootstrapped follower /healthz = %d %+v, want 200", status, h)
	}
	assertSameReads(t, bts.URL, fts.URL, gamelogQueries)

	// More writes on B keep replicating through the swapped pool.
	if st, _ := postStatus(t, bts.URL, table1[5]); st != http.StatusOK {
		t.Fatal("leader B rejected the post-swap row")
	}
	waitApplied(t, fts.URL, 4)
	assertSameReads(t, bts.URL, fts.URL, gamelogQueries)
}
