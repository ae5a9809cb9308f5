package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	situfact "repro"
)

// TestOverloadSlowlorisBoundedGoroutines is the connection-lifecycle
// regression test: 100 clients that send a partial request line and then
// stall must all be cut off by the header timeout, and the goroutines
// serving them must drain back to near the baseline — a daemon without
// ReadHeaderTimeout grows one parked goroutine per stalled socket,
// forever.
func TestOverloadSlowlorisBoundedGoroutines(t *testing.T) {
	cfg := gamelogConfig(2, "")
	cfg.readTimeout = 300 * time.Millisecond // also tightens the header timeout
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	srv := newHTTPServer(cfg, s.handler())
	if srv.ReadHeaderTimeout != cfg.readTimeout {
		t.Fatalf("ReadHeaderTimeout = %v: -read-timeout %v below 10s must tighten it",
			srv.ReadHeaderTimeout, cfg.readTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	baseline := runtime.NumGoroutine()
	const stalled = 100
	conns := make([]net.Conn, 0, stalled)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < stalled; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		// Half a request: headers started, never finished.
		if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: situfactd\r\nX-Stall"); err != nil {
			t.Fatal(err)
		}
	}
	// Every stalled connection must be cut off within the header timeout
	// (plus scheduling slack): the server may write a courtesy 408 first,
	// but the connection must reach EOF — a read deadline firing means a
	// goroutine is still parked on our half-request.
	for i, c := range conns {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(c)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("conn %d: still open 5s after the %v header timeout", i, cfg.readTimeout)
		}
		if err == nil && bytes.HasPrefix(got, []byte("HTTP/1.1 200")) {
			t.Fatalf("conn %d: server served a half-request: %q", i, got)
		}
	}
	// And their serving goroutines must drain, not park.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d (baseline %d) after %d stalled connections",
				n, baseline, stalled)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A well-formed request still serves.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the slowloris wave: %d", resp.StatusCode)
	}
}

// TestOverloadDrillShedsWithoutAckedLoss is the overload drill: a small
// fixed ingest queue and a low in-flight bound, hammered by far more
// posters than the daemon can seat. The daemon must shed with 503 +
// Retry-After, never exceed the configured in-flight bound — and after a
// restart over the same state dir, every row it acknowledged must still
// be there, while everything shed is simply absent (never half-applied).
func TestOverloadDrillShedsWithoutAckedLoss(t *testing.T) {
	dir := t.TempDir()
	cfg := gamelogConfig(3, dir)
	cfg.wal = true
	cfg.pipeQueue = 2
	cfg.shedWindow = 50 * time.Millisecond
	cfg.maxInflight = 16
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())

	type ack struct {
		id     string
		player string
	}
	var (
		mu       sync.Mutex
		acked    []ack
		shed     int // 503 rejections
		rejected int // anything else non-200 (should stay 0)
	)
	teams := []string{"Celtics", "Hornets", "Heat", "Blazers", "Nets"}
	const workers = 32
	var wg sync.WaitGroup
	stop := time.Now().Add(1500 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(stop); seq++ {
				player := fmt.Sprintf("p-%d-%d", w, seq)
				row := situfact.Row{
					Dims:     []string{player, "Feb", "1995-96", teams[(w+seq)%len(teams)], teams[w%len(teams)]},
					Measures: []float64{float64(seq % 40), float64(w % 15), float64((w + seq) % 12)},
				}
				var out arrivalResponse
				resp := doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), &out)
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					acked = append(acked, ack{id: out.ID, player: player})
				case http.StatusServiceUnavailable:
					shed++
					if resp.Header.Get("Retry-After") == "" {
						rejected++ // a 503 without Retry-After is a contract break
					}
				default:
					rejected++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	m := getMetrics(t, ts.URL)
	if rejected != 0 {
		t.Fatalf("%d requests failed outside the shed contract", rejected)
	}
	if shed == 0 {
		t.Fatal("overload run shed nothing: the drill never exceeded capacity")
	}
	if len(acked) == 0 {
		t.Fatal("overload run acknowledged nothing")
	}
	if m.Overload.InflightPeak > int64(cfg.maxInflight) {
		t.Fatalf("inflight peak %d exceeded the configured bound %d",
			m.Overload.InflightPeak, cfg.maxInflight)
	}
	if m.Overload.InflightPeak == 0 {
		t.Fatal("inflight peak is 0 under a 32-worker hammer: the gate is not wired")
	}
	if m.Overload.Shed == 0 {
		t.Fatal("metrics report zero shed despite 503 responses")
	}
	t.Logf("drill: %d acked, %d shed, inflight peak %d/%d, shedder active=%v",
		len(acked), shed, m.Overload.InflightPeak, cfg.maxInflight, m.Overload.Shedding)

	// Clean shutdown, restart over the same state dir: recovery must hold
	// exactly the acknowledged rows (by content, not just count).
	ts.Close()
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	s2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	pool := s2.db()
	if got, want := pool.Len(), len(acked); got != want {
		t.Fatalf("recovered %d rows, acked %d", got, want)
	}
	for _, a := range acked {
		shard, tupleID, err := parseTupleID(a.id, situfact.AllShards, pool.Shards())
		if err != nil {
			t.Fatal(err)
		}
		info, err := pool.Tuple(shard, tupleID)
		if err != nil {
			t.Fatalf("acked row %s (%s) lost after restart: %v", a.id, a.player, err)
		}
		if info.Dims[0] != a.player {
			t.Fatalf("acked row %s holds %q, want %q", a.id, info.Dims[0], a.player)
		}
	}
}

// TestOverloadLimiter429 drives the per-client token bucket over HTTP:
// a 1 req/s bucket admits the first request and 429s the burst behind
// it, naming a whole-second Retry-After.
func TestOverloadLimiter429(t *testing.T) {
	cfg := gamelogConfig(2, "")
	cfg.rateLimit = 1
	cfg.rateBurst = 1
	_, ts := startServer(t, cfg)

	status, _ := getBody(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("first request: %d, want 200", status)
	}
	var got429 bool
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			got429 = true
			break
		}
	}
	if !got429 {
		t.Fatal("burst past a 1 req/s bucket never saw a 429")
	}
}

// TestOverloadLimitsHoldOnFollower pins the fleet contract: the same
// admission config on a read-only follower limits its read traffic
// exactly as it would a leader's.
func TestOverloadLimitsHoldOnFollower(t *testing.T) {
	cfg := gamelogConfig(2, t.TempDir())
	cfg.wal = true
	_, lts := startServer(t, cfg)
	for i, row := range table1 {
		if resp := doJSON(t, "POST", lts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("leader: row %d: status %d", i, resp.StatusCode)
		}
	}
	fcfg := gamelogConfig(2, t.TempDir())
	fcfg.follow = lts.URL
	fcfg.followPoll = 20 * time.Millisecond
	fcfg.rateLimit = 1
	fcfg.rateBurst = 1
	_, fts := startServer(t, fcfg)
	waitApplied(t, fts.URL, uint64(len(table1)))

	var got429 bool
	for i := 0; i < 5; i++ {
		resp, err := http.Get(fts.URL + "/v1/facts")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			break
		}
	}
	if !got429 {
		t.Fatal("follower never rate-limited: admission control is leader-only")
	}
}
