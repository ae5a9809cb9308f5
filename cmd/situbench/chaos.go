package main

// Chaos mode: situbench -chaos <situfactd-binary> runs the end-to-end
// robustness acceptance drill. Each cycle launches a real journaled
// daemon over one shared state directory — optionally armed with a
// faultfs plan through the SITUFACTD_FAULT_PLAN environment hook — pushes
// concurrent ingest at it while the fault fires and (with a clear-after
// clause) heals again, and then kill -9s the process mid-flight. After
// the last cycle a clean daemon recovers from the accumulated state and
// the harness asserts the two invariants the whole robustness design
// hangs on:
//
//  1. Zero acked-row loss: every row a poster saw a 200 for is present
//     after recovery. Rows are verified by content (a unique per-row
//     dimension value), not by handle — an in-place repair can shed
//     applied-but-unacknowledged rows at the next crash, shifting
//     tuple-id handles, and the durability contract covers acknowledged
//     data, not handles.
//  2. Byte-identical convergence: a follower bootstrapped from the
//     recovered leader must serve the same /v1/facts cursor chain and
//     the same leaderboard, byte for byte.
//
// -chaos-json writes the drill's outcome as one JSON document (schema
// situbench-chaos/v1).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type chaosParams struct {
	Binary     string        // situfactd binary to torture
	Cycles     int           // kill -9 cycles
	Rows       int64         // acked-row target per cycle (a cycle may kill earlier)
	Conns      int           // concurrent posters per cycle
	FaultPlans []string      // per-cycle faultfs plans, round-robin ("" = none)
	CycleCap   time.Duration // hard per-cycle time cap before the kill
	JSONPath   string
}

// chaosCycle is one cycle's outcome in the JSON report.
type chaosCycle struct {
	Cycle     int    `json:"cycle"`
	FaultPlan string `json:"fault_plan,omitempty"`
	Acked     int    `json:"acked"`
	Rejected  int    `json:"rejected"` // 503s observed (degraded mode doing its job)
	Repairs   uint64 `json:"repairs"`  // WAL repairs the daemon logged before the kill
}

// chaosReport is the -chaos-json document.
type chaosReport struct {
	Schema      string       `json:"schema"` // "situbench-chaos/v1"
	Binary      string       `json:"binary"`
	Cycles      []chaosCycle `json:"cycles"`
	TotalAcked  int          `json:"total_acked"`
	Recovered   int          `json:"recovered_rows"`
	LostRows    int          `json:"lost_rows"`
	FollowPages int          `json:"follower_pages_compared"`
	Converged   bool         `json:"converged"`
}

const (
	chaosDims     = "player,team,opp"
	chaosMeasures = "points,rebounds"
	chaosShards   = 3
)

// chaosDaemon launches the binary over stateDir, with an optional fault
// plan in the environment, and waits for /healthz. A non-empty leader
// starts a read-only follower instead (stateDir is bootstrap scratch; a
// follower journals nothing of its own).
func chaosDaemon(binary, stateDir, plan, leader string) (*exec.Cmd, string, chan struct{}, *bytes.Buffer, error) {
	port, err := freePort()
	if err != nil {
		return nil, "", nil, nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{
		"-addr", addr,
		"-dims", chaosDims,
		"-measures", chaosMeasures,
		"-shards", strconv.Itoa(chaosShards),
		"-shard-dim", "team",
		"-state-dir", stateDir,
	}
	if leader != "" {
		args = append(args, "-follow", leader, "-follow-poll", "100ms")
	} else {
		args = append(args, "-wal", "-wal-segment-bytes", "8192", "-snapshot-interval", "150ms")
	}
	cmd := exec.Command(binary, args...)
	cmd.Env = os.Environ()
	if plan != "" {
		cmd.Env = append(cmd.Env, "SITUFACTD_FAULT_PLAN="+plan)
	}
	var logBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logBuf, &logBuf
	if err := cmd.Start(); err != nil {
		return nil, "", nil, nil, fmt.Errorf("start %s: %w", binary, err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	base := "http://" + addr
	if err := waitHealthy(base, 15*time.Second, exited); err != nil {
		stopDaemon(cmd, exited)
		return nil, "", nil, nil, fmt.Errorf("%w; daemon log:\n%s", err, tail(logBuf.String(), 2048))
	}
	return cmd, base, exited, &logBuf, nil
}

// runChaos executes the drill.
func runChaos(w io.Writer, p chaosParams) error {
	if p.Cycles <= 0 {
		p.Cycles = 3
	}
	if p.Rows <= 0 {
		p.Rows = 400
	}
	if p.Conns <= 0 {
		p.Conns = 4
	}
	if p.CycleCap <= 0 {
		p.CycleCap = 20 * time.Second
	}
	if _, err := exec.LookPath(p.Binary); err != nil {
		return fmt.Errorf("chaos: situfactd binary %q: %w", p.Binary, err)
	}
	stateDir, err := os.MkdirTemp("", "situbench-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)

	rep := chaosReport{Schema: "situbench-chaos/v1", Binary: p.Binary}
	var ackedRows []string // unique player values, one per acked row
	var mu sync.Mutex

	for cycle := 0; cycle < p.Cycles; cycle++ {
		plan := ""
		if len(p.FaultPlans) > 0 {
			plan = p.FaultPlans[cycle%len(p.FaultPlans)]
		}
		cmd, base, exited, logBuf, err := chaosDaemon(p.Binary, stateDir, plan, "")
		if err != nil {
			return fmt.Errorf("chaos cycle %d: %w", cycle, err)
		}
		cyc := chaosCycle{Cycle: cycle, FaultPlan: plan}

		var cycleAcked, rejected int64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		client := &http.Client{Timeout: 5 * time.Second}
		for conn := 0; conn < p.Conns; conn++ {
			wg.Add(1)
			go func(conn int) {
				defer wg.Done()
				for seq := 0; ; seq++ {
					select {
					case <-stop:
						return
					default:
					}
					player := fmt.Sprintf("p-%d-%d-%d", cycle, conn, seq)
					body, _ := json.Marshal(map[string]any{
						"dims":     []string{player, fmt.Sprintf("team-%d", seq%7), fmt.Sprintf("opp-%d", seq%5)},
						"measures": []float64{float64(seq % 37), float64(seq % 11)},
					})
					resp, err := client.Post(base+"/v1/tuples", "application/json", bytes.NewReader(body))
					if err != nil {
						return // the kill severed us
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						mu.Lock()
						ackedRows = append(ackedRows, player)
						cycleAcked++
						mu.Unlock()
					case http.StatusServiceUnavailable:
						// Degraded mode: honor Retry-After in spirit and
						// retry the stream after a beat. The row was NOT
						// acked, so it is not recorded.
						mu.Lock()
						rejected++
						mu.Unlock()
						time.Sleep(25 * time.Millisecond)
					default:
						return
					}
				}
			}(conn)
		}

		// Let the cycle run until the acked quota or the cap, then kill -9
		// mid-flight — no drain, no shutdown snapshot.
		deadline := time.Now().Add(p.CycleCap)
		for time.Now().Before(deadline) {
			mu.Lock()
			n := cycleAcked
			mu.Unlock()
			if n >= p.Rows {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		cmd.Process.Kill()
		<-exited
		close(stop)
		wg.Wait()

		mu.Lock()
		cyc.Acked = int(cycleAcked)
		cyc.Rejected = int(rejected)
		mu.Unlock()
		cyc.Repairs = uint64(strings.Count(logBuf.String(), "wal repaired"))
		rep.Cycles = append(rep.Cycles, cyc)
		fmt.Fprintf(w, "chaos cycle %d: plan=%q acked=%d rejected=%d repairs=%d (killed -9)\n",
			cycle, plan, cyc.Acked, cyc.Rejected, cyc.Repairs)
	}
	rep.TotalAcked = len(ackedRows)

	// Clean recovery: a fault-free daemon over the battered state dir.
	cmd, base, exited, logBuf, err := chaosDaemon(p.Binary, stateDir, "", "")
	if err != nil {
		return fmt.Errorf("chaos: final recovery: %w", err)
	}
	defer stopDaemon(cmd, exited)

	have, err := chaosTuples(base)
	if err != nil {
		return fmt.Errorf("chaos: enumerating recovered tuples: %w; daemon log:\n%s", err, tail(logBuf.String(), 2048))
	}
	rep.Recovered = len(have)
	for _, player := range ackedRows {
		if !have[player] {
			rep.LostRows++
		}
	}
	fmt.Fprintf(w, "chaos recovery: %d rows recovered, %d acked, %d LOST\n",
		rep.Recovered, rep.TotalAcked, rep.LostRows)

	// Convergence: a follower bootstrapped from the recovered leader must
	// read back byte-identically.
	scratch, err := os.MkdirTemp("", "situbench-chaos-follow-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	fcmd, fbase, fexited, flog, err := chaosDaemon(p.Binary, scratch, "", base)
	if err != nil {
		return fmt.Errorf("chaos: follower bootstrap: %w", err)
	}
	defer stopDaemon(fcmd, fexited)
	if err := chaosWaitCaughtUp(fbase, 30*time.Second); err != nil {
		return fmt.Errorf("chaos: %w; follower log:\n%s", err, tail(flog.String(), 2048))
	}
	pages, err := chaosCompareReads(base, fbase)
	rep.FollowPages = pages
	rep.Converged = err == nil
	if err == nil {
		fmt.Fprintf(w, "chaos convergence: follower matched %d /v1/facts pages + leaderboard byte-for-byte\n", pages)
	}

	if p.JSONPath != "" {
		buf, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr != nil {
			return jerr
		}
		if werr := os.WriteFile(p.JSONPath, append(buf, '\n'), 0o644); werr != nil {
			return werr
		}
	}
	if rep.LostRows > 0 {
		return fmt.Errorf("chaos: %d acked rows LOST after recovery", rep.LostRows)
	}
	if err != nil {
		return fmt.Errorf("chaos: follower diverged: %w", err)
	}
	return nil
}

// chaosTuples enumerates every live tuple of the daemon by point reads
// (ids are dense per shard) and returns the set of player values.
func chaosTuples(base string) (map[string]bool, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	have := make(map[string]bool)
	for shard := 0; shard < chaosShards; shard++ {
		for id := int64(0); ; id++ {
			resp, err := client.Get(fmt.Sprintf("%s/v1/tuples/%d:%d", base, shard, id))
			if err != nil {
				return nil, err
			}
			if resp.StatusCode == http.StatusNotFound {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				break
			}
			var tup struct {
				Dims    []string `json:"dims"`
				Deleted bool     `json:"deleted"`
			}
			err = json.NewDecoder(resp.Body).Decode(&tup)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if !tup.Deleted && len(tup.Dims) > 0 {
				have[tup.Dims[0]] = true
			}
		}
	}
	return have, nil
}

// chaosWaitCaughtUp polls the follower's metrics until replication lag is
// zero with no fatal error.
func chaosWaitCaughtUp(base string, timeout time.Duration) error {
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/v1/metrics")
		if err == nil {
			var m struct {
				Replication *struct {
					AppliedLSN uint64 `json:"applied_lsn"`
					LagRecords uint64 `json:"lag_records"`
					Fatal      string `json:"fatal"`
				} `json:"replication"`
			}
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err == nil && m.Replication != nil {
				if m.Replication.Fatal != "" {
					return fmt.Errorf("follower went fatal: %s", m.Replication.Fatal)
				}
				if m.Replication.LagRecords == 0 && m.Replication.AppliedLSN > 0 {
					return nil
				}
				last = fmt.Sprintf("applied=%d lag=%d", m.Replication.AppliedLSN, m.Replication.LagRecords)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("follower never caught up (%s)", last)
}

// chaosCompareReads walks the full /v1/facts cursor chain on both
// daemons, requiring byte-identical pages, then compares the
// leaderboards. Returns the number of pages compared.
func chaosCompareReads(leader, follower string) (int, error) {
	get := func(url string) ([]byte, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, tail(string(body), 256))
		}
		return body, nil
	}
	pages := 0
	cursor := ""
	for {
		url := "/v1/facts?limit=64"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		lb, err := get(leader + url)
		if err != nil {
			return pages, err
		}
		fb, err := get(follower + url)
		if err != nil {
			return pages, err
		}
		if !bytes.Equal(lb, fb) {
			return pages, fmt.Errorf("page %d (cursor %q) differs between leader and follower", pages, cursor)
		}
		pages++
		var page struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(lb, &page); err != nil {
			return pages, err
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 100000 {
			return pages, fmt.Errorf("runaway pagination")
		}
	}
	lt, err := get(leader + "/v1/facts/top?k=64")
	if err != nil {
		return pages, err
	}
	ft, err := get(follower + "/v1/facts/top?k=64")
	if err != nil {
		return pages, err
	}
	if !bytes.Equal(lt, ft) {
		return pages, fmt.Errorf("leaderboards differ between leader and follower")
	}
	return pages, nil
}

// freePort reserves an ephemeral localhost port and releases it for the
// daemon. The tiny reuse race is harmless here: the daemon's bind fails,
// waitHealthy times out, and the drill errors out.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port, nil
}

// waitHealthy polls GET /healthz until the daemon answers 200, it exits
// (bad flags, bind failure), or the timeout lapses.
func waitHealthy(base string, timeout time.Duration, exited <-chan struct{}) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return fmt.Errorf("daemon exited before becoming healthy")
		default:
		}
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy after %s", timeout)
}

// stopDaemon SIGTERMs the daemon and waits briefly for the graceful path,
// escalating to SIGKILL so a wedged daemon cannot hang the drill.
func stopDaemon(cmd *exec.Cmd, exited <-chan struct{}) {
	if cmd.Process == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-exited
	}
}

// tail returns the last at-most-n bytes of s, for error context.
func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n:]
}
