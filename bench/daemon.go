package main

// Daemon processes: building cmd/situfactd, starting it on a free port over
// a fresh state directory, watching it from outside (/proc, /v1/metrics,
// the state directory) and making sure it is gone on every exit path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env locates the checkout the benchmark runs in. Everything the benchmark
// writes goes under outDir (logs, traces) or workDir (binaries, state
// directories), both inside the checkout.
type env struct {
	root    string // repository root: holds go.mod, cmd/situfactd and BENCHMARK.json
	outDir  string // bench/out: traces, and daemon logs kept on failure
	workDir string // .bench_build: binaries and per-run state directories
	binary  string // the built situfactd

	mu      sync.Mutex
	daemons []*daemon
}

func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{
		root:    root,
		outDir:  filepath.Join(root, "bench", "out"),
		workDir: filepath.Join(root, ".bench_build"),
	}
	return e, e.prepare()
}

// prepare creates the directories under outDir and workDir.
func (e *env) prepare() error {
	e.binary = filepath.Join(e.workDir, "bin", "situfactd")
	for _, dir := range []string{e.outDir, filepath.Join(e.workDir, "bin"), filepath.Join(e.workDir, "run")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// build compiles cmd/situfactd from the checkout's source. The Go build
// cache makes a repeat a sub-second no-op.
func (e *env) build() (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.binary, "./cmd/situfactd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("build cmd/situfactd in %s: %w\n%s", e.root, err, out)
	}
	return time.Since(start), nil
}

// tempDir makes a fresh directory for one daemon's state.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(filepath.Join(e.workDir, "run"), prefix)
}

// daemon is one running situfactd.
type daemon struct {
	name    string
	base    string // http://127.0.0.1:port
	cmd     *exec.Cmd
	logPath string // stdout+stderr, next to the state directories
	exited  chan struct{}
	client  *http.Client
}

// start launches the daemon with the given flags on a free loopback port
// and returns as soon as the process exists; waitHealthy waits for it to
// serve.
func (e *env) start(name string, flags ...string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	// Released for the daemon to bind. If another process takes the port
	// in between, the daemon exits and waitHealthy reports it.
	l.Close()
	logFile, err := os.CreateTemp(filepath.Join(e.workDir, "run"), name+"-*.log")
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	d := &daemon{
		name:    name,
		base:    "http://" + addr,
		logPath: logFile.Name(),
		exited:  make(chan struct{}),
		client:  &http.Client{Timeout: 60 * time.Second},
	}
	d.cmd = exec.Command(e.binary, append([]string{"-addr", addr}, flags...)...)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	// If the benchmark dies without running its own clean-up (a SIGKILL, a
	// SIGPIPE from a vanished parent), the kernel takes the daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	return d, nil
}

// kill is kill -9 followed by a wait: the crash the WAL exists for, and
// the only way this benchmark ever stops a daemon.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.client.CloseIdleConnections()
}

// killAll stops every daemon the environment started; safe to call twice.
func (e *env) killAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range e.daemons {
		d.kill()
	}
	e.daemons = nil
}

// keepLogs writes the logs of every daemon still tracked to bench/out, for
// a failed run.
func (e *env) keepLogs(tag string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, d := range e.daemons {
		path := filepath.Join(e.outDir, fmt.Sprintf("%s-%d-%s.log", tag, i, d.name))
		os.WriteFile(path, []byte(d.logTail(1<<20)), 0o644)
	}
}

// stop kills one daemon, drops it from the tracked set and discards its
// log: only the daemons still running when a run fails have theirs kept.
func (e *env) stop(d *daemon) {
	d.kill()
	os.Remove(d.logPath)
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.daemons {
		if x == d {
			e.daemons = append(e.daemons[:i], e.daemons[i+1:]...)
			return
		}
	}
}

// waitHealthy polls /healthz every poll until it answers 200 and returns
// how long that took from `since`.
func (d *daemon) waitHealthy(since time.Time, poll, timeout time.Duration) (time.Duration, error) {
	deadline := since.Add(timeout)
	for {
		select {
		case <-d.exited:
			return 0, fmt.Errorf("%s exited before serving:\n%s", d.name, d.logTail(2048))
		default:
		}
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(since), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s not healthy after %s:\n%s", d.name, timeout, d.logTail(2048))
		}
		time.Sleep(poll)
	}
}

// daemonMetrics is the part of GET /v1/metrics the benchmark reads.
type daemonMetrics struct {
	Len    int `json:"len"`
	Merged struct {
		Tuples       int64 `json:"tuples"`
		Comparisons  int64 `json:"comparisons"`
		Traversed    int64 `json:"traversed"`
		Facts        int64 `json:"facts"`
		StoredTuples int64 `json:"stored_tuples"`
		Cells        int64 `json:"cells"`
	} `json:"merged"`
	WAL struct {
		LastLSN uint64 `json:"last_lsn"`
	} `json:"wal"`
	Ingest struct {
		Enqueued  uint64 `json:"enqueued"`
		Batches   uint64 `json:"batches"`
		MaxBatch  int    `json:"max_batch"`
		FullWaits uint64 `json:"full_waits"`
		Resizes   uint64 `json:"resizes"`
		Canceled  uint64 `json:"canceled"`
	} `json:"ingest"`
	Snapshot struct {
		Generation uint64 `json:"generation"`
	} `json:"snapshot"`
	Replication *struct {
		AppliedLSN uint64 `json:"applied_lsn"`
		Fatal      string `json:"fatal"`
	} `json:"replication"`
	ReadCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"read_cache"`
	Overload struct {
		Shed    uint64 `json:"shed"`
		Limited uint64 `json:"limited"`
		Panics  uint64 `json:"panics"`
	} `json:"overload"`
}

func (d *daemon) metrics() (*daemonMetrics, error) {
	var m daemonMetrics
	if err := d.getJSON("/v1/metrics", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkpoint forces a checkpoint through GET /v1/snapshot — the only
// on-demand trigger the daemon has — and discards the stream a follower
// would have bootstrapped from.
func (d *daemon) checkpoint() error {
	resp, err := d.client.Get(d.base + "/v1/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/snapshot: %s", resp.Status)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// cpu returns the user+system CPU time the daemon has used so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times in %q", data)
	}
	const clockTick = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// peakRSS returns the daemon's resident-set high-water mark in bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, ent fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if ent.Type().IsRegular() {
			info, err := ent.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// logTail returns the last at-most-n bytes the daemon logged.
func (d *daemon) logTail(n int) string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return fmt.Sprintf("(no log: %v)", err)
	}
	s := strings.TrimSpace(string(data))
	if len(s) > n {
		s = "…" + s[len(s)-n:]
	}
	return s
}
