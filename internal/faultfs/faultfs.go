// Package faultfs is the injectable I/O seam under internal/persist.
//
// The write-ahead log opens, writes, and fsyncs its segments through the
// small FS/File interfaces below instead of calling the os package
// directly. In production the seam is the zero-cost OS passthrough; in
// fault tests it is a *Faulty, which injects programmable failures —
// fail the Nth fsync (one-shot or sticky), report ENOSPC after K bytes,
// tear a write in half — into an otherwise real filesystem. Because the
// plan is a string (see Program), the real situfactd binary can arm it
// from its -fault-plan flag, so crash-style tests exercise child
// processes, not just in-process pools.
//
// Faults fire only on files opened writable through OpenFile: the log's
// segment files. Read-only opens (segment scans, directory fsyncs) always
// pass through, so a fault plan degrades the write path without blinding
// recovery or replication reads.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// File is the slice of *os.File the WAL needs. *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// FS is the slice of the os package the WAL needs.
type FS interface {
	// OpenFile opens a file with the given flags; files opened writable
	// through it are subject to injected faults.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only; never subject to faults.
	Open(name string) (File, error)
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Remove(name string) error
	Rename(oldpath, newpath string) error
}

// OS is the passthrough FS: every call maps 1:1 onto the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // nil interface, not a typed-nil *os.File
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }

// ErrInjected marks every fault this package injects; errors.Is(err,
// ErrInjected) distinguishes a drill from a real device failure.
var ErrInjected = errors.New("injected fault")

// plan is a parsed fault plan. Counters are relative to the moment the
// plan was programmed, not process start.
type plan struct {
	syncNth     uint64        // fail exactly the Nth fsync (one-shot)
	syncFrom    uint64        // fail every fsync from the Nth on (sticky)
	enospcAfter int64         // ENOSPC once cumulative written bytes would exceed this; -1 = off
	shortAt     uint64        // the Nth write persists half its bytes (one-shot)
	clearAfter  time.Duration // auto-clear the plan this long after its first injected fault
	source      string        // the string the plan was parsed from
}

func emptyPlan() plan { return plan{enospcAfter: -1} }

func (p plan) active() bool {
	return p.syncNth > 0 || p.syncFrom > 0 || p.enospcAfter >= 0 || p.shortAt > 0
}

// parsePlan reads a fault-plan string: semicolon-separated clauses, each of
//
//	fsync:nth=N          fail exactly the Nth fsync after programming (one-shot)
//	fsync:from=N         fail every fsync from the Nth on (sticky)
//	write:enospc-after=K writes fail with ENOSPC once K cumulative bytes
//	                     have been written (the crossing write persists a
//	                     partial prefix — a genuine torn frame)
//	write:short-at=N     the Nth write persists only half its bytes
//	clear-after=D        auto-clear the whole plan D after its first
//	                     injected fault (Go duration, e.g. 500ms)
//
// For example "fsync:from=2;clear-after=1s" makes every fsync after the
// first fail, healing itself one second after the first failure.
func parsePlan(s string) (plan, error) {
	p := emptyPlan()
	p.source = s
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return p, fmt.Errorf("faultfs: clause %q: want key=value", clause)
		}
		switch key {
		case "fsync:nth", "fsync:from", "write:short-at":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return p, fmt.Errorf("faultfs: clause %q: want a positive integer", clause)
			}
			switch key {
			case "fsync:nth":
				p.syncNth = n
			case "fsync:from":
				p.syncFrom = n
			case "write:short-at":
				p.shortAt = n
			}
		case "write:enospc-after":
			k, err := strconv.ParseInt(val, 10, 64)
			if err != nil || k < 0 {
				return p, fmt.Errorf("faultfs: clause %q: want a byte count >= 0", clause)
			}
			p.enospcAfter = k
		case "clear-after":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return p, fmt.Errorf("faultfs: clause %q: want a positive duration", clause)
			}
			p.clearAfter = d
		default:
			return p, fmt.Errorf("faultfs: unknown clause %q", clause)
		}
	}
	return p, nil
}

// Stats is a point-in-time snapshot of a Faulty's counters.
type Stats struct {
	Plan           string // the active plan's source string ("" when clear)
	Syncs          uint64 // fsyncs attempted on writable files since programming
	Writes         uint64 // writes attempted on writable files since programming
	BytesWritten   int64  // bytes successfully persisted since programming
	InjectedSyncs  uint64 // fsyncs that failed by injection
	InjectedWrites uint64 // writes that failed by injection
}

// Faulty wraps a base FS and injects faults per the programmed plan.
// Safe for concurrent use; the zero plan injects nothing.
type Faulty struct {
	base FS

	mu      sync.Mutex
	plan    plan
	syncs   uint64 // plan-relative counters
	writes  uint64
	bytes   int64
	injSync uint64
	injWr   uint64
	firedAt time.Time // first injection under the current plan (arms clear-after)
}

// New returns a Faulty over base with no plan programmed.
func New(base FS) *Faulty {
	return &Faulty{base: base, plan: emptyPlan()}
}

// NewWithPlan returns a Faulty with the plan already programmed.
func NewWithPlan(base FS, planStr string) (*Faulty, error) {
	f := New(base)
	if err := f.Program(planStr); err != nil {
		return nil, err
	}
	return f, nil
}

// Program parses and installs a plan (parsePlan has the grammar), resetting
// the plan-relative counters. An empty string is equivalent to Clear.
func (s *Faulty) Program(planStr string) error {
	p, err := parsePlan(planStr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = p
	s.syncs, s.writes, s.bytes = 0, 0, 0
	s.injSync, s.injWr = 0, 0
	s.firedAt = time.Time{}
	return nil
}

// Clear drops the plan; subsequent I/O passes through untouched.
func (s *Faulty) Clear() {
	s.mu.Lock()
	s.plan = emptyPlan()
	s.plan.source = ""
	s.firedAt = time.Time{}
	s.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (s *Faulty) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maybeExpire()
	st := Stats{
		Syncs:          s.syncs,
		Writes:         s.writes,
		BytesWritten:   s.bytes,
		InjectedSyncs:  s.injSync,
		InjectedWrites: s.injWr,
	}
	if s.plan.active() || s.plan.clearAfter > 0 {
		st.Plan = s.plan.source
	}
	return st
}

// arm records the first injection so clear-after can count from it.
// Caller holds mu.
func (s *Faulty) arm() {
	if s.plan.clearAfter > 0 && s.firedAt.IsZero() {
		s.firedAt = time.Now()
	}
}

// maybeExpire clears the plan once clear-after has elapsed since the
// first injection. Caller holds mu.
func (s *Faulty) maybeExpire() {
	if s.plan.clearAfter > 0 && !s.firedAt.IsZero() && time.Since(s.firedAt) >= s.plan.clearAfter {
		s.plan = emptyPlan()
		s.firedAt = time.Time{}
	}
}

// beforeSync decides the fate of one fsync on a writable file.
func (s *Faulty) beforeSync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maybeExpire()
	s.syncs++
	if s.plan.syncNth > 0 && s.syncs == s.plan.syncNth {
		s.plan.syncNth = 0 // one-shot
		s.arm()
		s.injSync++
		return fmt.Errorf("faultfs: fsync %d failed: %w", s.syncs, ErrInjected)
	}
	if s.plan.syncFrom > 0 && s.syncs >= s.plan.syncFrom {
		s.arm()
		s.injSync++
		return fmt.Errorf("faultfs: fsync %d failed (sticky from %d): %w", s.syncs, s.plan.syncFrom, ErrInjected)
	}
	return nil
}

// beforeWrite decides the fate of one n-byte write on a writable file.
// allow is how many bytes the caller should actually write; when err is
// non-nil the caller writes the allow-byte prefix and reports err.
func (s *Faulty) beforeWrite(n int) (allow int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maybeExpire()
	s.writes++
	if s.plan.shortAt > 0 && s.writes == s.plan.shortAt {
		s.plan.shortAt = 0 // one-shot
		s.arm()
		s.injWr++
		allow = n / 2
		return allow, fmt.Errorf("faultfs: write %d torn (%d of %d bytes): %w (%w)",
			s.writes, allow, n, io.ErrShortWrite, ErrInjected)
	}
	if s.plan.enospcAfter >= 0 && s.bytes+int64(n) > s.plan.enospcAfter {
		allow = int(s.plan.enospcAfter - s.bytes)
		if allow < 0 {
			allow = 0
		}
		s.arm()
		s.injWr++
		return allow, fmt.Errorf("faultfs: no space after %d bytes: %w (%w)",
			s.plan.enospcAfter, syscall.ENOSPC, ErrInjected)
	}
	return n, nil
}

func (s *Faulty) wrote(n int) {
	s.mu.Lock()
	s.bytes += int64(n)
	s.mu.Unlock()
}

func (s *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := s.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, nil // opened read-only: exempt from faults
	}
	return &faultyFile{File: f, fs: s}, nil
}

func (s *Faulty) Open(name string) (File, error)               { return s.base.Open(name) }
func (s *Faulty) ReadDir(name string) ([]os.DirEntry, error)   { return s.base.ReadDir(name) }
func (s *Faulty) MkdirAll(path string, perm os.FileMode) error { return s.base.MkdirAll(path, perm) }
func (s *Faulty) Remove(name string) error                     { return s.base.Remove(name) }
func (s *Faulty) Rename(oldpath, newpath string) error         { return s.base.Rename(oldpath, newpath) }

// faultyFile threads a writable file's writes and fsyncs through the
// owning Faulty's plan.
type faultyFile struct {
	File
	fs *Faulty
}

func (f *faultyFile) Write(p []byte) (int, error) {
	allow, injected := f.fs.beforeWrite(len(p))
	if injected == nil {
		n, err := f.File.Write(p)
		f.fs.wrote(n)
		return n, err
	}
	n := 0
	if allow > 0 {
		// Persist the permitted prefix for real: the torn frame must be
		// on disk for recovery to trip over, exactly like a device that
		// ran dry mid-write.
		var err error
		n, err = f.File.Write(p[:allow])
		f.fs.wrote(n)
		if err != nil {
			return n, err
		}
	}
	return n, injected
}

func (f *faultyFile) Sync() error {
	if err := f.fs.beforeSync(); err != nil {
		return err
	}
	return f.File.Sync()
}
