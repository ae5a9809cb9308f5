package main

import (
	"os"
	"sync"
	"time"

	"repro/internal/faultfs"
)

// countFS is a faultfs.FS over the real filesystem that counts and times
// every Write and Sync on files opened writable — the journal's segment
// files. Passed as WALOptions.FS, it measures what the journal asks of the
// device without touching product code. Read-only opens (segment scans,
// directory fsyncs) pass through uncounted, the same line faultfs.Faulty
// draws.
type countFS struct {
	faultfs.FS

	mu      sync.Mutex
	writes  int64
	bytes   int64
	syncs   int64
	writeNs int64
	syncNs  []float64 // one entry per Sync, nanoseconds
}

func newCountFS() *countFS { return &countFS{FS: faultfs.OS} }

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, nil
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	faultfs.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(start)
	f.fs.mu.Lock()
	f.fs.writes++
	f.fs.bytes += int64(n)
	f.fs.writeNs += int64(d)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.syncNs = append(f.fs.syncNs, float64(d))
	f.fs.mu.Unlock()
	return err
}

// fsCounts is a snapshot of a countFS.
type fsCounts struct {
	writes, bytes, syncs int64
	writeNs              int64
	syncNs               []float64
}

func (c *countFS) snapshot() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounts{writes: c.writes, bytes: c.bytes, syncs: c.syncs, writeNs: c.writeNs,
		syncNs: append([]float64(nil), c.syncNs...)}
}

// since returns the counts accumulated after an earlier snapshot.
func (a fsCounts) since(b fsCounts) fsCounts {
	return fsCounts{
		writes: a.writes - b.writes, bytes: a.bytes - b.bytes, syncs: a.syncs - b.syncs,
		writeNs: a.writeNs - b.writeNs, syncNs: a.syncNs[len(b.syncNs):],
	}
}
