package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// TestAppendAllMatchesAppend pins the batched journal pass: AppendAll's
// frames and LSNs are indistinguishable on replay from the same records
// journaled one at a time, and a batch never straddles a segment: the group
// commit after it writes the whole batch, then seals the segment.
func TestAppendAllMatchesAppend(t *testing.T) {
	recs := make([]Record, 40)
	for i := range recs {
		if i%7 == 3 {
			recs[i] = Record{Type: RecDelete, Shard: i % 3, TupleID: int64(i)}
			continue
		}
		recs[i] = Record{Type: RecAppend, Shard: i % 3,
			Dims:     []string{fmt.Sprintf("team-%d", i), "p", strings.Repeat("v", i)},
			Measures: []float64{float64(i), 0.5},
		}
	}
	// Tiny segments: the single appends seal one every few records, the
	// batches one per batch.
	single, err := OpenWAL(t.TempDir(), WALOptions{Meta: "m", SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	batched, err := OpenWAL(t.TempDir(), WALOptions{Meta: "m", SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()

	for _, rec := range recs {
		if _, err := single.AppendAll([]Record{rec}); err != nil {
			t.Fatal(err)
		}
		if err := single.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Two batches: LSNs must continue contiguously across calls.
	mid := len(recs) / 2
	for b, batch := range [][]Record{recs[:mid], recs[mid:]} {
		last, err := batched.AppendAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64((b + 1) * mid); last != want {
			t.Fatalf("AppendAll %d returned last LSN %d, want %d", b, last, want)
		}
		if err := batched.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	got, want := collect(t, batched), collect(t, single)
	if len(got) != len(want) {
		t.Fatalf("batched log replays %d records, single-append log %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want[i]) {
			t.Fatalf("record %d differs:\n batched %+v\n single  %+v", i, got[i], want[i])
		}
	}
	if gs, ws := batched.Stats(), single.Stats(); gs.Segments != 3 || ws.Segments <= 3 {
		t.Errorf("batched log has %d segments, single-append log %d; want 3, one per batch and the empty active one, and more", gs.Segments, ws.Segments)
	}
}

// gateFS runs segment I/O on the real filesystem, logging every operation
// on a writable file in order; once armed, it blocks the next fsync until
// the test releases it.
type gateFS struct {
	faultfs.FS
	mu   sync.Mutex
	ops  []string
	gate *syncGate
}

// syncGate is one armed fsync: started closes when it begins, and it
// returns the error sent on release.
type syncGate struct {
	started chan struct{}
	release chan error
}

func (g *gateFS) arm() *syncGate {
	gt := &syncGate{started: make(chan struct{}), release: make(chan error, 1)}
	g.mu.Lock()
	g.gate = gt
	g.mu.Unlock()
	return gt
}

func (g *gateFS) log(op string, f faultfs.File) {
	g.mu.Lock()
	g.ops = append(g.ops, op+" "+filepath.Base(f.Name()))
	g.mu.Unlock()
}

func (g *gateFS) logged() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.ops)
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 {
		g.log("create", f)
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	faultfs.File
	fs *gateFS
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.fs.log("write", f)
	return f.File.Write(p)
}

func (f *gateFile) Close() error {
	f.fs.log("close", f)
	return f.File.Close()
}

func (f *gateFile) Sync() error {
	f.fs.log("sync", f)
	f.fs.mu.Lock()
	gt := f.fs.gate
	f.fs.gate = nil
	f.fs.mu.Unlock()
	var err error
	if gt != nil {
		close(gt.started)
		err = <-gt.release
	}
	if err == nil {
		err = f.File.Sync()
	}
	f.fs.log("synced", f)
	return err
}

// checkSegmentOps asserts the one-owner rules on a gateFS log: no file is
// closed while an fsync on it is in flight, and a segment's successor is
// created only once an fsync has covered the segment's last write.
func checkSegmentOps(t *testing.T, ops []string) {
	t.Helper()
	var sealed string // the segment created last, which the next create seals
	for i, op := range ops {
		kind, name, _ := strings.Cut(op, " ")
		switch kind {
		case "close":
			if count(ops[:i], "sync "+name) != count(ops[:i], "synced "+name) {
				t.Fatalf("op %d closes %s with its fsync in flight: %q", i, name, ops[:i+1])
			}
		case "create":
			if sealed != "" && lastIndex(ops[:i], "write "+sealed) > lastIndex(ops[:i], "synced "+sealed) {
				t.Fatalf("op %d creates %s before an fsync covered %s's last write: %q", i, name, sealed, ops[:i+1])
			}
			sealed = name
		}
	}
}

func count(ops []string, op string) (n int) {
	for _, o := range ops {
		if o == op {
			n++
		}
	}
	return n
}

func lastIndex(ops []string, op string) int {
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i] == op {
			return i
		}
	}
	return -1
}

// TestWALSyncSlotOwnsSegment: the group-commit syncer owns the active
// segment. Close and Repair called while its fsync is blocked return only
// after that fsync; an append meanwhile makes no file call, and Stats,
// Err, a covered WaitSync and ReadFrom return without waiting; no file is
// closed with an fsync on it in flight; and every sealed segment is
// fsynced before its successor is created.
func TestWALSyncSlotOwnsSegment(t *testing.T) {
	rec := Record{Type: RecAppend, Dims: []string{"d"}, Measures: []float64{1}}
	open := func(t *testing.T, segBytes int64) (*WAL, *gateFS, string) {
		dir, g := t.TempDir(), &gateFS{FS: faultfs.OS}
		w, err := OpenWAL(dir, WALOptions{Meta: "m", FS: g, SegmentBytes: segBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return w, g, dir
	}
	// during runs op while a group commit's fsync, ending in fsyncErr, is
	// blocked, and returns the group commit's error once op has returned.
	during := func(t *testing.T, w *WAL, g *gateFS, fsyncErr error, op func() error) error {
		lsn, err := w.AppendAll([]Record{rec})
		if err != nil {
			t.Fatal(err)
		}
		gt := g.arm()
		synced := make(chan error, 1)
		go func() { synced <- w.WaitSync(lsn) }()
		<-gt.started
		before := len(g.logged())
		if _, err := w.AppendAll([]Record{rec}); err != nil {
			t.Fatalf("append during the fsync: %v", err)
		}
		if n := len(g.logged()) - before; n != 0 {
			t.Fatalf("append during the fsync made %d file calls", n)
		}
		done := make(chan error, 1)
		go func() { done <- op() }()
		select {
		case err := <-done:
			gt.release <- fsyncErr
			t.Fatalf("returned (%v) while the group commit's fsync was in flight", err)
		case <-time.After(50 * time.Millisecond):
		}
		gt.release <- fsyncErr
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return <-synced
	}
	// replayed reopens dir on the real filesystem and counts its records.
	replayed := func(t *testing.T, dir string) int {
		w, err := OpenWAL(dir, WALOptions{Meta: "m"})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		return len(collect(t, w))
	}

	t.Run("Close", func(t *testing.T) {
		w, g, dir := open(t, 0)
		if err := during(t, w, g, nil, w.Close); err != nil {
			t.Fatalf("the group commit Close waited for: %v", err)
		}
		checkSegmentOps(t, g.logged())
		if n := replayed(t, dir); n != 2 {
			t.Fatalf("closed log replays %d records, want 2", n)
		}
	})

	t.Run("Repair", func(t *testing.T) {
		w, g, dir := open(t, 0)
		repair := func() error {
			if n, err := w.Repair(); err != nil || n != 2 {
				return fmt.Errorf("Repair = %d, %v; want the two unsynced records written again", n, err)
			}
			return nil
		}
		if err := during(t, w, g, faultfs.ErrInjected, repair); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("the group commit Repair waited for = %v, want the injected fault", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		checkSegmentOps(t, g.logged())
		if n := replayed(t, dir); n != 2 {
			t.Fatalf("repaired log replays %d records, want 2", n)
		}
	})

	// reads: while a group commit's fsync is blocked, the reads that need
	// no file write return at once, each seeing the watermark before it.
	t.Run("reads", func(t *testing.T) {
		w, g, _ := open(t, 0)
		if _, err := w.AppendAll([]Record{rec}); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		lsn, err := w.AppendAll([]Record{rec})
		if err != nil {
			t.Fatal(err)
		}
		gt := g.arm()
		synced := make(chan error, 1)
		go func() { synced <- w.WaitSync(lsn) }()
		<-gt.started
		reads := []struct {
			name string
			read func() error
		}{
			{"Stats", func() error {
				if st := w.Stats(); st.SyncedLSN != 1 || st.LastLSN != 2 {
					return fmt.Errorf("stats = %+v, want SyncedLSN 1 < LastLSN 2", st)
				}
				return nil
			}},
			{"Err", w.Err},
			{"WaitSync of a synced LSN", func() error { return w.WaitSync(1) }},
			{"ReadFrom", func() error {
				if recs, last, err := w.ReadFrom(1, 0); err != nil || len(recs) != 1 || last != 1 {
					return fmt.Errorf("ReadFrom(1, 0) = %d records, watermark %d, %v; want the 1 synced record", len(recs), last, err)
				}
				return nil
			}},
		}
		for _, r := range reads {
			done := make(chan error, 1)
			go func() { done <- r.read() }()
			select {
			case err := <-done:
				if err != nil {
					gt.release <- nil
					t.Fatalf("%s during the fsync: %v", r.name, err)
				}
			case <-time.After(5 * time.Second):
				gt.release <- nil
				t.Fatalf("%s waited for the group commit's fsync", r.name)
			}
		}
		gt.release <- nil
		if err := <-synced; err != nil {
			t.Fatal(err)
		}
	})

	// coalesce: a WaitSync queued on the slot behind a group commit that
	// covers its LSN returns without an fsync of its own.
	t.Run("coalesce", func(t *testing.T) {
		w, g, _ := open(t, 0)
		lsn, err := w.AppendAll([]Record{rec})
		if err != nil {
			t.Fatal(err)
		}
		gt := g.arm()
		waits := make(chan error, 2)
		for range 2 {
			go func() { waits <- w.WaitSync(lsn) }()
		}
		<-gt.started
		// Time for the other caller to queue on the slot; one that comes
		// later takes the fast path, so the count below holds either way.
		time.Sleep(50 * time.Millisecond)
		gt.release <- nil
		for range 2 {
			if err := <-waits; err != nil {
				t.Fatal(err)
			}
		}
		fsyncs := 0
		for _, op := range g.logged() {
			if strings.HasPrefix(op, "sync ") {
				fsyncs++
			}
		}
		if fsyncs != 1 {
			t.Fatalf("two WaitSync calls for one record made %d fsyncs, want 1", fsyncs)
		}
	})

	t.Run("seal", func(t *testing.T) {
		w, g, dir := open(t, 64)
		for range 20 {
			if _, err := w.AppendAll([]Record{rec}); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if st := w.Stats(); st.Segments < 4 || st.Syncs != 20 {
			t.Fatalf("stats = %+v, want several segments and one group commit per append", st)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		checkSegmentOps(t, g.logged())
		if n := replayed(t, dir); n != 20 {
			t.Fatalf("sealed log replays %d records, want 20", n)
		}
	})
}

// TestAppendAllOversized pins the all-or-nothing contract: an oversized
// record anywhere in the batch fails the call before anything is
// journaled, without poisoning the log.
func TestAppendAllOversized(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Meta: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	good := Record{Type: RecAppend, Dims: []string{"a"}, Measures: []float64{1}}
	big := Record{Type: RecAppend, Dims: []string{strings.Repeat("x", maxRecordBytes+1)}}
	if _, err := w.AppendAll([]Record{good, big, good}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("AppendAll with an oversized record = %v, want ErrTooLarge", err)
	}
	if st := w.Stats(); st.LastLSN != 0 {
		t.Errorf("failed batch journaled %d records, want 0", st.LastLSN)
	}
	// The log is not poisoned: a clean batch still journals.
	if last, err := w.AppendAll([]Record{good, good}); err != nil || last != 2 {
		t.Fatalf("AppendAll after rejected batch = (%d, %v), want (2, nil)", last, err)
	}
	if last, err := w.AppendAll([]Record{good}); err != nil || last != 3 {
		t.Fatalf("AppendAll after rejected batch = (%d, %v), want (3, nil)", last, err)
	}
}
