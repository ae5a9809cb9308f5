package situfact

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/persist"
)

// poolFixture holds the state-dir layout the WAL tests share.
type poolFixture struct {
	stateDir string
	walDir   string
}

func newPoolFixture(t *testing.T) poolFixture {
	dir := t.TempDir()
	return poolFixture{stateDir: dir, walDir: filepath.Join(dir, "wal")}
}

func (f poolFixture) openWAL(t *testing.T, p *Pool) *WAL {
	t.Helper()
	w, err := OpenWAL(p, f.walDir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newGamelogPool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPool(gamelogSchema(t), PoolOptions{Shards: 3, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// assertPoolsAgree streams rows into both pools and fails on any
// divergence in routing, facts, metrics or tuple counts.
func assertPoolsAgree(t *testing.T, got, want *Pool, rows []struct {
	d []string
	m []float64
}) {
	t.Helper()
	if g, w := got.Len(), want.Len(); g != w {
		t.Fatalf("Len = %d, want %d", g, w)
	}
	if g, w := got.Metrics(), want.Metrics(); g != w {
		t.Fatalf("Metrics = %+v, want %+v", g, w)
	}
	for _, r := range rows {
		wa, err := want.Append(r.d, r.m)
		if err != nil {
			t.Fatal(err)
		}
		ga, err := got.Append(r.d, r.m)
		if err != nil {
			t.Fatal(err)
		}
		if ga.Shard != wa.Shard || ga.TupleID != wa.TupleID {
			t.Fatalf("routing diverged: %d:%d vs %d:%d", ga.Shard, ga.TupleID, wa.Shard, wa.TupleID)
		}
		if len(ga.Facts) != len(wa.Facts) {
			t.Fatalf("tuple %d: %d facts vs %d", wa.TupleID, len(ga.Facts), len(wa.Facts))
		}
		for i := range wa.Facts {
			if ga.Facts[i].String() != wa.Facts[i].String() {
				t.Fatalf("tuple %d fact %d: %q vs %q", wa.TupleID, i, ga.Facts[i].String(), wa.Facts[i].String())
			}
		}
	}
}

// TestCheckpointSyncsCoveredRecords: the manifest durably pins the
// captured per-shard LSNs, so Checkpoint must fsync the WAL through them
// first. Otherwise a crash loses a buffered record whose LSN the
// manifest already claims, the reopened log reassigns that LSN to a new
// acknowledged operation, and a later recovery skips it as "already in
// the snapshot". The window is an op between its journal pass and its
// durability wait: applyShard without commit leaves the records there.
func TestCheckpointSyncsCoveredRecords(t *testing.T) {
	f := newPoolFixture(t)
	p := newGamelogPool(t)
	defer p.Close()
	w := f.openWAL(t, p)
	defer w.Close()
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	var pinned uint64
	for _, r := range table1Rows[:3] {
		op := ingestOp{rec: persist.Record{Type: persist.RecAppend, Shard: p.ShardFor(r.d[p.shardDim]), Dims: r.d, Measures: r.m}}
		if pinned = p.applyShard(op.rec.Shard, []*ingestOp{&op}); op.err != nil {
			t.Fatal(op.err)
		}
	}
	if st := w.Stats(); st.SyncedLSN >= pinned {
		t.Fatalf("pre-checkpoint synced LSN = %d: the journaled-but-uncommitted records up to %d are already durable", st.SyncedLSN, pinned)
	}
	if _, err := p.Checkpoint(f.stateDir, nil); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.SyncedLSN < pinned {
		t.Fatalf("synced LSN = %d after checkpoint; the manifest pins LSNs up to %d, which must be durable", st.SyncedLSN, pinned)
	}
}

// TestCheckpointWatermarksCoverTruncation: the truncation point a
// checkpoint reports and the per-shard watermarks its manifest pins must
// agree — both are the log head seen under each shard's lock. A shard the
// hash routes no recent rows to used to keep its low lastLSN in the
// manifest while TruncatableLSN was taken from the head, so a follower
// restored from the snapshot computed a tail cursor below the leader's
// truncation point and met a gap it could never close.
func TestCheckpointWatermarksCoverTruncation(t *testing.T) {
	rows := poolRows(61)
	snapDir, walDir := t.TempDir(), t.TempDir()
	p, err := NewPool(poolSchema(t), PoolOptions{Shards: 3, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Tiny segments, so truncation has whole segments to drop.
	w, err := OpenWAL(p, walDir, WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[:60] {
		if _, err := p.Append(r.Dims, r.Measures); err != nil {
			t.Fatal(err)
		}
	}
	st, err := p.Checkpoint(snapDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TruncatableLSN != 60 {
		t.Fatalf("TruncatableLSN = %d, want the log head 60", st.TruncatableLSN)
	}
	if err := w.TruncateBefore(st.TruncatableLSN + 1); err != nil {
		t.Fatal(err)
	}

	follower, _, err := RestorePool(poolSchema(t), snapDir)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	cursor := follower.TailCursor()
	if cursor != st.TruncatableLSN+1 {
		t.Fatalf("restored pool tails from LSN %d (watermarks %v), but the checkpoint let the leader truncate through %d",
			cursor, follower.ShardLSNs(), st.TruncatableLSN)
	}
	if _, err := p.Append(rows[60].Dims, rows[60].Measures); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := w.ReadTail(cursor, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != cursor {
		t.Fatalf("ReadTail(%d) = %+v, want exactly record %d", cursor, recs, cursor)
	}
	as, err := follower.ApplyTail(w.Epoch(), recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if as.Applied != 1 || follower.Len() != p.Len() || follower.Metrics() != p.Metrics() {
		t.Errorf("follower applied %d, len %d, metrics %+v; leader len %d, metrics %+v",
			as.Applied, follower.Len(), follower.Metrics(), p.Len(), p.Metrics())
	}
}

// TestCheckpointSidecars: sidecar payloads commit atomically with the
// snapshot and come back from RestorePool.
func TestCheckpointSidecars(t *testing.T) {
	f := newPoolFixture(t)
	p := newGamelogPool(t)
	if _, err := p.Append(table1Rows[0].d, table1Rows[0].m); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"leaderboard": []byte(`[{"id":"0:0"}]`)}
	if _, err := p.Checkpoint(f.stateDir, func() (map[string][]byte, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	restored, sidecars, err := RestorePool(gamelogSchema(t), f.stateDir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if !reflect.DeepEqual(sidecars, want) {
		t.Fatalf("sidecars = %v, want %v", sidecars, want)
	}
}

func TestAttachWALErrors(t *testing.T) {
	f := newPoolFixture(t)
	p := newGamelogPool(t)
	defer p.Close()
	if err := p.AttachWAL(nil); err == nil {
		t.Error("nil WAL accepted")
	}
	w := f.openWAL(t, p)
	defer w.Close()
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(w); err == nil {
		t.Error("second AttachWAL accepted")
	}
	if _, err := p.ReplayWAL(w, nil); err == nil {
		t.Error("ReplayWAL after AttachWAL accepted — would re-journal the log into itself")
	}
}

// TestWALLayoutBinding: RecDelete coordinates are (shard, per-shard tuple
// id), meaningful only under the layout that assigned them — a log must
// refuse to open under a different shard count or routing dimension, and a
// WAL opened for one pool must refuse to serve another.
func TestWALLayoutBinding(t *testing.T) {
	f := newPoolFixture(t)
	live := newGamelogPool(t) // 3 shards over "team"
	w := f.openWAL(t, live)
	if err := live.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Append(table1Rows[0].d, table1Rows[0].m); err != nil {
		t.Fatal(err)
	}
	live.Close()
	w.Close()

	for _, tc := range []struct {
		name string
		opt  PoolOptions
	}{
		{"shard count", PoolOptions{Shards: 5, ShardDim: "team"}},
		{"shard dimension", PoolOptions{Shards: 3, ShardDim: "opp_team"}},
	} {
		p, err := NewPool(gamelogSchema(t), tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenWAL(p, f.walDir, WALOptions{}); err == nil {
			t.Errorf("log reopened under a different %s", tc.name)
		}
		p.Close()
	}

	// Same-process mismatch: a WAL opened for pool A must not attach to or
	// replay into a differently-laid-out pool B.
	a := newGamelogPool(t)
	defer a.Close()
	wa := f.openWAL(t, a)
	defer wa.Close()
	b, err := NewPool(gamelogSchema(t), PoolOptions{Shards: 5, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.AttachWAL(wa); err == nil {
		t.Error("AttachWAL accepted a WAL opened under a different layout")
	}
	if _, err := b.ReplayWAL(wa, nil); err == nil {
		t.Error("ReplayWAL accepted a WAL opened under a different layout")
	}
}

// TestWALEpochMismatchResetsWatermarks: snapshot LSN watermarks are only
// meaningful against the exact log instance they were captured from. If
// the operator discards the journal (the documented way to drop it), the
// replacement log's LSNs count from 1 again — recovery must NOT skip
// them against the old manifest's high watermarks, or acknowledged rows
// vanish.
func TestWALEpochMismatchResetsWatermarks(t *testing.T) {
	f := newPoolFixture(t)
	reference := newGamelogPool(t)
	defer reference.Close()

	// Run 1: journal four rows, checkpoint (manifest pins epoch-1 LSNs).
	run1 := newGamelogPool(t)
	w1 := f.openWAL(t, run1)
	if err := run1.AttachWAL(w1); err != nil {
		t.Fatal(err)
	}
	for _, r := range table1Rows[:4] {
		if _, err := run1.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
		if _, err := reference.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run1.Checkpoint(f.stateDir, nil); err != nil {
		t.Fatal(err)
	}
	run1.Close()
	w1.Close()

	// The operator discards the journal; a fresh log gets a new epoch.
	if err := os.RemoveAll(f.walDir); err != nil {
		t.Fatal(err)
	}

	// Run 2: recover, ingest two more rows into the fresh log (LSNs 1-2),
	// then crash without checkpointing.
	run2, _, err := RestorePool(gamelogSchema(t), f.stateDir)
	if err != nil {
		t.Fatal(err)
	}
	w2 := f.openWAL(t, run2)
	if _, err := run2.ReplayWAL(w2, nil); err != nil {
		t.Fatal(err)
	}
	if err := run2.AttachWAL(w2); err != nil {
		t.Fatal(err)
	}
	for _, r := range table1Rows[4:6] {
		if _, err := run2.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
		if _, err := reference.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	run2.Close()
	w2.Close()

	// Run 3: the manifest still pins epoch-1 LSNs up to 4, the log is
	// epoch 2 with records 1-2. Both acknowledged rows must replay.
	run3, _, err := RestorePool(gamelogSchema(t), f.stateDir)
	if err != nil {
		t.Fatal(err)
	}
	defer run3.Close()
	w3 := f.openWAL(t, run3)
	defer w3.Close()
	stats, err := run3.ReplayWAL(w3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 2 || stats.Skipped != 0 {
		t.Fatalf("replay stats = %+v, want the fresh log's 2 records applied, none skipped", stats)
	}
	if err := run3.AttachWAL(w3); err != nil {
		t.Fatal(err)
	}
	assertPoolsAgree(t, run3, reference, table1Rows[6:])
}

// TestPoolRejectedRowsNotJournaled: rows the pool must reject — wrong
// measure count, or an encoding over the WAL's per-record cap — are
// refused BEFORE journaling (the log must hold no garbage records), and
// the oversize rejection is ErrRowTooLarge, a request defect distinct
// from the retryable ErrWALFailed.
func TestPoolRejectedRowsNotJournaled(t *testing.T) {
	f := newPoolFixture(t)
	p := newGamelogPool(t)
	defer p.Close()
	w := f.openWAL(t, p)
	defer w.Close()
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(table1Rows[0].d, []float64{1, 2}); err == nil {
		t.Error("short measure row accepted")
	}
	big := append([]string{strings.Repeat("x", 16<<20)}, table1Rows[0].d[1:]...)
	if _, err := p.Append(big, table1Rows[0].m); !errors.Is(err, ErrRowTooLarge) || errors.Is(err, ErrWALFailed) {
		t.Errorf("oversized append: err %v, want ErrRowTooLarge and not ErrWALFailed", err)
	}
	if _, err := p.AppendBatch([]Row{{Dims: big, Measures: table1Rows[0].m}}); !errors.Is(err, ErrRowTooLarge) {
		t.Errorf("oversized batch row: err %v, want ErrRowTooLarge", err)
	}
	if st := w.Stats(); st.LastLSN != 0 {
		t.Fatalf("wal holds %d records after only rejected rows", st.LastLSN)
	}
	// The rejections left the WAL healthy.
	if _, err := p.Append(table1Rows[0].d, table1Rows[0].m); err != nil {
		t.Fatalf("append after rejections: %v", err)
	}
}

// TestWALFailedClassification: a journal failure surfaces as
// ErrWALFailed — a daemon-side fault, distinct from request defects.
func TestWALFailedClassification(t *testing.T) {
	f := newPoolFixture(t)
	p := newGamelogPool(t)
	defer p.Close()
	w := f.openWAL(t, p)
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	w.Close() // the pool's journal is now gone
	_, err := p.Append(table1Rows[0].d, table1Rows[0].m)
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append over closed WAL: err %v, want ErrWALFailed", err)
	}
	if _, err := p.AppendBatch([]Row{{Dims: table1Rows[0].d, Measures: table1Rows[0].m}}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("batch over closed WAL: err %v, want ErrWALFailed", err)
	}
	if err := p.Delete(0, 0); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("delete over closed WAL: err %v, want ErrWALFailed", err)
	}
}

// TestWALRepairKeepsHandles runs the WAL's write path through each class of
// fault it meets. The append a fault strikes is applied yet refused with
// ErrWALFailed, and the next one is refused and not applied, until Repair.
// After the repair an append Y, an append Z and the delete of Y by the
// handle it was acked with must leave, on a follower applying the log and
// replayed after a crash, the live pool's state: its snapshot, tuple ids
// and tombstones included.
func TestWALRepairKeepsHandles(t *testing.T) {
	for _, plan := range []string{
		"fsync:nth=3",            // one fsync fails; the log stays poisoned until repaired
		"fsync:from=2",           // every fsync fails
		"write:enospc-after=600", // the disk fills mid-frame
		"write:short-at=2",       // a write is torn
	} {
		t.Run(plan, func(t *testing.T) {
			dir, faults := t.TempDir(), faultfs.New(faultfs.OS)
			newPool := func() *Pool {
				p, err := NewPool(queryTestSchema(t), PoolOptions{Shards: 2, ShardDim: "region"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				return p
			}
			live := newPool()
			w, err := OpenWAL(live, dir, WALOptions{FS: faults})
			if err != nil {
				t.Fatal(err)
			}
			if err := live.AttachWAL(w); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			// add appends a row and reports whether the pool applied it; ok
			// requires it acknowledged.
			add := func() (*Arrival, bool, error) {
				r, before := randomRow(rng), live.Len()
				arr, err := live.Append(r.Dims, r.Measures)
				return arr, live.Len() > before, err
			}
			ok := func() *Arrival {
				arr, _, err := add()
				if err != nil {
					t.Fatal(err)
				}
				return arr
			}
			for range 3 {
				ok()
			}
			if err := faults.Program(plan); err != nil {
				t.Fatal(err)
			}
			_, applied, err := add()
			for n := 1; err == nil && n < 64; n++ {
				_, applied, err = add()
			}
			if !errors.Is(err, ErrWALFailed) || !applied {
				t.Fatalf("the append the fault struck: %v, applied %v; want ErrWALFailed, applied", err, applied)
			}
			if _, applied, err = add(); !errors.Is(err, ErrWALFailed) || applied {
				t.Fatalf("append on the poisoned log: %v, applied %v; want ErrWALFailed, not applied", err, applied)
			}
			faults.Clear()
			if n, err := w.Repair(); err != nil || n != 1 {
				t.Fatalf("Repair = %d, %v; want the struck append's record written again", n, err)
			}
			y := ok()
			ok()
			if err := live.Delete(y.Shard, y.TupleID); err != nil {
				t.Fatal(err)
			}

			follower := newPool()
			recs, _, _, err := w.ReadTail(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := follower.ApplyTail(w.Epoch(), recs, nil); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			replayed := newPool()
			rw, err := OpenWAL(replayed, dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer rw.Close()
			if _, err := replayed.ReplayWAL(rw, nil); err != nil {
				t.Fatal(err)
			}
			for name, p := range map[string]*Pool{"follower": follower, "replay": replayed} {
				if !reflect.DeepEqual(snapshotsOf(t, p), snapshotsOf(t, live)) {
					t.Errorf("%s: %d tuples live, the live pool %d, and their snapshots differ", name, p.Len(), live.Len())
				}
			}
		})
	}
}
