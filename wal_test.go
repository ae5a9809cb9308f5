package situfact

import (
	"errors"
	"fmt"
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

// replayRun is the most records a shard writer hands applyShard at once
// (internal/ingest's batch limit): the run a replay applies under one
// shard-lock hold.
const replayRun = 64

// TestWALRecordOfWrongShapeIsDrift: every live append is count-checked
// before it is journaled, so an append record with the wrong number of
// dimension values or of measures cannot be a deterministic re-failure. A
// follower refuses it as drift, naming its LSN: every record before it is
// applied — on four shards, runs of them on every shard — and none after.
func TestWALRecordOfWrongShapeIsDrift(t *testing.T) {
	for _, tc := range []struct {
		name     string
		shards   int
		perShard int // good records per shard before the bad one
		dims     []string
		measures []float64
	}{
		{"one measure of two", 2, 0, []string{"Celtics", "p1", "Jan"}, []float64{3}},
		{"three measures of two", 2, 0, []string{"Celtics", "p1", "Jan"}, []float64{3, 4, 5}},
		{"two dimensions of three", 2, 0, []string{"Celtics", "p1"}, []float64{3, 4}},
		{"every shard of four first", 4, 2*replayRun + 3, []string{"Celtics", "p1", "Jan"}, []float64{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool(poolSchema(t), PoolOptions{Shards: tc.shards, ShardDim: "team"})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			recs := []TailRecord{{LSN: 1, Op: OpAppend, Dims: []string{"Lakers", "p2", "Feb"}, Measures: []float64{1, 2}}}
			// One team per shard, rows dealt round-robin over the shards.
			teams := map[int]string{}
			for i := 0; len(teams) < tc.shards; i++ {
				team := fmt.Sprintf("team%d", i)
				if _, ok := teams[p.ShardFor(team)]; !ok {
					teams[p.ShardFor(team)] = team
				}
			}
			for i := range tc.perShard * tc.shards {
				recs = append(recs, TailRecord{LSN: uint64(len(recs) + 1), Op: OpAppend,
					Dims: []string{teams[i%tc.shards], fmt.Sprint("p", i), "Mar"}, Measures: []float64{float64(i % 7), float64(i % 5)}})
			}
			bad := uint64(len(recs) + 1)
			recs = append(recs, TailRecord{LSN: bad, Op: OpAppend, Dims: tc.dims, Measures: tc.measures})
			for i := range tc.shards {
				recs = append(recs, TailRecord{LSN: uint64(len(recs) + 1), Op: OpAppend,
					Dims: []string{teams[i], "after", "Apr"}, Measures: []float64{9, 9}})
			}
			want := int(bad) - 1
			st, err := p.ApplyTail("epoch", recs, nil)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d has ", bad)) {
				t.Fatalf("ApplyTail = %+v, %v; want an error naming record %d", st, err, bad)
			}
			if st.Applied != want || st.Failed != 0 || st.Records != want+1 || st.LastLSN != bad || p.Len() != want {
				t.Errorf("ApplyTail = %+v, pool holds %d rows; want the %d records before %d alone applied", st, p.Len(), want, bad)
			}
			for s, lsn := range p.ShardLSNs() {
				if lsn >= bad || tc.perShard > 0 && lsn == 0 {
					t.Errorf("shard %d applied up to record %d; want records before %d on every shard and none after", s, lsn, bad)
				}
			}
		})
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
