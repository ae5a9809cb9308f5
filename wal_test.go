package situfact

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
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

// TestPoolWALReplayOnly: a fresh pool replaying a WAL (no snapshot at
// all) must equal the pool that wrote it — appends, deletes, tombstones
// and metrics.
func TestPoolWALReplayOnly(t *testing.T) {
	f := newPoolFixture(t)
	reference := newGamelogPool(t)
	defer reference.Close()

	live := newGamelogPool(t)
	w := f.openWAL(t, live)
	if err := live.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	var arrs []*Arrival
	for _, r := range table1Rows[:5] {
		arr, err := live.Append(r.d, r.m)
		if err != nil {
			t.Fatal(err)
		}
		arrs = append(arrs, arr)
		if _, err := reference.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Delete(arrs[3].Shard, arrs[3].TupleID); err != nil {
		t.Fatal(err)
	}
	if err := reference.Delete(arrs[3].Shard, arrs[3].TupleID); err != nil {
		t.Fatal(err)
	}
	// A journaled delete that failed must replay as the same failure.
	if err := live.Delete(arrs[3].Shard, arrs[3].TupleID); err == nil {
		t.Fatal("double delete accepted")
	}
	live.Close() // simulated crash: no snapshot was ever taken
	w.Close()

	recovered := newGamelogPool(t)
	defer recovered.Close()
	w2 := f.openWAL(t, recovered)
	defer w2.Close()
	var replayed []*Arrival
	stats, err := recovered.ReplayWAL(w2, func(a *Arrival) { replayed = append(replayed, a) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 6 || stats.Failed != 1 || stats.Skipped != 0 {
		t.Fatalf("replay stats = %+v, want 6 applied / 1 failed / 0 skipped", stats)
	}
	// An observer sees every replayed append as its original caller did:
	// same handle, same facts in the same order.
	if len(replayed) != 5 {
		t.Fatalf("onArrival saw %d appends, want 5", len(replayed))
	}
	for i, a := range replayed {
		if len(a.Facts) == 0 || !reflect.DeepEqual(a, arrs[i]) {
			t.Fatalf("replayed arrival %d = %d:%d with %d facts, original %d:%d with %d",
				i, a.Shard, a.TupleID, len(a.Facts), arrs[i].Shard, arrs[i].TupleID, len(arrs[i].Facts))
		}
	}
	if err := recovered.AttachWAL(w2); err != nil {
		t.Fatal(err)
	}
	assertPoolsAgree(t, recovered, reference, table1Rows[5:])
	// The tombstone survived replay.
	if err := recovered.Delete(arrs[3].Shard, arrs[3].TupleID); err == nil {
		t.Error("tombstone lost across WAL replay")
	}
}

// TestPoolReplayQuietEquivalence: a journal re-applied with nobody watching
// (nil onArrival: the appends' facts are neither ranked nor rendered) leaves
// exactly the state the same journal leaves under an observer, which is the
// state of the pool that wrote it — work counters (the store's read count
// among them: sizing a fact is a read), index size, every fact group and
// the leaderboard — through crash recovery (ReplayWAL) and through a
// follower's tail apply (ApplyTail) alike, for both lattice families (a
// TopDown pool serves no reads: its counters and its refusal are compared)
// and with prominence off.
func TestPoolReplayQuietEquivalence(t *testing.T) {
	schema := queryTestSchema(t)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"sbottomup", Options{}},
		{"stopdown", Options{Algorithm: AlgoSTopDown}},
		{"noprominence", Options{DisableProminence: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newPool := func() *Pool {
				p, err := NewPool(schema, PoolOptions{Shards: 3, ShardDim: "region", Engine: tc.opt})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				return p
			}
			walDir := t.TempDir()
			writer := newPool()
			w, err := OpenWAL(writer, walDir, WALOptions{SyncInterval: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := writer.AttachWAL(w); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(77))
			appends := 0
			var live []poolHandle
			for i := 0; i < 150; i++ {
				if writer.CanDelete() && len(live) > 4 && i%7 == 0 {
					h := live[rng.Intn(len(live))]
					// Repeats re-fail as "already deleted", at replay too.
					writer.Delete(h.shard, h.id)
					continue
				}
				r := randomRow(rng)
				arr, err := writer.Append(r.Dims, r.Measures)
				if err != nil {
					t.Fatal(err)
				}
				appends++
				live = append(live, poolHandle{shard: arr.Shard, id: arr.TupleID})
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			recs, _, more, err := w.ReadTail(1, 1<<20)
			if err != nil || more {
				t.Fatalf("ReadTail: %d records, more=%v, %v", len(recs), more, err)
			}

			type outcome struct {
				name  string
				pool  *Pool
				stats ReplayStats
			}
			outcomes := []outcome{{name: "writer", pool: writer}}
			for _, watched := range []bool{true, false} {
				seen, facts := 0, int64(0)
				var observer func(*Arrival)
				name := "unobserved"
				if watched {
					name = "observed"
					observer = func(a *Arrival) {
						seen++
						facts += int64(len(a.Facts))
					}
				}
				replayed, tailed := newPool(), newPool()
				rs, err := replayed.ReplayWAL(w, observer)
				if err != nil {
					t.Fatal(err)
				}
				ts, err := tailed.ApplyTail(w.Epoch(), recs, observer)
				if err != nil {
					t.Fatal(err)
				}
				if watched && (seen != 2*appends || facts != 2*writer.Metrics().Facts) {
					t.Fatalf("observer saw %d arrivals with %d facts over two passes, writer reported %d with %d",
						seen, facts, appends, writer.Metrics().Facts)
				}
				outcomes = append(outcomes,
					outcome{"ReplayWAL " + name, replayed, rs}, outcome{"ApplyTail " + name, tailed, ts})
			}

			// Reads compare the pools fact for fact where they are served; a
			// TopDown pool's cells are not the fact set (Invariant 2), so there
			// the counters carry the comparison and every pool refuses alike.
			serving := writer.IndexStats().Serving
			all := FactFilter{Shard: AllShards, TupleID: -1}
			want := outcomes[0]
			var wantFacts, wantTop []QueryFact
			if serving {
				wantFacts = collectPaginated(t, want.pool, all, 0)
				if wantTop, err = want.pool.TopFacts(64); err != nil {
					t.Fatal(err)
				}
				if len(wantFacts) < 64 {
					t.Fatalf("history leaves only %d fact groups", len(wantFacts))
				}
			}
			for _, got := range outcomes[1:] {
				if got.stats != outcomes[1].stats || got.stats.Applied < appends {
					t.Errorf("%s: stats %+v, ReplayWAL observed %+v", got.name, got.stats, outcomes[1].stats)
				}
				if g, w := got.pool.Metrics(), want.pool.Metrics(); g != w {
					t.Errorf("%s: Metrics %+v, writer %+v", got.name, g, w)
				}
				if !serving {
					checkReadsRefused(t, got.pool)
					continue
				}
				if g, w := got.pool.IndexStats().Entries, want.pool.IndexStats().Entries; g != w {
					t.Errorf("%s: %d index entries, writer %d", got.name, g, w)
				}
				if !sameQueryFacts(collectPaginated(t, got.pool, all, 0), wantFacts) {
					t.Errorf("%s: the fact set differs from the writer's", got.name)
				}
				top, err := got.pool.TopFacts(64)
				if err != nil {
					t.Fatal(err)
				}
				if !sameQueryFacts(top, wantTop) {
					t.Errorf("%s: TopFacts(64) differs from the writer's", got.name)
				}
			}
		})
	}
}

// TestPoolCheckpointPlusTail: recovery = newest checkpoint + WAL tail.
// The checkpoint covers a prefix; replay must apply exactly the records
// after each shard's snapshot LSN, even after the covered segments are
// truncated away.
func TestPoolCheckpointPlusTail(t *testing.T) {
	f := newPoolFixture(t)
	reference := newGamelogPool(t)
	defer reference.Close()

	live := newGamelogPool(t)
	w := f.openWAL(t, live)
	if err := live.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	feed := func(p *Pool, rows []struct {
		d []string
		m []float64
	}) {
		for _, r := range rows {
			if _, err := p.Append(r.d, r.m); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(live, table1Rows[:4])
	feed(reference, table1Rows[:4])
	stats, err := live.Checkpoint(f.stateDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generation != 1 {
		t.Fatalf("generation = %d, want 1", stats.Generation)
	}
	if stats.TruncatableLSN == 0 {
		t.Fatal("TruncatableLSN = 0 with a WAL attached and records journaled")
	}
	if err := w.TruncateBefore(stats.TruncatableLSN + 1); err != nil {
		t.Fatal(err)
	}
	// The tail: two more appends after the checkpoint.
	feed(live, table1Rows[4:6])
	feed(reference, table1Rows[4:6])
	live.Close()
	w.Close()

	recovered, sidecars, err := RestorePool(gamelogSchema(t), f.stateDir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	w2 := f.openWAL(t, recovered)
	defer w2.Close()
	if len(sidecars) != 0 {
		t.Fatalf("unexpected sidecars %v", sidecars)
	}
	rstats, err := recovered.ReplayWAL(w2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Applied != 2 {
		t.Fatalf("replayed %d records after checkpoint, want exactly the 2-record tail (stats %+v)", rstats.Applied, rstats)
	}
	if err := recovered.AttachWAL(w2); err != nil {
		t.Fatal(err)
	}
	assertPoolsAgree(t, recovered, reference, table1Rows[6:])
}

// TestSnapshotPlusReplayEqualsReplayOnly: the two recovery paths — newest
// snapshot + tail, and full-log replay into a fresh pool — must converge
// on identical state.
func TestSnapshotPlusReplayEqualsReplayOnly(t *testing.T) {
	f := newPoolFixture(t)
	live := newGamelogPool(t)
	w := f.openWAL(t, live)
	if err := live.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	var arrs []*Arrival
	for _, r := range table1Rows[:4] {
		arr, err := live.Append(r.d, r.m)
		if err != nil {
			t.Fatal(err)
		}
		arrs = append(arrs, arr)
	}
	if _, err := live.Checkpoint(f.stateDir, nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range table1Rows[4:] {
		if _, err := live.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Delete(arrs[2].Shard, arrs[2].TupleID); err != nil {
		t.Fatal(err)
	}
	live.Close()
	w.Close()

	// Path A: snapshot + tail. Note the WAL was NOT truncated, so replay
	// must skip the covered prefix via the manifest's shard LSNs.
	fromSnap, _, err := RestorePool(gamelogSchema(t), f.stateDir)
	if err != nil {
		t.Fatal(err)
	}
	defer fromSnap.Close()
	wa := f.openWAL(t, fromSnap)
	defer wa.Close()
	sstats, err := fromSnap.ReplayWAL(wa, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Skipped != 4 || sstats.Applied != 4 {
		t.Fatalf("snapshot-path replay stats = %+v, want 4 skipped / 4 applied", sstats)
	}

	// Path B: replay-only.
	fromLog := newGamelogPool(t)
	defer fromLog.Close()
	if _, err := fromLog.ReplayWAL(wa, nil); err != nil {
		t.Fatal(err)
	}

	if a, b := fromSnap.Metrics(), fromLog.Metrics(); a != b {
		t.Fatalf("metrics diverge: snapshot+tail %+v, replay-only %+v", a, b)
	}
	if a, b := fromSnap.Len(), fromLog.Len(); a != b {
		t.Fatalf("len diverges: %d vs %d", a, b)
	}
	// Both continue identically.
	extra := struct {
		d []string
		m []float64
	}{[]string{"Jordan", "Jun", "1997-98", "Bulls", "Jazz"}, []float64{45, 5, 7}}
	fa, err := fromSnap.Append(extra.d, extra.m)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fromLog.Append(extra.d, extra.m)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Shard != fb.Shard || fa.TupleID != fb.TupleID || len(fa.Facts) != len(fb.Facts) {
		t.Fatalf("post-recovery arrival diverges: %d:%d/%d facts vs %d:%d/%d facts",
			fa.Shard, fa.TupleID, len(fa.Facts), fb.Shard, fb.TupleID, len(fb.Facts))
	}
	for i := range fa.Facts {
		if fa.Facts[i].String() != fb.Facts[i].String() {
			t.Fatalf("fact %d: %q vs %q", i, fa.Facts[i].String(), fb.Facts[i].String())
		}
	}
}

// TestCheckpointSyncsCoveredRecords: the manifest durably pins the
// captured per-shard LSNs, so Checkpoint must fsync the WAL through them
// first. Otherwise a crash loses a buffered record whose LSN the
// manifest already claims, the reopened log reassigns that LSN to a new
// acknowledged operation, and a later recovery skips it as "already in
// the snapshot". Interval-sync mode exposes the window: appends are
// acknowledged before any fsync.
func TestCheckpointSyncsCoveredRecords(t *testing.T) {
	f := newPoolFixture(t)
	p := newGamelogPool(t)
	defer p.Close()
	w, err := OpenWAL(p, f.walDir, WALOptions{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := p.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	for _, r := range table1Rows[:3] {
		if _, err := p.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.SyncedLSN != 0 {
		t.Fatalf("pre-checkpoint synced LSN = %d; interval mode should not have fsynced yet", st.SyncedLSN)
	}
	if _, err := p.Checkpoint(f.stateDir, nil); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.SyncedLSN < 3 {
		t.Fatalf("synced LSN = %d after checkpoint; the manifest pins LSNs up to 3, which must be durable", st.SyncedLSN)
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

// TestPoolAppendBatchWithWAL: the batch path journals too, and a batch is
// recoverable record-by-record.
func TestPoolAppendBatchWithWAL(t *testing.T) {
	f := newPoolFixture(t)
	reference := newGamelogPool(t)
	defer reference.Close()
	live := newGamelogPool(t)
	w := f.openWAL(t, live)
	if err := live.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, len(table1Rows))
	for i, r := range table1Rows {
		rows[i] = Row{Dims: r.d, Measures: r.m}
	}
	if _, err := live.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := reference.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.LastLSN != uint64(len(rows)) || st.SyncedLSN != st.LastLSN {
		t.Fatalf("wal stats = %+v, want %d journaled and synced", st, len(rows))
	}
	live.Close()
	w.Close()

	recovered := newGamelogPool(t)
	defer recovered.Close()
	w2 := f.openWAL(t, recovered)
	defer w2.Close()
	if _, err := recovered.ReplayWAL(w2, nil); err != nil {
		t.Fatal(err)
	}
	if g, want := recovered.Metrics(), reference.Metrics(); g != want {
		t.Fatalf("recovered batch metrics = %+v, want %+v", g, want)
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

// TestPoolDeleteUnsupportedNotJournaled: a Delete against a TopDown-family
// pool must be rejected BEFORE it reaches the journal — a RecDelete such a
// pool can never apply would make every future replay of the log fatal,
// bricking the daemon's restarts.
func TestPoolDeleteUnsupportedNotJournaled(t *testing.T) {
	f := newPoolFixture(t)
	newTopDownPool := func() *Pool {
		p, err := NewPool(gamelogSchema(t), PoolOptions{
			Shards: 3, ShardDim: "team",
			Engine: Options{Algorithm: AlgoSTopDown},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	live := newTopDownPool()
	if live.CanDelete() {
		t.Fatal("stopdown pool must not report CanDelete")
	}
	w := f.openWAL(t, live)
	if err := live.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	arr, err := live.Append(table1Rows[0].d, table1Rows[0].m)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Delete(arr.Shard, arr.TupleID); !errors.Is(err, ErrDeleteUnsupported) {
		t.Fatalf("delete on stopdown pool: err %v, want ErrDeleteUnsupported", err)
	}
	if st := w.Stats(); st.LastLSN != 1 {
		t.Fatalf("wal holds %d records after a rejected delete, want only the 1 append", st.LastLSN)
	}
	live.Close()
	w.Close()

	// The restart the rejected delete must not poison.
	recovered := newTopDownPool()
	defer recovered.Close()
	w2 := f.openWAL(t, recovered)
	defer w2.Close()
	stats, err := recovered.ReplayWAL(w2, nil)
	if err != nil {
		t.Fatalf("replay after a rejected delete: %v", err)
	}
	if stats.Applied != 1 || stats.Failed != 0 {
		t.Fatalf("replay stats = %+v, want 1 applied / 0 failed", stats)
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
