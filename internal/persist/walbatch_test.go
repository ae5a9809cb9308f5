package persist

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestAppendAllMatchesAppend pins the batched journal pass: AppendAll's
// frames and LSNs are indistinguishable on replay from the same records
// journaled one Append at a time, and a batch never straddles a rotation.
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
	// Tiny segments: the single appends rotate every few records, the
	// batches only between the two calls.
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
		if _, err := single.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Two batches: LSNs must continue contiguously across calls.
	mid := len(recs) / 2
	last1, err := batched.AppendAll(recs[:mid])
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(mid); last1 != want {
		t.Fatalf("first AppendAll returned last LSN %d, want %d", last1, want)
	}
	last2, err := batched.AppendAll(recs[mid:])
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(recs)); last2 != want {
		t.Fatalf("second AppendAll returned last LSN %d, want %d", last2, want)
	}
	if err := batched.Sync(); err != nil {
		t.Fatal(err)
	}

	read := func(w *WAL) []Record {
		var out []Record
		if err := w.Replay(func(rec Record) error {
			out = append(out, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := read(batched), read(single)
	if len(got) != len(want) {
		t.Fatalf("batched log replays %d records, single-append log %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want[i]) {
			t.Fatalf("record %d differs:\n batched %+v\n single  %+v", i, got[i], want[i])
		}
	}
	if gs, ws := batched.Stats(), single.Stats(); gs.Segments != 2 || ws.Segments <= 2 {
		t.Errorf("batched log rotated into %d segments, single-append log %d; want 2, one per batch, and more", gs.Segments, ws.Segments)
	}
}

// TestRotateDefersCloseDuringSync pins the fsync/rotation handoff: a
// rotation (or Close) that would close the file an out-of-lock fsync
// holds must defer the close to the syncer instead of pulling the fd out
// from under it.
func TestRotateDefersCloseDuringSync(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Meta: "m", SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// One frame fills a segment, so the next append rotates first.
	rec := Record{Type: RecAppend, Dims: []string{strings.Repeat("d", 128)}, Measures: []float64{1}}

	// Emulate syncNow's pre-fsync half: flush under the lock, grab the
	// handle, mark the fsync in flight. (WaitSync's syncing flag
	// guarantees only one syncer, so faking it here is faithful.)
	if _, err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	f := w.f
	w.syncingF = f
	w.mu.Unlock()

	// "While the fsync runs", an append finds the segment full: rotate
	// must hand the close off instead of closing f under the sync.
	if _, err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	if !w.closeAfterSync {
		t.Error("rotation during an in-flight fsync did not defer the close")
	}
	if w.f == f {
		t.Error("rotation did not open a fresh segment")
	}
	w.mu.Unlock()
	if st := w.Stats(); st.Segments != 2 {
		t.Fatalf("segments = %d, want 2 (rotation must still have happened)", st.Segments)
	}
	// The deferred handle must still be alive — this is the fsync the
	// syncer is notionally executing right now.
	if err := f.Sync(); err != nil {
		t.Fatalf("deferred file handle is dead: %v", err)
	}
	// Emulate the post-fsync half: consume the handoff.
	w.mu.Lock()
	w.syncingF = nil
	if w.closeAfterSync {
		w.closeAfterSync = false
		f.Close()
	}
	w.mu.Unlock()
	if err := f.Sync(); err == nil {
		t.Error("deferred file still open after the syncer consumed the handoff")
	}
	// The log stays fully usable afterwards.
	if _, err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitSync(w.LastLSN()); err != nil {
		t.Fatal(err)
	}
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
	if _, err := w.Append(good); err != nil {
		t.Fatalf("Append after rejected batch: %v", err)
	}
}
