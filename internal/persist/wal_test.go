package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultfs"
)

func appendRec(i int) Record {
	return Record{
		Type:     RecAppend,
		Shard:    i % 3,
		Dims:     []string{fmt.Sprintf("team-%d", i%5), fmt.Sprintf("player-%d", i)},
		Measures: []float64{float64(i), float64(i) * 0.5},
	}
}

func collect(t *testing.T, w *WAL) []Record {
	t.Helper()
	var out []Record
	if err := w.Replay(func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Meta: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 10; i++ {
		rec := appendRec(i)
		lsn, err := w.AppendAll([]Record{rec})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		rec.LSN = lsn
		want = append(want, rec)
	}
	del := Record{Type: RecDelete, Shard: 2, TupleID: 7}
	lsn, err := w.AppendAll([]Record{del})
	if err != nil {
		t.Fatal(err)
	}
	del.LSN = lsn
	want = append(want, del)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: records survive, LSNs continue.
	w2, err := OpenWAL(dir, WALOptions{Meta: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collect(t, w2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after reopen mismatch")
	}
	if lsn, err := w2.AppendAll([]Record{appendRec(99)}); err != nil || lsn != uint64(len(want)+1) {
		t.Fatalf("post-reopen append: lsn %d err %v, want %d", lsn, err, len(want)+1)
	}
}

func TestWALMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Meta: "schema-a"})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := OpenWAL(dir, WALOptions{Meta: "schema-b"}); err == nil {
		t.Error("log written under another schema accepted")
	}
}

func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Meta: "sig", SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("got %d segments, want rotation to have produced several", st.Segments)
	}
	// Every group commit, seals included, advanced the watermark by one.
	if st.LastLSN != n || st.SyncedLSN != n || st.Syncs != n {
		t.Fatalf("stats = %+v, want last/synced/syncs %d", st, n)
	}
	// A segment is sealed at the first group commit past the threshold.
	bases, err := listSegments(faultfs.OS, dir)
	if err != nil || len(bases) != st.Segments {
		t.Fatalf("%d segment files (%v), stats say %d", len(bases), err, st.Segments)
	}
	for _, base := range bases[:len(bases)-1] {
		if fi, err := os.Stat(segmentPath(dir, base)); err != nil || fi.Size() < 128 {
			t.Fatalf("sealed segment %d: %v, %v; want at least 128 bytes", base, fi, err)
		}
	}
	if got := collect(t, w); len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}

	// Truncating below LSN 30 removes whole segments but keeps every
	// record ≥ 30 (and possibly earlier ones sharing a kept segment).
	if err := w.TruncateBefore(30); err != nil {
		t.Fatal(err)
	}
	after := w.Stats()
	if after.Segments >= st.Segments {
		t.Fatalf("truncate removed nothing: %d → %d segments", st.Segments, after.Segments)
	}
	got := collect(t, w)
	if len(got) == 0 || got[len(got)-1].LSN != n {
		t.Fatalf("tail lost by truncate")
	}
	if got[0].LSN > 30 {
		t.Fatalf("first surviving lsn %d > 30: truncate cut a covered record's segment too early", got[0].LSN)
	}
	for i := 1; i < len(got); i++ {
		if got[i].LSN != got[i-1].LSN+1 {
			t.Fatalf("gap after truncate at %d", got[i].LSN)
		}
	}
	w.Close()

	// Reopen after truncation: appends continue from the same LSN.
	w2, err := OpenWAL(dir, WALOptions{Meta: "sig", SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if lsn, err := w2.AppendAll([]Record{appendRec(0)}); err != nil || lsn != n+1 {
		t.Fatalf("append after reopen: lsn %d err %v, want %d", lsn, err, n+1)
	}
}

// TestWALTornFinalRecord: a crash mid-write leaves an incomplete record at
// the tail; Open truncates it away and the log continues from the last
// complete record.
func TestWALTornFinalRecord(t *testing.T) {
	for _, cut := range []int{1, 5, frameHeaderLen + 2} { // torn header, torn header, torn payload
		dir := t.TempDir()
		w, err := OpenWAL(dir, WALOptions{Meta: "sig"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		seg := segmentPath(dir, 1)
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate the torn write: append a record, then cut it short.
		full, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		frame := appendFrame(nil, Record{LSN: 6, Type: RecDelete, Shard: 0, TupleID: 1})
		if cut >= len(frame) {
			t.Fatalf("cut %d ≥ frame %d", cut, len(frame))
		}
		if err := os.WriteFile(seg, append(full, frame[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}

		w2, err := OpenWAL(dir, WALOptions{Meta: "sig"})
		if err != nil {
			t.Fatalf("cut=%d: open after torn tail: %v", cut, err)
		}
		got := collect(t, w2)
		if len(got) != 5 {
			t.Fatalf("cut=%d: %d records after torn-tail repair, want 5", cut, len(got))
		}
		if lsn, err := w2.AppendAll([]Record{appendRec(9)}); err != nil || lsn != 6 {
			t.Fatalf("cut=%d: append after repair: lsn %d err %v, want 6", cut, lsn, err)
		}
		if err := w2.Sync(); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		if after, err := os.Stat(seg); err != nil || after.Size() <= info.Size() {
			t.Fatalf("cut=%d: repaired segment size %v, want the tail truncated then re-extended", cut, after.Size())
		}
	}
}

// TestWALTornFinalRecordFullLength: power loss can persist the final
// record's size extension without its data — a full-length frame that is
// zero-filled or half-written, not a short read. Open must repair these
// like any torn tail: that region was never covered by a successful
// fsync.
func TestWALTornFinalRecordFullLength(t *testing.T) {
	frame := appendFrame(nil, Record{LSN: 6, Type: RecAppend, Shard: 1,
		Dims: []string{"team", "player"}, Measures: []float64{1, 2}})
	for name, tear := range map[string]func([]byte) []byte{
		"zero-filled": func(full []byte) []byte {
			return append(full, make([]byte, len(frame))...)
		},
		"half-persisted payload": func(full []byte) []byte {
			torn := append([]byte(nil), frame...)
			for i := len(torn) / 2; i < len(torn); i++ {
				torn[i] = 0 // later blocks lost, read back as zeros
			}
			return append(full, torn...)
		},
		"zero-fill past the frame": func(full []byte) []byte {
			torn := append([]byte(nil), frame...)
			for i := len(torn) - 4; i < len(torn); i++ {
				torn[i] = 0
			}
			return append(append(full, torn...), make([]byte, 4096)...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, WALOptions{Meta: "sig"})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			seg := segmentPath(dir, 1)
			full, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tear(full), 0o644); err != nil {
				t.Fatal(err)
			}
			w2, err := OpenWAL(dir, WALOptions{Meta: "sig"})
			if err != nil {
				t.Fatalf("open after %s torn tail: %v", name, err)
			}
			defer w2.Close()
			if got := collect(t, w2); len(got) != 5 {
				t.Fatalf("%d records after repair, want 5", len(got))
			}
			if lsn, err := w2.AppendAll([]Record{appendRec(9)}); err != nil || lsn != 6 {
				t.Fatalf("append after repair: lsn %d err %v, want 6", lsn, err)
			}
		})
	}
}

// TestWALCRCMismatch: a full record with a bad checksum is corruption and
// must fail loudly, not be silently skipped or treated as a torn tail.
func TestWALCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Meta: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	seg := segmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // flip a byte inside some record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, WALOptions{Meta: "sig"}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt segment: err %v, want ErrCorrupt", err)
	}
}

// TestWALCorruptSealedSegment: damage in a non-final segment is reported
// by Replay (Open only scans the tail segment).
func TestWALCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Meta: "sig", SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	bases, err := listSegments(faultfs.OS, dir)
	if err != nil || len(bases) < 2 {
		t.Fatalf("want ≥ 2 segments, got %d (err %v)", len(bases), err)
	}
	first := segmentPath(dir, bases[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	// A short tail in a sealed segment is corruption, not a torn write.
	if err := os.WriteFile(first, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{Meta: "sig", SegmentBytes: 128})
	if err != nil {
		t.Fatal(err) // Open scans only the final segment — intact
	}
	defer w2.Close()
	if err := w2.Replay(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over truncated sealed segment: err %v, want ErrCorrupt", err)
	}
}

// TestWALSeamGap: a log missing a middle sealed segment fails every walk
// with ErrCorrupt naming the gap — Replay, VerifyWAL, and ReadFrom from
// below the hole, which must not hand a follower a tail that jumps.
func TestWALSeamGap(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Meta: "sig", SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	bases, err := listSegments(faultfs.OS, dir)
	if err != nil || len(bases) < 4 {
		t.Fatalf("want ≥ 4 segments, got %d (err %v)", len(bases), err)
	}
	if err := os.Remove(segmentPath(dir, bases[1])); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{Meta: "sig", SegmentBytes: 128})
	if err != nil {
		t.Fatal(err) // Open scans only the final segment — intact
	}
	defer w2.Close()
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "gap between segments") {
			t.Errorf("%s over a missing segment: %v, want ErrCorrupt naming the gap", what, err)
		}
	}
	check("Replay", w2.Replay(func(Record) error { return nil }))
	_, _, err = w2.ReadFrom(bases[0], 0)
	check("ReadFrom", err)
	_, err = VerifyWAL(dir)
	check("VerifyWAL", err)
	// Past the hole the log is whole.
	if recs, _, err := w2.ReadFrom(bases[2], 0); err != nil || len(recs) != 30-int(bases[2])+1 {
		t.Errorf("ReadFrom past the hole = %d records, %v; want %d", len(recs), err, 30-int(bases[2])+1)
	}
}

// TestWALEmptySegment: a rotation can leave a fresh segment with no
// records yet; reopening must resume at the right LSN, and replay must
// walk past it.
func TestWALEmptySegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Meta: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Simulate a crash immediately after rotation created the next
	// segment: an empty file whose base is the next LSN.
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", 4)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{Meta: "sig"})
	if err != nil {
		t.Fatalf("open with empty tail segment: %v", err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if lsn, err := w2.AppendAll([]Record{appendRec(5)}); err != nil || lsn != 4 {
		t.Fatalf("append into empty segment: lsn %d err %v, want 4", lsn, err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w2); len(got) != 4 {
		t.Fatalf("replayed %d records after append, want 4", len(got))
	}
}

// TestWALGroupCommit: concurrent appenders waiting for durability must
// all complete, coalescing into few fsyncs, with contiguous LSNs.
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Meta: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := w.AppendAll([]Record{appendRec(i)})
			if err == nil {
				err = w.WaitSync(lsn)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("appender %d: %v", i, err)
		}
	}
	st := w.Stats()
	if st.LastLSN != n || st.SyncedLSN != n || st.Syncs < 1 || st.Syncs > n {
		t.Fatalf("stats = %+v, want last=synced=%d after 1..%d syncs", st, n, n)
	}
	if got := collect(t, w); len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}
	w.Close()
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadManifest(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v, want absent", ok, err)
	}
	man := Manifest{
		SchemaSig:  "sig",
		ShardDim:   "team",
		Shards:     3,
		Generation: 7,
		ShardLSNs:  []uint64{10, 12, 9},
		Sidecars:   map[string][]byte{"leaderboard": []byte(`[{"id":"0:1"}]`)},
	}
	if err := WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	man.Magic = got.Magic
	if !reflect.DeepEqual(got, man) {
		t.Fatalf("manifest round trip:\n got %+v\nwant %+v", got, man)
	}
	// Garbage is an error, not "absent".
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ReadManifest(dir); err == nil || ok {
		t.Fatalf("garbage manifest: ok=%v err=%v, want error", ok, err)
	}
}
