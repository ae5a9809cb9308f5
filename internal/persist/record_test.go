package persist

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestAppendRejectsOversizedRecord: a record whose payload exceeds
// maxRecordBytes must be rejected at AppendAll — the reader caps payloads
// there, so buffering it would create a log that fails its own replay.
// The rejection must not poison the WAL for well-formed records.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Meta: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	huge := Record{
		Type: RecAppend,
		Dims: []string{strings.Repeat("x", maxRecordBytes+1)},
	}
	if _, err := w.AppendAll([]Record{huge}); err == nil {
		t.Fatal("oversized record accepted; replay would fail with ErrCorrupt")
	}
	lsn, err := w.AppendAll([]Record{appendRec(0)})
	if err != nil {
		t.Fatalf("append after oversized rejection: %v", err)
	}
	if err := w.WaitSync(lsn); err != nil {
		t.Fatal(err)
	}
	var got int
	if err := w.Replay(func(Record) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("replayed %d records, want only the 1 accepted", got)
	}
}

// TestParsePayloadHostileCounts: parsePayload must bound the dim and
// measure counts against the remaining payload before allocating — a
// corrupt-yet-checksummed frame has to parse-fail, not panic in
// makeslice or overflow nm*8 into a passing length check.
func TestParsePayloadHostileCounts(t *testing.T) {
	prefix := func() []byte {
		p := []byte{byte(RecAppend)}
		p = binary.AppendUvarint(p, 1) // lsn
		p = binary.AppendUvarint(p, 0) // shard
		return p
	}
	t.Run("huge dim count", func(t *testing.T) {
		p := binary.AppendUvarint(prefix(), 1<<40)
		if _, err := parsePayload(p); err == nil {
			t.Error("dim count far beyond the payload accepted")
		}
	})
	t.Run("overflowing measure count", func(t *testing.T) {
		p := binary.AppendUvarint(prefix(), 0) // no dims
		// nm*8 wraps to exactly the 8 trailing bytes: without the bound
		// check this passes the length test and allocates 2^61+1 floats.
		p = binary.AppendUvarint(p, (1<<61)+1)
		p = append(p, make([]byte, 8)...)
		if _, err := parsePayload(p); err == nil {
			t.Error("overflowing measure count accepted")
		}
	})
	t.Run("huge measure count", func(t *testing.T) {
		p := binary.AppendUvarint(prefix(), 0)
		p = binary.AppendUvarint(p, 1<<32)
		if _, err := parsePayload(p); err == nil {
			t.Error("measure count far beyond the payload accepted")
		}
	})
}
