package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParsePayload drives the WAL payload decoder with arbitrary bytes.
// The decoder sits behind a CRC in normal operation, but a corrupt frame
// that happens to checksum correctly must parse-fail cleanly — never
// panic, never allocate unboundedly. For payloads that do parse, the
// decoded record must survive a re-encode/re-parse cycle unchanged:
// appendFrame writes canonical (minimal) varints, so byte equality with
// the fuzzed input is NOT required — binary.Uvarint accepts non-minimal
// encodings — but value equality is.
func FuzzParsePayload(f *testing.F) {
	seed := func(rec Record) {
		f.Add(appendFrame(nil, rec)[frameHeaderLen:])
	}
	seed(Record{Type: RecAppend, LSN: 1, Shard: 0,
		Dims: []string{"team-3", "player-11"}, Measures: []float64{41, 12.5}})
	seed(Record{Type: RecAppend, LSN: 1 << 40, Shard: 7,
		Dims: []string{"", "x", ""}, Measures: nil})
	seed(Record{Type: RecAppend, LSN: 2, Shard: 1,
		Dims: nil, Measures: []float64{math.Inf(1), math.NaN(), -0.0}})
	seed(Record{Type: RecDelete, LSN: 9, Shard: 2, TupleID: 12345})
	seed(Record{Type: RecDelete, LSN: 1, Shard: 0, TupleID: 0})
	// Malformed shapes: unknown type, truncated counts, oversized counts.
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0})
	f.Add([]byte{1, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{1, 1, 0, 1, 200})
	f.Add([]byte{2, 1, 0, 5, 99})

	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := parsePayload(p)
		if err != nil {
			return
		}
		reenc := appendFrame(nil, rec)
		rec2, err := parsePayload(reenc[frameHeaderLen:])
		if err != nil {
			t.Fatalf("re-parse of re-encoded record failed: %v\nrecord %+v", err, rec)
		}
		if !recordsEqual(rec, rec2) {
			t.Fatalf("record changed across encode/parse round trip:\n first %+v\nsecond %+v", rec, rec2)
		}
	})
}

// recordsEqual compares records by value, with measures compared as raw
// float bits so NaN payloads (expressible in a fuzzed frame) don't
// false-negative under ==.
func recordsEqual(a, b Record) bool {
	if a.Type != b.Type || a.LSN != b.LSN || a.Shard != b.Shard || a.TupleID != b.TupleID {
		return false
	}
	if len(a.Dims) != len(b.Dims) || len(a.Measures) != len(b.Measures) {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			return false
		}
	}
	for i := range a.Measures {
		if math.Float64bits(a.Measures[i]) != math.Float64bits(b.Measures[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeSnapshot drives the snapshot decoder with arbitrary bytes,
// seeded from the v2 fixtures: a file a restart or a follower bootstrap
// reads is whatever the disk or the leader handed over. Bytes it refuses
// must be refused with ErrCorruptSnapshot, never a panic; a state it
// accepts must write out to bytes that decode to the same state and write
// out the same again — the save → restore → save fixed point, whatever
// order the accepted file was in.
func FuzzDecodeSnapshot(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "v2_*.snapshot"))
	if err != nil || len(fixtures) != 2 {
		f.Fatalf("snapshot fixtures: %v (%v)", fixtures, err)
	}
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(encodeSnapshot(sampleSnapshot()))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecodeSnapshot(t, data)
		// And as a frame that is corrupt and still checksums: otherwise the
		// CRCs stop every mutation at the section's door.
		fuzzDecodeSnapshot(t, withChecksums(data))
	})
}

// withChecksums returns data with the CRC of every v2 section it can frame
// recomputed over whatever the payload now holds.
func withChecksums(data []byte) []byte {
	out := bytes.Clone(data)
	for at := len(snapshotMagic) + 4; at+8 <= len(out); {
		n := binary.LittleEndian.Uint64(out[at:])
		at += 8
		if n > uint64(len(out)-at) || len(out)-at-int(n) < 4 {
			break
		}
		binary.LittleEndian.PutUint32(out[at+int(n):], crc32.ChecksumIEEE(out[at:at+int(n)]))
		at += int(n) + 4
	}
	return out
}

func fuzzDecodeSnapshot(t *testing.T, data []byte) {
	s, err := DecodeSnapshot(data)
	if err != nil {
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("error %q does not wrap ErrCorruptSnapshot", err)
		}
		return
	}
	out := encodeSnapshot(s)
	s2, err := DecodeSnapshot(out)
	if err != nil {
		t.Fatalf("re-decode of an accepted state failed: %v", err)
	}
	// Printed, not DeepEqual: a NaN measure is not equal to itself.
	if first, second := fmt.Sprintf("%+v", s), fmt.Sprintf("%+v", s2); first != second {
		t.Fatalf("state changed across encode/decode:\n first %s\nsecond %s", first, second)
	}
	if again := encodeSnapshot(s2); !bytes.Equal(again, out) {
		t.Fatalf("save → restore → save is not a fixed point: %d bytes, then %d", len(out), len(again))
	}
}
