package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sampleSnapshot is a small valid state over d=2, m=2: three tuples, one
// tombstone, two live constraints (one with two cells, one of them with two
// members) and two context counts without a cell.
func sampleSnapshot() *Snapshot {
	key := func(a, b byte) string { return string([]byte{a, 0, 0, 0, b, 0, 0, 0}) }
	return &Snapshot{
		SnapshotHeader: SnapshotHeader{
			SchemaSig: "r(a,b;x,y)", Algorithm: "topdown", D: 2, M: 2,
			MaxBound: -1, MaxMeas: 2, Prominence: true,
			Counters: SnapCounters{Tuples: 3, Comparisons: 9, Traversed: 12, Facts: 7, StoredTuples: 4, Cells: 3, Reads: 5, Writes: 6},
		},
		Dict:    [][]string{{"a0", "a1"}, {"b0", "", "b2"}},
		N:       3,
		Dims:    []int32{0, 0, 1, 2, 0, 1},
		Raw:     []float64{1, 2, 3.5, -4, 0, 300},
		Deleted: []int64{1},

		Keys:   key(0, 0) + key(1, 2),
		Counts: []int64{2, 1},
		Live:   []uint32{2, 1},
		Masks:  []uint32{1, 3, 2},
		Sizes:  []uint32{1, 2, 1},
		IDs:    []uint32{0, 0, 2, 1},

		CellLess: 2,
	}
}

// cellLessKey is the key of the i-th context count a test writes without a
// cell: no live constraint's, and below any printable one.
func cellLessKey(kl, i int) string {
	k := make([]byte, kl)
	k[kl-1] = byte(0xf0 + i)
	return string(k)
}

// encodeSnapshot writes a decoded snapshot back out through the encoder,
// then, for a snapshot with cell-less counts, swaps the empty counts section
// the encoder wrote for one that holds them.
func encodeSnapshot(s *Snapshot) []byte {
	e := NewSnapshotEncoder(nil, s.SnapshotHeader)
	e.Dict(s.Dict)
	e.Tuples(s.N,
		func(i int) []int32 { return s.Dims[i*s.D : (i+1)*s.D] },
		func(i int) []float64 { return s.Raw[i*s.M : (i+1)*s.M] })
	e.Tombstones(s.Deleted)
	e.BeginCells()
	kl := s.KeyLen()
	cell, member := 0, 0
	for i, live := range s.Live {
		var count int64
		if s.Prominence {
			count = s.Counts[i]
		}
		e.Constraint(s.Keys[i*kl:(i+1)*kl], count, int(live))
		for ; live > 0; live, cell = live-1, cell+1 {
			e.Cell(s.Masks[cell], s.IDs[member:member+int(s.Sizes[cell])])
			member += int(s.Sizes[cell])
		}
	}
	e.EndCells()
	if s.CellLess > 0 {
		e.buf = e.buf[:e.start-8]
		e.open()
		e.uvarint(uint64(s.CellLess))
		for i := range s.CellLess {
			e.buf = append(e.buf, cellLessKey(kl, i)...)
			e.uvarint(1)
		}
		e.close()
	}
	return e.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := DecodeSnapshot(encodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded\n %+v\nwant\n %+v", got, want)
	}

	// Without prominence there are no counts, in either place.
	bare := sampleSnapshot()
	bare.Prominence, bare.Counts, bare.CellLess = false, nil, 0
	got, err = DecodeSnapshot(encodeSnapshot(bare))
	if err != nil {
		t.Fatal(err)
	}
	if got.Prominence || got.Counts != nil || got.CellLess != 0 || !reflect.DeepEqual(got.IDs, bare.IDs) {
		t.Errorf("prominence-free snapshot decoded as %+v", got)
	}
}

// TestDecodeSnapshotRejects: each way a structurally sound file can still be
// unusable — every value a restore would index with — is refused with an
// error that wraps ErrCorruptSnapshot and names the section and the
// constraint, cell or tuple at fault.
func TestDecodeSnapshotRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
		want   string // substring of the error
	}{
		{"mask past 2^m", func(s *Snapshot) { s.Masks[2] = 1 << 9 }, "cells: constraint 1: cell 0: mask 512"},
		{"mask 2^m", func(s *Snapshot) { s.Masks[1] = 4 }, "cells: constraint 0: cell 1: mask 4"},
		{"mask zero", func(s *Snapshot) { s.Masks[0] = 0 }, "cells: constraint 0: cell 0: mask 0"},
		{"mask repeats", func(s *Snapshot) { s.Masks[1] = 1 }, "cells: constraint 0: cell 1: mask 1 after 1"},
		{"masks descend", func(s *Snapshot) { s.Masks[0], s.Masks[1] = 3, 1 }, "cells: constraint 0: cell 1: mask 1 after 3"},
		{"empty cell", func(s *Snapshot) { s.Sizes[2], s.IDs = 0, s.IDs[:3] }, "cells: constraint 1: cell 0: 0 members"},
		{"constraint without cells", func(s *Snapshot) {
			s.Live, s.Masks, s.Sizes, s.IDs = []uint32{2, 0}, s.Masks[:2], s.Sizes[:2], s.IDs[:3]
		}, "cells: constraint 1: 0 cells"},
		{"member past the table", func(s *Snapshot) { s.IDs[2] = 3 }, "cells: constraint 0: cell 1: member 1: tuple 3 of 3"},
		{"context count zero", func(s *Snapshot) { s.Counts[1] = 0 }, "cells: constraint 1: context count 0"},
		{"counts without prominence", func(s *Snapshot) { s.Prominence, s.Counts = false, nil }, "counts: context counts in a snapshot without prominence"},
		{"tombstone past the table", func(s *Snapshot) { s.Deleted[0] = 3 }, "tombstones: tombstone 0: tuple 3 of 3"},
		{"tombstone repeats", func(s *Snapshot) { s.Deleted = []int64{1, 1} }, "tombstones: tombstone 1: tuple 1 after 1"},
		{"code outside the dictionary", func(s *Snapshot) { s.Dims[3] = 3 }, "tuples: tuple 1: dimension 1: code 3 outside the dictionary's 3 values"},
		{"negative code", func(s *Snapshot) { s.Dims[0] = -1 }, "tuples: tuple 0: dimension 0: code -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sampleSnapshot()
			tc.mutate(s)
			got, err := DecodeSnapshot(encodeSnapshot(s))
			if err == nil {
				t.Fatalf("accepted: %+v", got)
			}
			if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want one wrapping ErrCorruptSnapshot that says %q", err, tc.want)
			}
		})
	}
}

// TestDecodeSnapshotRefusesGob: a file without the v2 magic — a gob stream
// such as the format v1 that earlier builds wrote, or any other bytes — is
// refused at the magic, and the error names the builds that upgrade a v1
// file.
func TestDecodeSnapshotRefusesGob(t *testing.T) {
	var gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(struct{ Magic string }{"situfact-snapshot-v1"}); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{gobbed.Bytes(), []byte("situsna"), nil} {
		_, err := DecodeSnapshot(data)
		if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "magic: ") ||
			!strings.Contains(err.Error(), "pre-v2 (gob) snapshot") || !strings.Contains(err.Error(), "9903ce0 to 1e3c305") {
			t.Errorf("DecodeSnapshot(%q) = %v, want ErrCorruptSnapshot at the magic naming the v1 upgrade route", data, err)
		}
	}
}

var snapshotSections = []string{"magic", "header", "dict", "tuples", "tombstones", "cells", "counts"}

// checkRejected asserts the decoder's contract for bytes that are not a
// snapshot: an error wrapping ErrCorruptSnapshot that names a section.
func checkRejected(t *testing.T, what string, data []byte) {
	t.Helper()
	s, err := DecodeSnapshot(data)
	if err == nil {
		t.Fatalf("%s: accepted: %+v", what, s)
	}
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("%s: error %q does not wrap ErrCorruptSnapshot", what, err)
	}
	for _, name := range snapshotSections {
		if strings.Contains(err.Error(), ": "+name+": ") {
			return
		}
	}
	t.Fatalf("%s: error %q names no section", what, err)
}

// TestDecodeSnapshotSingleCorruption: any valid file decodes; the same file
// with any one byte changed, or cut short anywhere, is refused naming the
// section — and nothing panics on the way.
func TestDecodeSnapshotSingleCorruption(t *testing.T) {
	bare := sampleSnapshot()
	bare.Prominence, bare.Counts, bare.CellLess = false, nil, 0
	for _, s := range []*Snapshot{sampleSnapshot(), bare} {
		valid := encodeSnapshot(s)
		if _, err := DecodeSnapshot(valid); err != nil {
			t.Fatal(err)
		}
		for i := range valid {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				bad := bytes.Clone(valid)
				bad[i] ^= flip
				checkRejected(t, fmt.Sprintf("byte %d flipped", i), bad)
			}
		}
		for n := 0; n < len(valid); n++ {
			checkRejected(t, fmt.Sprintf("cut to %d bytes", n), valid[:n])
		}
		checkRejected(t, "one byte appended", append(bytes.Clone(valid), 0))
	}
}

// TestDecodeSnapshotLengthsBeforeAllocation: a count that the rest of its
// section cannot hold is refused by comparing it with the bytes that remain,
// not by trying to allocate it. The checksum is recomputed, as a frame that
// is corrupt and still checksums would have it.
func TestDecodeSnapshotLengthsBeforeAllocation(t *testing.T) {
	huge := sampleSnapshot()
	e := NewSnapshotEncoder(nil, huge.SnapshotHeader)
	e.Dict(huge.Dict)
	e.open()
	e.uvarint(1 << 50) // tuple count
	e.close()
	checkRejected(t, "2^50 tuples", e.Bytes())

	e = NewSnapshotEncoder(nil, huge.SnapshotHeader)
	e.Dict(huge.Dict)
	e.Tuples(0, nil, nil)
	e.Tombstones(nil)
	e.BeginCells()
	e.constraints, e.cells, e.ids = 1<<40, 1<<41, 1<<42
	e.EndCells()
	checkRejected(t, "2^40 constraints", e.Bytes())
}
