package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Engine snapshots, format v2: the µ store's per-constraint blocks written
// flat. A file is
//
//	"situsnap" | version uint32 | section × 6
//
// and a section is `length uint64 | payload | crc32(payload) uint32`, all
// fixed-width integers little-endian. The sections, in file order (counts,
// lengths, masks and ids are uvarints unless a width is given):
//
//	header      schema signature and algorithm (length-prefixed), d, m,
//	            d̂ and m̂ (signed varints, -1 = uncapped), one prominence
//	            byte, the eight work counters
//	dict        per dimension: value count, then the length-prefixed values
//	            in code order
//	tuples      n, then n·d int32 dimension codes, then n·m float64 raw
//	            measures
//	tombstones  count, then the deleted tuple ids ascending
//	cells       constraint, cell and member totals (uint64 each), then per
//	            live constraint in key-byte order: its 4·d-byte key, its
//	            context count (prominence on only), its cell count, and per
//	            cell in mask order: mask, member count, member ids
//	counts      context counts of the constraints that have no cell, which
//	            only the TopDown family kept: count, then (key, count)
//	            pairs. Written empty; a reader keeps only the count
//
// Nothing in a file depends on map iteration or on constraint ids, so equal
// engine states encode to equal bytes, and a restored engine's next snapshot
// repeats the file it was restored from. The decoder checks every length against the bytes that
// remain before it allocates from it, and every section's CRC before it
// reads the payload.

// ErrCorruptSnapshot is wrapped by every error a snapshot decoder returns
// for bytes it cannot accept; the message names the section and the
// constraint or cell at fault. Test with errors.Is.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

const (
	snapshotMagic   = "situsnap"
	snapshotVersion = 2
	// maxSnapshotDims bounds d as a decoder sanity check (a key is 4·d
	// bytes); schemas themselves stop far below it.
	maxSnapshotDims = 1 << 10
)

// SnapCounters mirrors the engine's cumulative work metrics.
type SnapCounters struct {
	Tuples, Comparisons, Traversed, Facts int64
	StoredTuples, Cells, Reads, Writes    int64
}

// SnapshotHeader is what a snapshot says about the engine that wrote it.
type SnapshotHeader struct {
	// SchemaSig is the schema identity check.
	SchemaSig string
	Algorithm string
	// D and M are the schema's dimension and measure counts; every later
	// section is laid out, and checked, against them.
	D, M int
	// MaxBound and MaxMeas are d̂ and m̂, -1 when uncapped.
	MaxBound, MaxMeas int
	// Prominence reports whether the engine keeps context counts.
	Prominence bool
	// Counters preserves the cumulative work metrics, so a restored engine's
	// Metrics match an uninterrupted run's.
	Counters SnapCounters
}

// Snapshot is one engine's decoded state, flat: a handful of arrays however
// many cells there are. DecodeSnapshot has checked it (see validate), so a
// restore indexes it without looking.
type Snapshot struct {
	SnapshotHeader

	// Dict[i] lists dimension i's values in code order.
	Dict [][]string
	// N tuples: tuple i's codes are Dims[i·D:(i+1)·D], its raw measures
	// Raw[i·M:(i+1)·M].
	N    int
	Dims []int32
	Raw  []float64
	// Deleted lists the tombstoned tuple ids, ascending.
	Deleted []int64

	// The µ store, one entry per live constraint in file order (key-byte
	// order; earlier builds wrote constraint-id order, read alike):
	// constraint i's key is Keys[i·4D:(i+1)·4D], its context size Counts[i]
	// (nil without prominence) and it has Live[i] cells. The cells of all
	// constraints follow one another in Masks (ascending within a
	// constraint) and Sizes (member counts), their members in IDs.
	Keys   string
	Counts []int64
	Live   []uint32
	Masks  []uint32
	Sizes  []uint32
	IDs    []uint32

	// CellLess is how many context counts the counts section holds for
	// constraints without a cell: TopDown state, which a pool refuses.
	CellLess int
}

// KeyLen is the byte length of one constraint key.
func (s *Snapshot) KeyLen() int { return 4 * s.D }

// SnapshotEncoder appends one snapshot to a buffer, section by section.
// Call, in this order: NewSnapshotEncoder, Dict, Tuples, Tombstones,
// BeginCells, then Constraint followed by that constraint's Cells for every
// live constraint, EndCells, Bytes.
type SnapshotEncoder struct {
	buf        []byte
	start      int // where the open section's payload begins
	prominence bool

	totals                  int // where the cells section's three totals sit
	constraints, cells, ids uint64
}

// NewSnapshotEncoder starts a snapshot at the end of buf (pass a kept
// buffer's [:0] to reuse it) and writes its header.
func NewSnapshotEncoder(buf []byte, h SnapshotHeader) *SnapshotEncoder {
	e := &SnapshotEncoder{buf: buf, prominence: h.Prominence}
	e.buf = append(e.buf, snapshotMagic...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, snapshotVersion)
	e.open()
	e.str(h.SchemaSig)
	e.str(h.Algorithm)
	e.uvarint(uint64(h.D))
	e.uvarint(uint64(h.M))
	e.buf = binary.AppendVarint(e.buf, int64(h.MaxBound))
	e.buf = binary.AppendVarint(e.buf, int64(h.MaxMeas))
	if h.Prominence {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	c := h.Counters
	for _, v := range [...]int64{c.Tuples, c.Comparisons, c.Traversed, c.Facts, c.StoredTuples, c.Cells, c.Reads, c.Writes} {
		e.uvarint(uint64(v))
	}
	e.close()
	return e
}

func (e *SnapshotEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *SnapshotEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// open starts a section: its length is filled in by close.
func (e *SnapshotEncoder) open() {
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	e.start = len(e.buf)
}

func (e *SnapshotEncoder) close() {
	payload := e.buf[e.start:]
	binary.LittleEndian.PutUint64(e.buf[e.start-8:], uint64(len(payload)))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(payload))
}

// Dict writes the dictionary: dict[i] is dimension i's values in code order.
func (e *SnapshotEncoder) Dict(dict [][]string) {
	e.open()
	for _, vals := range dict {
		e.uvarint(uint64(len(vals)))
		for _, v := range vals {
			e.str(v)
		}
	}
	e.close()
}

// Tuples writes the n tuples as two arenas, every tuple's dimension codes
// and then every tuple's raw measures.
func (e *SnapshotEncoder) Tuples(n int, dims func(i int) []int32, raw func(i int) []float64) {
	e.open()
	e.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		for _, c := range dims(i) {
			e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(c))
		}
	}
	for i := 0; i < n; i++ {
		for _, v := range raw(i) {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
		}
	}
	e.close()
}

// Tombstones writes the deleted tuple ids, which must be ascending.
func (e *SnapshotEncoder) Tombstones(ids []int64) {
	e.open()
	e.uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.uvarint(uint64(id))
	}
	e.close()
}

// BeginCells starts the µ store section.
func (e *SnapshotEncoder) BeginCells() {
	e.open()
	e.totals = len(e.buf)
	e.buf = append(e.buf, make([]byte, 24)...)
	e.constraints, e.cells, e.ids = 0, 0, 0
}

// Constraint starts a live constraint: its key, its context size (ignored
// without prominence) and how many Cell calls follow.
func (e *SnapshotEncoder) Constraint(key string, count int64, cells int) {
	e.buf = append(e.buf, key...)
	if e.prominence {
		e.uvarint(uint64(count))
	}
	e.uvarint(uint64(cells))
	e.constraints++
}

// Cell writes one cell of the constraint begun last, in ascending mask order.
func (e *SnapshotEncoder) Cell(mask uint32, ids []uint32) {
	e.uvarint(uint64(mask))
	e.uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.uvarint(uint64(id))
	}
	e.cells++
	e.ids += uint64(len(ids))
}

// EndCells closes the µ store section and writes the counts section,
// empty: every constraint a pool engine counts has a cell.
func (e *SnapshotEncoder) EndCells() {
	binary.LittleEndian.PutUint64(e.buf[e.totals:], e.constraints)
	binary.LittleEndian.PutUint64(e.buf[e.totals+8:], e.cells)
	binary.LittleEndian.PutUint64(e.buf[e.totals+16:], e.ids)
	e.close()
	e.open()
	e.uvarint(0)
	e.close()
}

// Bytes returns the buffer: whatever it held before, then the snapshot.
func (e *SnapshotEncoder) Bytes() []byte { return e.buf }

// DecodeSnapshot decodes and checks one engine snapshot. Every error wraps
// ErrCorruptSnapshot; no input makes it panic or allocate more than a small
// multiple of len(data). A file without the magic is refused too: format v1,
// one gob struct per engine, is no longer read (the error says how to
// upgrade one).
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	rest, ok := bytes.CutPrefix(data, []byte(snapshotMagic))
	if !ok {
		return nil, corrupt("magic", "no %q magic, so not format v2: a pre-v2 (gob) snapshot restores under the builds "+
			"from commit 9903ce0 to 1e3c305, and their next checkpoint rewrites it as v2", snapshotMagic)
	}
	s, err := decodeV2(rest)
	if err == nil {
		err = s.validate()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

func corrupt(section, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrCorruptSnapshot, section, fmt.Sprintf(format, args...))
}

// sectionReader reads one section's payload. The first failure sticks: later
// reads return zero values, and the caller looks at err once per loop.
type sectionReader struct {
	name string
	p    []byte
	err  error

	// Where a loop over the section stands, for error messages: item names
	// the things it walks ("constraint"), sub the things inside one ("cell");
	// an empty name means not inside one.
	item, sub string
	i, j      int
}

func (r *sectionReader) fail(format string, args ...any) {
	if r.err != nil {
		return
	}
	where := r.name
	if r.item != "" {
		where = fmt.Sprintf("%s: %s %d", where, r.item, r.i)
		if r.sub != "" {
			where = fmt.Sprintf("%s: %s %d", where, r.sub, r.j)
		}
	}
	r.err = corrupt(where, format, args...)
}

// uvarint reads one uvarint no larger than max. Most are one byte (masks,
// member counts, small ids), and that case skips the general decoder.
func (r *sectionReader) uvarint(what string, max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	if p := r.p; len(p) > 0 && uint64(p[0]) <= min(max, 0x7f) {
		r.p = p[1:]
		return uint64(p[0])
	}
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.fail("%s: truncated or overlong varint", what)
		return 0
	}
	r.p = r.p[n:]
	if v > max {
		r.fail("%s: %d exceeds %d", what, v, max)
		return 0
	}
	return v
}

// varint reads one signed varint that fits an int32 (d̂, m̂).
func (r *sectionReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.p)
	if n <= 0 || v < math.MinInt32 || v > math.MaxInt32 {
		r.fail("%s: truncated, overlong or out of range varint", what)
		return 0
	}
	r.p = r.p[n:]
	return v
}

// count reads an element count and refuses one whose elements, at least per
// bytes each, could not fit in what is left of the section.
func (r *sectionReader) count(what string, per int) int {
	n := r.uvarint(what, math.MaxInt64)
	if r.err == nil && n > uint64(len(r.p)/per) {
		r.fail("%s: %d does not fit in the %d bytes that remain", what, n, len(r.p))
		return 0
	}
	return int(n)
}

func (r *sectionReader) bytes(what string, n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.p) {
		r.fail("%s: needs %d bytes, %d remain", what, n, len(r.p))
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *sectionReader) str(what string) string {
	return string(r.bytes(what, r.count(what, 1)))
}

// end reports the section's error, or the bytes it should not have left.
func (r *sectionReader) end() error {
	if r.err == nil && len(r.p) != 0 {
		r.fail("%d bytes past its last field", len(r.p))
	}
	return r.err
}

// section frames the next section of rest: length, payload, checksum.
func section(name string, rest []byte) (*sectionReader, []byte, error) {
	if len(rest) < 8 {
		return nil, nil, corrupt(name, "file ends before the section")
	}
	n := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	if n > uint64(len(rest)) || len(rest)-int(n) < 4 {
		return nil, nil, corrupt(name, "section of %d bytes, %d remain in the file", n, len(rest))
	}
	payload, rest := rest[:n], rest[n:]
	if sum := binary.LittleEndian.Uint32(rest); sum != crc32.ChecksumIEEE(payload) {
		return nil, nil, corrupt(name, "checksum mismatch")
	}
	return &sectionReader{name: name, p: payload}, rest[4:], nil
}

// decodeV2 parses the bytes after the magic. It checks structure only —
// framing, checksums, lengths, that every integer fits its field — and
// leaves what the values mean to validate.
func decodeV2(rest []byte) (*Snapshot, error) {
	if len(rest) < 4 {
		return nil, corrupt("header", "file ends before the version")
	}
	if v := binary.LittleEndian.Uint32(rest); v != snapshotVersion {
		return nil, corrupt("header", "format version %d, this build reads %d", v, snapshotVersion)
	}
	rest = rest[4:]
	s := &Snapshot{}

	r, rest, err := section("header", rest)
	if err != nil {
		return nil, err
	}
	s.SchemaSig = r.str("schema signature")
	s.Algorithm = r.str("algorithm")
	s.D = int(r.uvarint("d", maxSnapshotDims))
	s.M = int(r.uvarint("m", 32))
	s.MaxBound = int(r.varint("d̂"))
	s.MaxMeas = int(r.varint("m̂"))
	if b := r.bytes("prominence", 1); len(b) == 1 {
		if b[0] > 1 {
			r.fail("prominence: byte %d is neither 0 nor 1", b[0])
		}
		s.Prominence = b[0] == 1
	}
	c := &s.Counters
	for _, f := range [...]*int64{&c.Tuples, &c.Comparisons, &c.Traversed, &c.Facts, &c.StoredTuples, &c.Cells, &c.Reads, &c.Writes} {
		*f = int64(r.uvarint("work counter", math.MaxInt64))
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	if s.D < 1 || s.M < 1 {
		return nil, corrupt("header", "%d dimensions and %d measures", s.D, s.M)
	}
	kl := s.KeyLen()

	if r, rest, err = section("dict", rest); err != nil {
		return nil, err
	}
	s.Dict = make([][]string, s.D)
	r.item = "dimension"
	for r.i = 0; r.i < s.D && r.err == nil; r.i++ {
		vals := make([]string, r.count("value count", 1))
		r.sub = "value"
		for r.j = range vals {
			vals[r.j] = r.str("length")
		}
		r.sub = ""
		s.Dict[r.i] = vals
	}
	r.item = ""
	if err := r.end(); err != nil {
		return nil, err
	}

	if r, rest, err = section("tuples", rest); err != nil {
		return nil, err
	}
	s.N = r.count("tuple count", 4*s.D+8*s.M)
	if dims := r.bytes("dimension codes", 4*s.D*s.N); dims != nil {
		s.Dims = make([]int32, s.D*s.N)
		for i := range s.Dims {
			s.Dims[i] = int32(binary.LittleEndian.Uint32(dims[4*i:]))
		}
	}
	if raw := r.bytes("raw measures", 8*s.M*s.N); raw != nil {
		s.Raw = make([]float64, s.M*s.N)
		for i := range s.Raw {
			s.Raw[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	if err := r.end(); err != nil {
		return nil, err
	}

	if r, rest, err = section("tombstones", rest); err != nil {
		return nil, err
	}
	s.Deleted = make([]int64, r.count("count", 1))
	r.item = "tombstone"
	for r.i = 0; r.i < len(s.Deleted) && r.err == nil; r.i++ {
		s.Deleted[r.i] = int64(r.uvarint("tuple id", math.MaxInt64))
	}
	r.item = ""
	if err := r.end(); err != nil {
		return nil, err
	}

	if r, rest, err = section("cells", rest); err != nil {
		return nil, err
	}
	if err := s.decodeCells(r); err != nil {
		return nil, err
	}

	if r, rest, err = section("counts", rest); err != nil {
		return nil, err
	}
	s.CellLess = r.count("count", kl+1)
	r.item = "constraint"
	for r.i = 0; r.i < s.CellLess && r.err == nil; r.i++ {
		r.bytes("key", kl)
		r.uvarint("context count", math.MaxInt64)
	}
	r.item = ""
	if err := r.end(); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, corrupt("counts", "%d bytes past the last section", len(rest))
	}
	return s, nil
}

// decodeCells parses the cells section into the flat arrays, which are
// sized from the section's totals once those are known to fit in it.
func (s *Snapshot) decodeCells(r *sectionReader) error {
	kl := s.KeyLen()
	totals := r.bytes("totals", 24)
	if totals == nil {
		return r.err
	}
	left := uint64(len(r.p))
	constraints := binary.LittleEndian.Uint64(totals)
	cells := binary.LittleEndian.Uint64(totals[8:])
	ids := binary.LittleEndian.Uint64(totals[16:])
	// A constraint is its key and a cell count at least; a cell a mask, a
	// member count and a member.
	if constraints > left/uint64(kl+1) || cells > left/3 || ids > left {
		r.fail("totals: %d constraints, %d cells and %d members do not fit in %d bytes", constraints, cells, ids, left)
		return r.err
	}
	keys := make([]byte, 0, int(constraints)*kl)
	if s.Prominence {
		s.Counts = make([]int64, 0, constraints)
	}
	s.Live = make([]uint32, 0, constraints)
	s.Masks = make([]uint32, 0, cells)
	s.Sizes = make([]uint32, 0, cells)
	s.IDs = make([]uint32, 0, ids)
	r.item = "constraint"
	for r.i = 0; len(r.p) > 0 && r.err == nil; r.i++ {
		if len(s.Live) == cap(s.Live) {
			r.fail("the section declares %d", constraints)
			break
		}
		keys = append(keys, r.bytes("key", kl)...)
		if s.Prominence {
			s.Counts = append(s.Counts, int64(r.uvarint("context count", math.MaxInt64)))
		}
		live := int(r.uvarint("cell count", uint64(cap(s.Masks)-len(s.Masks))))
		s.Live = append(s.Live, uint32(live))
		r.sub = "cell"
		for r.j = 0; r.j < live && r.err == nil; r.j++ {
			s.Masks = append(s.Masks, uint32(r.uvarint("mask", math.MaxUint32)))
			size := int(r.uvarint("member count", uint64(cap(s.IDs)-len(s.IDs))))
			s.Sizes = append(s.Sizes, uint32(size))
			for k := 0; k < size && r.err == nil; k++ {
				s.IDs = append(s.IDs, uint32(r.uvarint("member", math.MaxUint32)))
			}
		}
		r.sub = ""
	}
	r.item = ""
	s.Keys = string(keys)
	if r.err == nil && (uint64(len(s.Live)) != constraints || uint64(len(s.Masks)) != cells || uint64(len(s.IDs)) != ids) {
		r.fail("totals: declared %d constraints, %d cells and %d members, holds %d, %d and %d",
			constraints, cells, ids, len(s.Live), len(s.Masks), len(s.IDs))
	}
	return r.err
}

// validate checks what the values of a structurally sound snapshot mean:
// everything a restore indexes with, and everything the writer
// guarantees that a later snapshot's bytes depend on.
func (s *Snapshot) validate() error {
	if len(s.Dict) != s.D {
		return corrupt("dict", "%d dimensions, header says %d", len(s.Dict), s.D)
	}
	if len(s.Dims) != s.N*s.D || len(s.Raw) != s.N*s.M {
		return corrupt("tuples", "%d codes and %d measures for %d tuples of %d and %d", len(s.Dims), len(s.Raw), s.N, s.D, s.M)
	}
	if uint64(s.N) > math.MaxUint32+1 {
		return corrupt("tuples", "%d tuples, more than 32-bit ids name", s.N)
	}
	for i, c := range s.Dims {
		if dim := i % s.D; c < 0 || int(c) >= len(s.Dict[dim]) {
			return corrupt("tuples", "tuple %d: dimension %d: code %d outside the dictionary's %d values", i/s.D, dim, c, len(s.Dict[dim]))
		}
	}
	for i, id := range s.Deleted {
		if id < 0 || id >= int64(s.N) {
			return corrupt("tombstones", "tombstone %d: tuple %d of %d", i, id, s.N)
		}
		if i > 0 && id <= s.Deleted[i-1] {
			return corrupt("tombstones", "tombstone %d: tuple %d after %d", i, id, s.Deleted[i-1])
		}
	}
	kl := s.KeyLen()
	if len(s.Keys) != len(s.Live)*kl {
		return corrupt("cells", "%d key bytes for %d constraints of %d dimensions", len(s.Keys), len(s.Live), s.D)
	}
	if !s.Prominence && (s.Counts != nil || s.CellLess != 0) {
		return corrupt("counts", "context counts in a snapshot without prominence")
	}
	if s.Prominence && len(s.Counts) != len(s.Live) {
		return corrupt("cells", "%d context counts for %d constraints", len(s.Counts), len(s.Live))
	}
	if len(s.Masks) != len(s.Sizes) {
		return corrupt("cells", "%d masks for %d cells", len(s.Masks), len(s.Sizes))
	}
	cell, member := 0, 0
	for i, live := range s.Live {
		if s.Prominence && s.Counts[i] <= 0 {
			return corrupt("cells", "constraint %d: context count %d", i, s.Counts[i])
		}
		if live == 0 || int(live) > len(s.Masks)-cell {
			return corrupt("cells", "constraint %d: %d cells, %d remain", i, live, len(s.Masks)-cell)
		}
		for j := 0; j < int(live); j, cell = j+1, cell+1 {
			mask, size := s.Masks[cell], s.Sizes[cell]
			if mask == 0 || uint64(mask) >= 1<<uint(s.M) {
				return corrupt("cells", "constraint %d: cell %d: mask %d outside the subspaces of %d measures", i, j, mask, s.M)
			}
			if j > 0 && mask <= s.Masks[cell-1] {
				return corrupt("cells", "constraint %d: cell %d: mask %d after %d", i, j, mask, s.Masks[cell-1])
			}
			if size == 0 || int(size) > len(s.IDs)-member {
				return corrupt("cells", "constraint %d: cell %d: %d members, %d remain", i, j, size, len(s.IDs)-member)
			}
			for k, id := range s.IDs[member : member+int(size)] {
				if int64(id) >= int64(s.N) {
					return corrupt("cells", "constraint %d: cell %d: member %d: tuple %d of %d", i, j, k, id, s.N)
				}
			}
			member += int(size)
		}
	}
	if cell != len(s.Masks) || member != len(s.IDs) {
		return corrupt("cells", "%d cells and %d members belong to no constraint", len(s.Masks)-cell, len(s.IDs)-member)
	}
	return nil
}
