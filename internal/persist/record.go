package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// RecordType discriminates WAL records.
type RecordType uint8

// The journaled operations.
const (
	// RecAppend journals one arriving row (dimension values + measures).
	RecAppend RecordType = 1
	// RecDelete journals the retraction of one tuple of one shard.
	RecDelete RecordType = 2
	// RecNoop carries no operation. Repairs by earlier builds wrote noop
	// frames over the LSNs a write fault destroyed; today's Repair writes
	// the destroyed frames again instead, so only logs from those builds
	// hold noops. Replay and tailing count a noop as skipped.
	RecNoop RecordType = 3
)

// Record is one journaled ingest operation. Appends carry the row itself
// (the replaying pool re-routes it, so the shard is informational);
// deletes carry the (shard, tuple) pair that names the target.
type Record struct {
	// LSN is the record's log sequence number, assigned by WAL.Append.
	LSN  uint64
	Type RecordType

	// Shard is the pool shard the operation was applied to.
	Shard int

	// Dims and Measures are the appended row, in schema order (RecAppend).
	Dims     []string
	Measures []float64

	// TupleID is the retracted tuple's per-shard id (RecDelete).
	TupleID int64
}

// Framing: [length uint32 LE][crc32(payload) uint32 LE][payload], where
// payload = type byte, then uvarint LSN, then the type-specific fields.
// The CRC covers the payload only; the length field is sanity-capped so a
// corrupt header cannot trigger a giant allocation.

const (
	frameHeaderLen = 8
	// maxRecordBytes caps one record's payload; single rows are tiny, so
	// anything near this is corruption, not data.
	maxRecordBytes = 16 << 20
)

// ErrTooLarge reports a record whose payload would exceed maxRecordBytes —
// a defect of the record, not of the log. Test with errors.Is.
var ErrTooLarge = errors.New("record too large")

// Oversized reports whether the record's framed payload would exceed
// maxRecordBytes, without encoding it. The estimate assumes a max-width
// LSN varint, so it can exceed the true size by a few bytes: an Oversized
// record always fails Append, and a record passing this check always fits.
func (rec Record) Oversized() bool {
	size := 1 + binary.MaxVarintLen64 + uvarintLen(uint64(rec.Shard))
	switch rec.Type {
	case RecAppend:
		size += uvarintLen(uint64(len(rec.Dims)))
		for _, d := range rec.Dims {
			size += uvarintLen(uint64(len(d))) + len(d)
		}
		size += uvarintLen(uint64(len(rec.Measures))) + 8*len(rec.Measures)
	case RecDelete:
		size += uvarintLen(uint64(rec.TupleID))
	}
	return size > maxRecordBytes
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendFrame appends rec's framed encoding to buf.
func appendFrame(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	buf = append(buf, byte(rec.Type))
	buf = binary.AppendUvarint(buf, rec.LSN)
	buf = binary.AppendUvarint(buf, uint64(rec.Shard))
	switch rec.Type {
	case RecAppend:
		buf = binary.AppendUvarint(buf, uint64(len(rec.Dims)))
		for _, d := range rec.Dims {
			buf = binary.AppendUvarint(buf, uint64(len(d)))
			buf = append(buf, d...)
		}
		buf = binary.AppendUvarint(buf, uint64(len(rec.Measures)))
		for _, m := range rec.Measures {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m))
		}
	case RecDelete:
		buf = binary.AppendUvarint(buf, uint64(rec.TupleID))
	}
	payload := buf[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// parsePayload decodes a CRC-verified payload back into a Record.
func parsePayload(p []byte) (Record, error) {
	var rec Record
	if len(p) == 0 {
		return rec, fmt.Errorf("empty payload")
	}
	rec.Type = RecordType(p[0])
	p = p[1:]
	lsn, n := binary.Uvarint(p)
	if n <= 0 {
		return rec, fmt.Errorf("bad lsn")
	}
	rec.LSN = lsn
	p = p[n:]
	shard, n := binary.Uvarint(p)
	if n <= 0 {
		return rec, fmt.Errorf("bad shard")
	}
	rec.Shard = int(shard)
	p = p[n:]
	switch rec.Type {
	case RecAppend:
		nd, n := binary.Uvarint(p)
		if n <= 0 {
			return rec, fmt.Errorf("bad dim count")
		}
		p = p[n:]
		// Bound counts by the bytes that could hold them before allocating:
		// the payload passed its CRC, but a corrupt-yet-checksummed frame
		// must parse-fail, not panic in makeslice.
		if nd > uint64(len(p)) {
			return rec, fmt.Errorf("dim count %d exceeds %d payload bytes", nd, len(p))
		}
		rec.Dims = make([]string, nd)
		for i := range rec.Dims {
			l, n := binary.Uvarint(p)
			if n <= 0 || uint64(len(p[n:])) < l {
				return rec, fmt.Errorf("bad dim %d", i)
			}
			p = p[n:]
			rec.Dims[i] = string(p[:l])
			p = p[l:]
		}
		nm, n := binary.Uvarint(p)
		if n <= 0 {
			return rec, fmt.Errorf("bad measure count")
		}
		p = p[n:]
		// nm is bounded before nm*8: a count near 2^61 would overflow the
		// product into a passing length check and a giant allocation.
		if nm > uint64(len(p))/8 || uint64(len(p)) != nm*8 {
			return rec, fmt.Errorf("measure bytes %d for %d measures", len(p), nm)
		}
		rec.Measures = make([]float64, nm)
		for i := range rec.Measures {
			rec.Measures[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
	case RecDelete:
		id, n := binary.Uvarint(p)
		if n <= 0 || len(p[n:]) != 0 {
			return rec, fmt.Errorf("bad tuple id")
		}
		rec.TupleID = int64(id)
	case RecNoop:
		if len(p) != 0 {
			return rec, fmt.Errorf("noop with %d payload bytes", len(p))
		}
	default:
		return rec, fmt.Errorf("unknown record type %d", rec.Type)
	}
	return rec, nil
}
