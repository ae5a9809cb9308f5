package persist

import (
	"fmt"
	"path/filepath"

	"repro/internal/faultfs"
)

// SegmentReport is VerifyWAL's account of one segment file.
type SegmentReport struct {
	// Name is the segment's file name within the log directory.
	Name string
	// Base is the LSN of the segment's first record.
	Base uint64
	// Records is how many CRC-valid records the segment holds.
	Records int
	// Bytes is the byte offset after the last complete record.
	Bytes int64
	// Torn reports a torn tail past Bytes — tolerable in the final
	// segment (Open repairs it), corruption anywhere else.
	Torn bool
}

// VerifyWAL is the offline fsck behind `situfactd -wal-verify`: it
// replay-scans every segment of the log at dir — meta identity, framing,
// CRCs, LSN density within and across segments — without ever opening
// anything for writing, and returns what it saw. The error wraps
// ErrCorrupt on damage; reports cover the segments scanned up to and
// including the damaged one, so the caller can print how far the log was
// clean. A torn tail in the final segment is reported, not repaired, and
// is not an error: the next Open truncates it.
func VerifyWAL(dir string) ([]SegmentReport, error) {
	if _, err := readWALMeta(dir); err != nil {
		return nil, fmt.Errorf("wal verify: %w", err)
	}
	var reports []SegmentReport
	err := walk(faultfs.OS, dir, 0, func(Record) error { return nil }, func(base uint64, end int64, next uint64, torn bool) {
		reports = append(reports, SegmentReport{
			Name: filepath.Base(segmentPath(dir, base)), Base: base,
			Records: int(next - base), Bytes: end, Torn: torn,
		})
	})
	if err == nil && len(reports) == 0 {
		err = fmt.Errorf("wal verify: no segments in %s: %w", dir, ErrCorrupt)
	}
	return reports, err
}
