package persist

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultfs"
)

// ErrWALClosed reports an operation on a closed WAL.
var ErrWALClosed = errors.New("wal closed")

// ErrCorrupt marks unrecoverable log damage: a full record failing its
// CRC, an out-of-sequence LSN, a short tail in a non-final segment, or a
// gap between segments. Test with errors.Is; recovering past it would
// silently lose data.
var ErrCorrupt = errors.New("wal corrupt")

// WALOptions configures Open.
type WALOptions struct {
	// SegmentBytes is the segment size threshold: the active segment is
	// sealed at the first group commit past this size. 0 selects 64 MiB.
	SegmentBytes int64
	// Meta is an identity string (the pool's schema signature) stored in
	// the log directory on creation and verified on every reopen, so a log
	// written under one schema is never replayed into another.
	Meta string
	// FS is the filesystem the log's segments live on. nil selects the
	// real one (faultfs.OS); tests inject a faultfs.Faulty to exercise
	// fsync errors, ENOSPC, and torn writes. The wal.meta identity file
	// is deliberately NOT behind the seam: it is written once at creation
	// and a fault there is just an open error.
	FS faultfs.FS
}

const (
	defaultSegmentBytes = 64 << 20
	// maxIdlePendingBytes caps the capacity the pending-frame buffer keeps
	// once an fsync has emptied it, so one huge batch does not pin its
	// high-water memory for the life of the segment.
	maxIdlePendingBytes = 256 << 10
	walMetaName         = "wal.meta"
	walMetaMagic        = "situfact-wal-v1"
	segmentSuffix       = ".seg"
)

type walMeta struct {
	Magic string
	Meta  string
	// Epoch uniquely identifies this log instance (random, assigned at
	// creation). Snapshot manifests record the epoch their LSN watermarks
	// refer to, so watermarks are never applied against a replacement log
	// whose LSNs count from 1 again.
	Epoch string
}

// WAL is a segmented, CRC-framed write-ahead log. Appends encode frames
// into a buffer under a mutex; durability comes from WaitSync, whose
// concurrent callers group-commit into a single write and fsync. See the
// package doc for the crash-safety rules.
//
// The active segment has one owner: whoever holds the sync slot, syncMu —
// a WaitSync group commit, Close or Repair. Only the owner writes, fsyncs,
// seals, closes or replaces the file, so no fsync is ever in flight on a
// file someone else closes.
type WAL struct {
	dir     string
	segSize int64
	epoch   string     // this log instance's identity, from wal.meta
	fs      faultfs.FS // segment I/O seam; faultfs.OS in production

	// syncMu is the sync slot. Its holder takes it before mu, never under
	// it, and holds it across its file operations.
	syncMu sync.Mutex

	// mu guards the log's state: LSNs and the durability watermark, the
	// pending frames, the active segment's handle and size, the segment
	// count, the sticky failure. A group commit's fsync runs OUTSIDE mu, so
	// appenders keep journaling and readers keep reading while it is on
	// disk; a seal's fsync runs under it.
	mu       sync.Mutex
	f        faultfs.File
	nextLSN  uint64
	synced   uint64 // highest LSN guaranteed on disk
	syncs    uint64 // group commits that advanced synced (WALStats.Syncs)
	segBase  uint64 // first LSN of the active segment
	segBytes int64  // bytes of the active segment, pending frames included
	segments int    // live segment files, including the active one
	// pending holds the active segment's frames that no successful fsync
	// has covered, in LSN order: the first flushed bytes are in the file,
	// the rest only here, and unsynced counts the frames. The pool applies
	// an op once its frame is here, so after a write or fsync fault Repair
	// writes these frames again: the log keeps exactly the ops applied.
	pending  []byte
	flushed  int
	unsynced int
	writeErr error // sticky: a failed write or fsync leaves the file torn
	closed   bool
}

// OpenWAL opens (or creates) the log rooted at dir, repairing a torn tail
// left by a crash. The returned WAL is ready for AppendAll; call Replay
// first to observe existing records.
func OpenWAL(dir string, opt WALOptions) (*WAL, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSegmentBytes
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	epoch, err := checkWALMeta(dir, opt.Meta)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, segSize: opt.SegmentBytes, epoch: epoch, fs: fsys}

	bases, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
		w.nextLSN = 1
		w.segments = 1
	} else {
		if w.nextLSN, err = w.openTail(bases[len(bases)-1]); err != nil {
			return nil, err
		}
		w.segments = len(bases)
	}
	w.synced = w.nextLSN - 1 // nothing buffered yet
	return w, nil
}

// openTail makes the final segment, based at base, the active one: it
// scans it for the durable end of the log, truncates a torn tail there and
// re-opens the file for appending at that end, returning the LSN the next
// record takes. Earlier segments were sealed by an fsync; Replay verifies
// them in full. A scan that finds real corruption returns ErrCorrupt.
func (w *WAL) openTail(base uint64) (next uint64, err error) {
	path := segmentPath(w.dir, base)
	end, next, torn, err := readSegment(w.fs, path, base, true, nil)
	if err != nil {
		return 0, err
	}
	if torn {
		if err := truncateFile(w.fs, path, end); err != nil {
			return 0, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	f, err := w.fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.segBase = base
	w.segBytes = end
	return next, nil
}

// checkWALMeta writes the identity file on first open and verifies it on
// every later one, returning the log's epoch either way.
func checkWALMeta(dir, meta string) (string, error) {
	m, err := readWALMeta(dir)
	if errors.Is(err, fs.ErrNotExist) {
		epoch, err := newEpoch()
		if err != nil {
			return "", fmt.Errorf("wal: %w", err)
		}
		return epoch, WriteFileAtomic(filepath.Join(dir, walMetaName), func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(&walMeta{Magic: walMetaMagic, Meta: meta, Epoch: epoch})
		})
	}
	if err != nil {
		return "", err
	}
	if m.Meta != meta {
		return "", fmt.Errorf("wal: log at %s was written under %q, not %q", dir, m.Meta, meta)
	}
	return m.Epoch, nil
}

// readWALMeta decodes dir's identity file, read only.
func readWALMeta(dir string) (walMeta, error) {
	path := filepath.Join(dir, walMetaName)
	f, err := os.Open(path)
	if err != nil {
		return walMeta{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	var m walMeta
	if err := gob.NewDecoder(f).Decode(&m); err != nil || m.Magic != walMetaMagic {
		return walMeta{}, fmt.Errorf("wal: %s is not a wal meta file: %w", path, ErrCorrupt)
	}
	return m, nil
}

// newEpoch returns a random log-instance identifier.
func newEpoch() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// segmentPath names the segment of dir whose first record is base.
func segmentPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d%s", base, segmentSuffix))
}

// listSegments returns the segment base LSNs in ascending order.
func listSegments(fsys faultfs.FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var bases []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), segmentSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: segment name %q: %w", name, ErrCorrupt)
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// createSegment opens a fresh segment whose first record will be base,
// fsyncing the directory so the name survives a crash. Caller holds mu
// and the sync slot (or the WAL is not yet shared).
func (w *WAL) createSegment(base uint64) error {
	f, err := w.fs.OpenFile(segmentPath(w.dir, base), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(w.fs, w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segBase = base
	w.segBytes = 0
	return nil
}

// AppendAll journals recs in order under one lock acquisition: one mutex
// round-trip and one encode pass cover a whole drained batch. It returns
// the LSN assigned to the last record; the batch's LSNs are the contiguous
// run ending there (last-len(recs)+1 … last). The records are only encoded
// into the pending frames, not written: call WaitSync (or Sync) to make
// them durable. The call is all or nothing. It refuses a closed or
// poisoned log, and an oversized record, which fails the whole call
// without poisoning the WAL (the reader caps payloads at maxRecordBytes, so
// writing the frame would produce a log that fails replay with ErrCorrupt)
// — callers pre-validate with Record.Oversized.
func (w *WAL) AppendAll(recs []Record) (uint64, error) {
	for _, rec := range recs {
		if rec.Oversized() {
			return 0, fmt.Errorf("wal append: record exceeds %d payload bytes: %w", maxRecordBytes, ErrTooLarge)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	if w.writeErr != nil {
		return 0, w.writeErr
	}
	n := len(w.pending)
	for _, rec := range recs {
		rec.LSN = w.nextLSN
		w.pending = appendFrame(w.pending, rec)
		w.nextLSN++
	}
	w.segBytes += int64(len(w.pending) - n)
	w.unsynced += len(recs)
	return w.nextLSN - 1, nil
}

// flush writes the pending frames the file does not have yet. Caller holds
// mu and the sync slot.
func (w *WAL) flush() error {
	if w.flushed == len(w.pending) {
		return nil
	}
	n, err := w.f.Write(w.pending[w.flushed:])
	w.flushed += n
	return err
}

// dropSynced drops the first covered bytes (frames frames) of pending: an
// fsync of what flush wrote has made them durable. Caller holds mu.
func (w *WAL) dropSynced(covered, frames int) {
	w.pending = w.pending[:copy(w.pending, w.pending[covered:])]
	if len(w.pending) == 0 && cap(w.pending) > maxIdlePendingBytes {
		w.pending = nil
	}
	w.flushed -= covered
	w.unsynced -= frames
}

// poison makes err the log's sticky write failure and returns it. Caller
// holds mu.
func (w *WAL) poison(op string, err error) error {
	w.writeErr = fmt.Errorf("%s: %w", op, err)
	return w.writeErr
}

// rotate seals the active segment, every frame of which flush has written:
// fsync, close, then create the next segment. The fsync comes first, so a
// crash never leaves a successor beside an unsealed segment. Caller holds
// mu and the sync slot.
func (w *WAL) rotate() error {
	if err := w.f.Sync(); err != nil {
		return w.poison("wal rotate", err)
	}
	w.dropSynced(w.flushed, w.unsynced)
	err := w.f.Close()
	// Cleared until createSegment replaces it: if that fails, the WAL is
	// poisoned with w.f already closed, and Close must not close it again.
	w.f = nil
	if err == nil {
		err = w.createSegment(w.nextLSN)
	}
	if err != nil {
		return w.poison("wal rotate", err)
	}
	w.segments++
	return nil
}

// WaitSync blocks until every record up to and including lsn (an LSN
// AppendAll returned) is on disk, running the group commit itself once it
// holds the sync slot. Concurrent callers coalesce: one fsync commits every
// record buffered when it starts, and the callers it covered find the
// advanced watermark when they get the slot.
func (w *WAL) WaitSync(lsn uint64) error {
	w.mu.Lock()
	synced := w.synced
	w.mu.Unlock()
	if synced >= lsn {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.synced >= lsn {
		return nil
	}
	return w.syncNow()
}

// syncNow is the group commit: it writes the pending frames and fsyncs
// the active segment, dropping mu around the fsync so appends (and whole
// pipeline batches) proceed concurrently with it; they are simply not
// covered by it. A segment that has reached the size threshold is sealed
// instead, under mu (rotate). On success synced covers every record
// appended before the call. Caller holds the sync slot and mu.
func (w *WAL) syncNow() error {
	if w.closed {
		return ErrWALClosed
	}
	if w.writeErr != nil {
		return w.writeErr
	}
	if err := w.flush(); err != nil {
		return w.poison("wal sync", err)
	}
	target := w.nextLSN - 1
	if w.segBytes >= w.segSize {
		if err := w.rotate(); err != nil {
			return err
		}
	} else {
		f, covered, frames := w.f, w.flushed, w.unsynced
		w.mu.Unlock()
		err := f.Sync()
		w.mu.Lock()
		if err != nil {
			return w.poison("wal sync", err)
		}
		w.dropSynced(covered, frames)
	}
	if target > w.synced {
		w.synced = target
		w.syncs++
	}
	return nil
}

// Sync makes every appended record durable.
func (w *WAL) Sync() error {
	w.mu.Lock()
	last := w.nextLSN - 1
	w.mu.Unlock()
	return w.WaitSync(last)
}

// Replay makes every appended record durable, then streams every record of
// the log, in LSN order, to fn; fn's error aborts the walk. It verifies
// CRCs and LSN continuity within and across segments, failing with
// ErrCorrupt on damage (a torn tail of the final segment was already
// repaired by Open and simply ends the walk). Replay is meant to run
// before ingest starts; it blocks appends for its duration.
func (w *WAL) Replay(fn func(Record) error) error {
	if err := w.Sync(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	return walk(w.fs, w.dir, 0, fn, nil)
}

// errStopRead aborts a ReadFrom segment walk once max records are
// collected; it never escapes ReadFrom.
var errStopRead = errors.New("stop read")

// ReadFrom returns up to max DURABLE records with LSN >= from, in LSN
// order (max <= 0 = no cap), plus the synced watermark at the time of the
// read — the tail-shipping primitive behind a follower's catch-up
// polling. Serving only up to the synced watermark keeps two promises at
// once: a degraded log (sticky write/fsync error) still serves reads —
// synced frames are on disk by definition, no write of the pending
// frames is needed — and a follower never applies a record that a crash
// of the leader could still lose. Segments entirely below from are skipped
// by name, and the walk checks the seam between the segments it reads, so
// the records returned never jump. Like Replay it blocks appends for its
// duration, but the duration is bounded by max plus at most one segment's
// decode.
//
// LSNs are dense, so a caller can detect a truncated gap: if the first
// returned record's LSN is greater than from, records [from, first) were
// removed by TruncateBefore and the caller must re-bootstrap from a
// snapshot rather than replay the tail.
func (w *WAL) ReadFrom(from uint64, max int) (recs []Record, lastLSN uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, 0, ErrWALClosed
	}
	synced := w.synced
	err = walk(w.fs, w.dir, from, func(rec Record) error {
		if rec.LSN > synced || max > 0 && len(recs) >= max {
			return errStopRead
		}
		recs = append(recs, rec)
		return nil
	}, nil)
	if err != nil && !errors.Is(err, errStopRead) {
		return nil, 0, err
	}
	return recs, synced, nil
}

// walk is the one segment walk behind Replay, ReadFrom and VerifyWAL. It
// lists dir's segments, skips those wholly below from, reads the rest in
// order — handing fn each record with LSN >= from, and seg (when non-nil)
// each segment's scan, the damaged one included — and checks every seam:
// a segment must begin at the LSN after its predecessor's last record, so a
// missing segment is ErrCorrupt, never a jump in the stream.
func walk(fsys faultfs.FS, dir string, from uint64, fn func(Record) error,
	seg func(base uint64, end int64, next uint64, torn bool)) error {
	bases, err := listSegments(fsys, dir)
	if err != nil {
		return err
	}
	for i, base := range bases {
		last := i == len(bases)-1
		if !last && bases[i+1] <= from {
			continue
		}
		end, next, torn, err := readSegment(fsys, segmentPath(dir, base), base, last, func(rec Record) error {
			if rec.LSN < from {
				return nil
			}
			return fn(rec)
		})
		if seg != nil {
			seg(base, end, next, torn)
		}
		if err != nil {
			return err
		}
		if !last && bases[i+1] != next {
			return fmt.Errorf("wal: gap between segments: %d ends at lsn %d, next starts at %d: %w",
				base, next-1, bases[i+1], ErrCorrupt)
		}
	}
	return nil
}

// TruncateBefore removes segments every record of which has LSN < lsn —
// they are covered by a snapshot and will never be replayed. The active
// segment always survives. Partial segments survive too: replay skips
// their already-applied records individually.
func (w *WAL) TruncateBefore(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	bases, err := listSegments(w.fs, w.dir)
	if err != nil {
		return err
	}
	removed := 0
	for i := 0; i+1 < len(bases) && bases[i+1] <= lsn; i++ {
		if bases[i] == w.segBase {
			break // never the active segment
		}
		if err := w.fs.Remove(segmentPath(w.dir, bases[i])); err != nil {
			return fmt.Errorf("wal truncate: %w", err)
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(w.fs, w.dir); err != nil {
			return err
		}
		w.segments -= removed
	}
	return nil
}

// WALStats is a monitoring snapshot of the log.
type WALStats struct {
	// LastLSN is the highest assigned LSN (0 = empty log).
	LastLSN uint64
	// SyncedLSN is the highest LSN guaranteed on disk; LastLSN − SyncedLSN
	// is the number of unsynced (acknowledgeable-but-volatile) records.
	SyncedLSN uint64
	// Syncs counts the group commits that advanced SyncedLSN since the log
	// was opened (a segment seal is one), so the records one fsync makes
	// durable average (SyncedLSN − SyncedLSN at open) / Syncs.
	Syncs uint64
	// Segments is the live segment-file count, including the active one.
	Segments int
}

// Stats returns a monitoring snapshot, read under mu alone: it never
// waits for a group commit's fsync.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{LastLSN: w.nextLSN - 1, SyncedLSN: w.synced, Syncs: w.syncs, Segments: w.segments}
}

// Epoch returns the log instance's random identity, assigned when the
// log directory was created. Two logs at the same path but created at
// different times (one deleted and replaced) have different epochs.
func (w *WAL) Epoch() string { return w.epoch }

// LastLSN returns the highest assigned LSN (0 = empty log).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// Err returns the log's sticky failure — a failed write or fsync — or nil
// while healthy. A closed log reports ErrWALClosed.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	return w.writeErr
}

// Repair attempts to return a poisoned log to service without a process
// restart — the degraded daemon's background heal path. The frames no
// successful fsync covered are still pending, and the pool has applied
// their ops (an op is applied once AppendAll journals it, before its
// fsync), so Repair cuts the active segment back to its durable end —
// dropping whatever torn or unsynced bytes the fault left — and writes
// those frames again under their own LSNs: the log holds exactly the ops
// the pool applied, and every later record, and every tuple id, means on
// replay and on a follower what it meant on the leader. It takes the sync
// slot first, so it waits out a group commit in flight.
//
// On success the sticky failure is cleared and the synced watermark covers
// the whole repaired log, so WaitSync callers queued on the slot return
// without an fsync; rewritten is how many frames were written again (none
// of them was acknowledged: an ack waits for its fsync). Repair returns a non-nil
// error and leaves the log poisoned when the fault still holds (the repair
// I/O itself failed — retry later) or the durable part of the segment does
// not end where the pending frames begin (ErrCorrupt).
func (w *WAL) Repair() (rewritten uint64, err error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	if w.writeErr == nil {
		return 0, nil // healthy
	}
	// Drop the poisoned handle: the file may end in a torn frame. nil
	// already when a failed rotation closed it.
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	bases, err := listSegments(w.fs, w.dir)
	if err != nil {
		return 0, err
	}
	if len(bases) == 0 {
		return 0, fmt.Errorf("wal repair: no segments on disk: %w", ErrCorrupt)
	}
	w.segments = len(bases) // recount: a fault mid-rotation may have lied
	tail := bases[len(bases)-1]
	if tail == w.segBase {
		// A rotation that failed after creating the next segment left it
		// empty, with nothing pending; otherwise the durable end is here.
		if err := truncateFile(w.fs, segmentPath(w.dir, tail), w.segBytes-int64(len(w.pending))); err != nil {
			return 0, fmt.Errorf("wal repair: %w", err)
		}
	}
	next, err := w.openTail(tail)
	if err != nil {
		return 0, err // ErrCorrupt is not repairable; an I/O error may clear
	}
	if first := w.nextLSN - uint64(w.unsynced); next != first {
		return 0, fmt.Errorf("wal repair: the durable log ends before lsn %d, the pending frames begin at %d: %w", next, first, ErrCorrupt)
	}
	w.segBytes += int64(len(w.pending))
	w.flushed = 0
	if err := w.flush(); err != nil {
		return 0, w.poison("wal repair", err)
	}
	if err := w.f.Sync(); err != nil {
		return 0, w.poison("wal repair", err)
	}
	rewritten = uint64(w.unsynced)
	w.dropSynced(w.flushed, w.unsynced)
	w.writeErr = nil
	w.synced = w.nextLSN - 1
	return rewritten, nil // a full segment seals at the next group commit
}

// Close flushes, fsyncs and closes the log, taking the sync slot first so
// a group commit in flight finishes on an open file. Waiting WaitSync
// callers observe either the final watermark or ErrWALClosed.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	var err error
	if w.writeErr == nil {
		if err = w.flush(); err == nil {
			err = w.f.Sync()
		}
		if err == nil {
			w.synced = w.nextLSN - 1
		}
	}
	if w.f != nil { // nil after a failed rotation already closed it
		err = errors.Join(err, w.f.Close())
	}
	w.closed = true
	return err
}

// readSegment scans one segment file, verifying framing, CRCs and LSN
// continuity from base, invoking fn (when non-nil) per record. It returns
// the offset after the last complete record, the next expected LSN, and
// whether a torn tail was found — on an error, how far the scan got. Torn
// tails are tolerated only in the final segment (isLast); anywhere else
// they are corruption, as is any full record failing its CRC.
//
// A torn tail is not only a short read: power loss can persist the final
// record's file-size extension without all of its data blocks, leaving a
// full-length frame that is zero-filled or half-written. So in the final
// segment a broken frame (bad length, CRC mismatch) followed by nothing
// but zeros is repaired as torn — that region was never covered by a
// successful fsync, or the fsync's acknowledgement never happened. A
// broken frame with NON-zero data after it cannot come from a torn
// sequential write and stays ErrCorrupt: truncating there could drop
// fsynced records.
func readSegment(fsys faultfs.FS, path string, base uint64, isLast bool, fn func(Record) error) (end int64, next uint64, torn bool, err error) {
	next = base
	f, err := fsys.Open(path)
	if err != nil {
		return 0, next, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var (
		off     int64
		hdr     [frameHeaderLen]byte
		payload []byte
	)
	for {
		_, rerr := io.ReadFull(br, hdr[:])
		if rerr == io.EOF {
			return off, next, false, nil
		}
		if rerr == io.ErrUnexpectedEOF {
			if !isLast {
				return off, next, false, fmt.Errorf("wal: %s: torn record header at offset %d in sealed segment: %w", path, off, ErrCorrupt)
			}
			return off, next, true, nil
		}
		if rerr != nil {
			return off, next, false, fmt.Errorf("wal: %s: %w", path, rerr)
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if length == 0 || length > maxRecordBytes {
			if isLast && restIsZeros(br) {
				return off, next, true, nil // zero-filled torn tail
			}
			return off, next, false, fmt.Errorf("wal: %s: record length %d at offset %d: %w", path, length, off, ErrCorrupt)
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, rerr := io.ReadFull(br, payload); rerr != nil {
			if rerr == io.ErrUnexpectedEOF || rerr == io.EOF {
				if !isLast {
					return off, next, false, fmt.Errorf("wal: %s: torn record at offset %d in sealed segment: %w", path, off, ErrCorrupt)
				}
				return off, next, true, nil
			}
			return off, next, false, fmt.Errorf("wal: %s: %w", path, rerr)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			if isLast && restIsZeros(br) {
				return off, next, true, nil // half-persisted torn tail
			}
			return off, next, false, fmt.Errorf("wal: %s: crc mismatch at offset %d (lsn %d expected): %w", path, off, next, ErrCorrupt)
		}
		rec, perr := parsePayload(payload)
		if perr != nil {
			return off, next, false, fmt.Errorf("wal: %s: offset %d: %v: %w", path, off, perr, ErrCorrupt)
		}
		if rec.LSN != next {
			return off, next, false, fmt.Errorf("wal: %s: lsn %d at offset %d, want %d: %w", path, rec.LSN, off, next, ErrCorrupt)
		}
		if fn != nil {
			if ferr := fn(rec); ferr != nil {
				return off, next, false, ferr
			}
		}
		next++
		off += frameHeaderLen + int64(length)
	}
}

// restIsZeros consumes the reader and reports whether every remaining
// byte is zero — an empty remainder counts. It distinguishes a torn tail
// (size extended past the durable data, un-persisted blocks read back as
// zeros) from damage followed by real records.
func restIsZeros(br *bufio.Reader) bool {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return err == io.EOF
		}
		if b != 0 {
			return false
		}
	}
}

// truncateFile cuts path to size and fsyncs it.
func truncateFile(fsys faultfs.FS, path string, size int64) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory so renames and creates within it are durable.
// It opens the directory read-only, so a faultfs plan never fails it.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
