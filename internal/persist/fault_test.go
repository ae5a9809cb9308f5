package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
)

// faultWAL opens a WAL whose segment I/O runs through a Faulty with the
// given plan.
func faultWAL(t *testing.T, dir, plan string) (*WAL, *faultfs.Faulty) {
	t.Helper()
	fs, err := faultfs.NewWithPlan(faultfs.OS, plan)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir, WALOptions{Meta: "sig", FS: fs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return w, fs
}

// TestFaultRepairRewritesUnsynced: a fault on the way to disk — a failed
// fsync, a disk that fills mid-frame, a torn write — poisons the log, and
// stays sticky after a one-shot fault has passed. The five records it left
// unsynced were never acknowledged, but their ops may already be applied:
// Repair cuts back whatever the fault left past the durable end and writes
// the same five records again under their own LSNs, the log keeps working,
// and a reopen replays every record, in order, as written.
func TestFaultRepairRewritesUnsynced(t *testing.T) {
	for _, plan := range []string{"fsync:nth=1", "write:enospc-after=10", "write:short-at=1"} {
		t.Run(plan, func(t *testing.T) {
			dir := t.TempDir()
			w, fs := faultWAL(t, dir, "")
			defer w.Close()
			for i := range 8 {
				if i == 3 { // a durable prefix, then the fault
					if err := w.Sync(); err != nil {
						t.Fatal(err)
					}
					if err := fs.Program(plan); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("sync = %v, want the injected fault", err)
			}
			if _, err := w.AppendAll([]Record{appendRec(9)}); err == nil || !errors.Is(w.Err(), faultfs.ErrInjected) {
				t.Fatalf("append on the poisoned log = %v, Err() = %v; want both failing", err, w.Err())
			}
			fs.Clear()
			if n, err := w.Repair(); err != nil || n != 5 || w.Err() != nil {
				t.Fatalf("Repair = %d, %v, then Err() = %v; want the 5 unsynced records written again", n, err, w.Err())
			}
			if lsn, err := w.AppendAll([]Record{appendRec(8)}); err != nil || lsn != 9 {
				t.Fatalf("append after the repair = lsn %d, %v; want lsn 9", lsn, err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := OpenWAL(dir, WALOptions{Meta: "sig"})
			if err != nil {
				t.Fatalf("reopen repaired log: %v", err)
			}
			defer w2.Close()
			got := collect(t, w2)
			if len(got) != 9 {
				t.Fatalf("reopen replay found %d records, want 9", len(got))
			}
			for i, rec := range got {
				if want := appendRec(i); rec.LSN != uint64(i+1) || rec.Type != RecAppend || rec.Dims[1] != want.Dims[1] {
					t.Fatalf("record %d = %+v, want lsn %d holding %+v", i, rec, i+1, want)
				}
			}
		})
	}
}

// TestFaultReadFromServesDegraded: a poisoned log still serves its
// durable prefix to followers — and never serves unsynced records, which
// a crash could still lose.
func TestFaultReadFromServesDegraded(t *testing.T) {
	dir := t.TempDir()
	w, fs := faultWAL(t, dir, "")
	defer w.Close()
	for i := 0; i < 4; i++ {
		if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Program("fsync:from=1"); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 6; i++ {
		if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync under sticky fault succeeded")
	}
	recs, last, err := w.ReadFrom(1, 0)
	if err != nil {
		t.Fatalf("ReadFrom on degraded log: %v", err)
	}
	if len(recs) != 4 || last != 4 {
		t.Fatalf("ReadFrom = %d records, last %d; want 4 durable records, last 4", len(recs), last)
	}
}

// TestFaultVerifyWAL: the offline fsck counts records per segment, flags
// nothing on a clean log, and reports ErrCorrupt on real damage.
func TestFaultVerifyWAL(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Meta: "sig", SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	total := 12
	for i := 0; i < total; i++ {
		if _, err := w.AppendAll([]Record{appendRec(i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	reports, err := VerifyWAL(dir)
	if err != nil {
		t.Fatalf("verify clean log: %v", err)
	}
	if len(reports) < 2 {
		t.Fatalf("got %d segments, want rotation to have made several", len(reports))
	}
	sum := 0
	for _, r := range reports {
		if r.Torn {
			t.Fatalf("clean log reported torn segment %s", r.Name)
		}
		sum += r.Records
	}
	if sum != total {
		t.Fatalf("verify counted %d records, want %d", sum, total)
	}

	// Flip a payload byte in the first (sealed) segment: CRC mismatch.
	path := filepath.Join(dir, reports[0].Name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHeaderLen+2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyWAL(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("verify corrupt log = %v, want ErrCorrupt", err)
	}
}
