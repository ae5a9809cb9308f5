package main

import (
	"os"
	"path/filepath"
	"testing"

	situfact "repro"
)

// The counting filesystem under a real journal: a sequential caller on the
// direct path pays one fsync per append, one batch shares fsyncs between
// its rows, and the bytes counted are the bytes in the segment files.
func TestCountFSUnderWAL(t *testing.T) {
	w := workloads[1].scaled(1, 12)
	schema, err := newSchema(w)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newPool(schema, w)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfs := newCountFS()
	dir := t.TempDir()
	wal, err := situfact.OpenWAL(pool, dir, situfact.WALOptions{FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.AttachWAL(wal); err != nil {
		t.Fatal(err)
	}
	rows := testPlan(t, w, 1).st.rows
	const n = 24
	if len(rows) < 2*n {
		t.Fatalf("plan has %d rows, need %d", len(rows), 2*n)
	}

	base := cfs.snapshot()
	for _, r := range rows[:n] {
		if _, err := pool.Append(r.Dims, r.Measures); err != nil {
			t.Fatal(err)
		}
	}
	single := cfs.snapshot().since(base)
	if single.syncs != n || len(single.syncNs) != n {
		t.Errorf("%d sequential appends cost %d fsyncs (%d timed), want %d", n, single.syncs, len(single.syncNs), n)
	}
	if single.writes < n || single.writeNs <= 0 {
		t.Errorf("%d sequential appends made %d writes taking %dns", n, single.writes, single.writeNs)
	}

	base = cfs.snapshot()
	if _, err := pool.AppendBatch(rows[n : 2*n]); err != nil {
		t.Fatal(err)
	}
	batch := cfs.snapshot().since(base)
	if batch.syncs < 1 || batch.syncs >= n {
		t.Errorf("one %d-row batch cost %d fsyncs, want at least 1 and fewer than rows", n, batch.syncs)
	}

	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	segments, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(segments) == 0 {
		t.Fatalf("no segment files in %s: %v", dir, err)
	}
	var onDisk int64
	for _, path := range segments {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if got := cfs.snapshot().bytes; got != onDisk {
		t.Errorf("counted %d bytes written, segment files hold %d", got, onDisk)
	}
}
