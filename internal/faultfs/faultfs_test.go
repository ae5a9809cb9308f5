package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func writable(t *testing.T, fs FS, dir, name string) File {
	t.Helper()
	f, err := fs.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	return f
}

func TestFaultPlanParse(t *testing.T) {
	good := []string{
		"",
		"fsync:nth=1",
		"fsync:from=3",
		"write:enospc-after=0",
		"write:short-at=2",
		"fsync:from=2;clear-after=500ms",
		" fsync:nth=1 ; write:enospc-after=4096 ",
	}
	for _, s := range good {
		if _, err := parsePlan(s); err != nil {
			t.Errorf("parsePlan(%q) = %v, want nil", s, err)
		}
	}
	bad := []string{
		"fsync:nth=0",
		"fsync:nth=x",
		"fsync",
		"write:enospc-after=-1",
		"clear-after=0",
		"clear-after=fast",
		"disk:on-fire=true",
	}
	for _, s := range bad {
		if _, err := parsePlan(s); err == nil {
			t.Errorf("parsePlan(%q) = nil, want error", s)
		}
	}
}

func TestFaultFsyncNthIsOneShot(t *testing.T) {
	fs, err := NewWithPlan(OS, "fsync:nth=2")
	if err != nil {
		t.Fatal(err)
	}
	f := writable(t, fs, t.TempDir(), "f")
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 2 = %v, want ErrInjected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3 after one-shot: %v", err)
	}
	st := fs.Stats()
	if st.Syncs != 3 || st.InjectedSyncs != 1 {
		t.Fatalf("stats = %+v, want 3 syncs / 1 injected", st)
	}
}

func TestFaultFsyncFromIsSticky(t *testing.T) {
	fs, err := NewWithPlan(OS, "fsync:from=2")
	if err != nil {
		t.Fatal(err)
	}
	f := writable(t, fs, t.TempDir(), "f")
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("sync %d = %v, want sticky ErrInjected", i+2, err)
		}
	}
	fs.Clear()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after Clear: %v", err)
	}
}

func TestFaultEnospcTearsTheCrossingWrite(t *testing.T) {
	fs, err := NewWithPlan(OS, "write:enospc-after=10")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f := writable(t, fs, dir, "f")
	if n, err := f.Write(make([]byte, 6)); n != 6 || err != nil {
		t.Fatalf("write 1 = (%d, %v), want (6, nil)", n, err)
	}
	n, err := f.Write(make([]byte, 8))
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("crossing write err = %v, want ErrInjected wrapping ENOSPC", err)
	}
	if n != 4 {
		t.Fatalf("crossing write persisted %d bytes, want the 4-byte prefix", n)
	}
	f.Close()
	// The torn prefix must be real on-disk bytes.
	b, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 10 {
		t.Fatalf("on-disk size = %d, want 10", len(b))
	}
}

func TestFaultShortWrite(t *testing.T) {
	fs, err := NewWithPlan(OS, "write:short-at=1")
	if err != nil {
		t.Fatal(err)
	}
	f := writable(t, fs, t.TempDir(), "f")
	defer f.Close()
	n, err := f.Write(make([]byte, 8))
	if !errors.Is(err, ErrInjected) || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write err = %v, want ErrInjected wrapping ErrShortWrite", err)
	}
	if n != 4 {
		t.Fatalf("short write persisted %d bytes, want 4", n)
	}
	if n, err := f.Write(make([]byte, 8)); n != 8 || err != nil {
		t.Fatalf("next write = (%d, %v), want (8, nil)", n, err)
	}
}

func TestFaultReadOnlyOpensAreExempt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewWithPlan(OS, "fsync:from=1;write:enospc-after=0")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("read-only sync hit the plan: %v", err)
	}
	b := make([]byte, 5)
	if _, err := io.ReadFull(f, b); err != nil {
		t.Fatalf("read: %v", err)
	}
}

func TestFaultClearAfterHeals(t *testing.T) {
	fs, err := NewWithPlan(OS, "fsync:from=1;clear-after=50ms")
	if err != nil {
		t.Fatal(err)
	}
	f := writable(t, fs, t.TempDir(), "f")
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 1 = %v, want ErrInjected", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := f.Sync(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plan did not clear itself within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := fs.Stats(); st.Plan != "" {
		t.Fatalf("expired plan still reported active: %+v", st)
	}
}

func TestFaultProgramResetsCounters(t *testing.T) {
	fs := New(OS)
	f := writable(t, fs, t.TempDir(), "f")
	defer f.Close()
	if _, err := f.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Program("fsync:nth=1"); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.Syncs != 0 || st.Writes != 0 || st.BytesWritten != 0 {
		t.Fatalf("Program did not reset counters: %+v", st)
	}
	// nth counts from the Program call, not process start.
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first post-Program sync = %v, want ErrInjected", err)
	}
}
