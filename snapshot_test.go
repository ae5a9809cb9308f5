package situfact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/persist"
)

func TestPoolSnapshotErrors(t *testing.T) {
	if _, _, err := RestorePool(gamelogSchema(t), t.TempDir()); err == nil {
		t.Error("empty directory accepted as pool snapshot")
	}
	if _, _, err := RestorePool(nil, t.TempDir()); err == nil {
		t.Error("nil schema accepted")
	}

	// A snapshot taken under one schema must not load under another.
	pool, err := NewPool(gamelogSchema(t), PoolOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Append(table1Rows[0].d, table1Rows[0].m); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := pool.Checkpoint(dir, nil); err != nil {
		t.Fatal(err)
	}
	other, err := NewSchemaBuilder("other").Dimension("x").Measure("y", LargerBetter).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RestorePool(other, dir); err == nil {
		t.Error("schema mismatch accepted")
	}

	// A corrupt shard fails the whole restore, naming the lowest corrupt
	// shard, after every decode has ended: no goroutine outlives it.
	four, err := NewPool(poolSchema(t), PoolOptions{Shards: 4, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()
	if _, err := four.AppendBatch(poolRows(120)); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	st, err := four.Checkpoint(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{3, 2} {
		name := filepath.Join(dir, persist.ShardSnapshotName(s, st.Generation))
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	if p, _, err := RestorePool(poolSchema(t), dir); !errors.Is(err, persist.ErrCorruptSnapshot) || !strings.Contains(err.Error(), "shard 2:") {
		if err == nil {
			p.Close()
		}
		t.Errorf("RestorePool with shards 2 and 3 of 4 corrupt = %v, want ErrCorruptSnapshot naming shard 2", err)
	}
	// A decode goroutine that has signalled its end may still be exiting.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a failed restore, %d before", runtime.NumGoroutine(), before)
		}
	}

	// A manifest is input from outside the program (a follower writes the
	// one its leader sent), so the shard count it names sizes nothing: a
	// restore reads the files it names one by one and fails at the first
	// that is missing.
	dir = fixtureStateDir(t, "v2_bottomup.snapshot", 1)
	if err := persist.WriteManifest(dir, persist.Manifest{
		SchemaSig: schemaSig(fixtureSchema(t).rs), ShardDim: "team", Shards: 1 << 40, Generation: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if p, _, err := RestorePool(fixtureSchema(t), dir); !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), persist.ShardSnapshotName(1, 1)) {
		if err == nil {
			p.Close()
		}
		t.Errorf("RestorePool of a manifest naming 2^40 shards = %v, want the missing %s", err, persist.ShardSnapshotName(1, 1))
	}
}

func TestSnapshotErrors(t *testing.T) {
	// Garbage input.
	if _, err := loadSnapshot(gamelogSchema(t), []byte("not a snapshot")); err == nil {
		t.Error("garbage snapshot accepted")
	}

	// Schema mismatch.
	good, err := New(gamelogSchema(t), Options{Algorithm: AlgoBottomUp})
	if err != nil {
		t.Fatal(err)
	}
	good.Append(table1Rows[0].d, table1Rows[0].m)
	buf, err := good.appendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewSchemaBuilder("other").Dimension("x").Measure("y", LargerBetter).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(other, buf); err == nil {
		t.Error("schema mismatch accepted")
	}
	if _, err := loadSnapshot(nil, buf); err == nil {
		t.Error("nil schema accepted")
	}
}

func readShardSnapshots(t *testing.T, dir string, shards int) [][]byte {
	t.Helper()
	man, ok, err := persist.ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest of %s: %v (present: %v)", dir, err, ok)
	}
	out := make([][]byte, shards)
	for i := range out {
		if out[i], err = os.ReadFile(filepath.Join(dir, persist.ShardSnapshotName(i, man.Generation))); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// encodeFlat writes a decoded snapshot back out through the encoder. The
// encoder closes with an empty counts section (length, a zero count,
// checksum); cellLess, when given, replaces it with one that holds a
// context count for each of those keys.
func encodeFlat(s *persist.Snapshot, cellLess ...string) []byte {
	enc := persist.NewSnapshotEncoder(nil, s.SnapshotHeader)
	enc.Dict(s.Dict)
	enc.Tuples(s.N,
		func(i int) []int32 { return s.Dims[i*s.D : (i+1)*s.D] },
		func(i int) []float64 { return s.Raw[i*s.M : (i+1)*s.M] })
	enc.Tombstones(s.Deleted)
	enc.BeginCells()
	kl := s.KeyLen()
	cell, member := 0, 0
	for i, live := range s.Live {
		var count int64
		if s.Prominence {
			count = s.Counts[i]
		}
		enc.Constraint(s.Keys[i*kl:(i+1)*kl], count, int(live))
		for ; live > 0; live, cell = live-1, cell+1 {
			enc.Cell(s.Masks[cell], s.IDs[member:member+int(s.Sizes[cell])])
			member += int(s.Sizes[cell])
		}
	}
	enc.EndCells()
	out := enc.Bytes()
	if len(cellLess) == 0 {
		return out
	}
	payload := binary.AppendUvarint(nil, uint64(len(cellLess)))
	for _, key := range cellLess {
		payload = binary.AppendUvarint(append(payload, key...), 3)
	}
	out = binary.LittleEndian.AppendUint64(out[:len(out)-13], uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(append(out, payload...), crc32.ChecksumIEEE(payload))
}

// TestLoadSnapshotRefusesWhatWouldPanic: values that index the engine's
// structures — a cell's subspace mask, a member id, the key width and
// measure count the schema's blocks and vectors are laid out for — used to
// reach them unchecked (a mask of 2^9 indexed past an eight-slot block and
// took the daemon down at boot). They come back as ErrCorruptSnapshot
// naming the section and the cell. Each case mutates the decoded
// v2_bottomup.snapshot and writes it out again.
func TestLoadSnapshotRefusesWhatWouldPanic(t *testing.T) {
	fixture := readTestdata(t, "v2_bottomup.snapshot")
	decode := func(t *testing.T) *persist.Snapshot {
		s, err := persist.DecodeSnapshot(fixture)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if !bytes.Equal(encodeFlat(decode(t)), fixture) {
		t.Fatal("decode → encodeFlat does not reproduce v2_bottomup.snapshot")
	}
	cases := []struct {
		name   string
		mutate func(s *persist.Snapshot) []byte
		want   string
	}{
		{"mask 2^9", func(s *persist.Snapshot) []byte { s.Masks[0] = 1 << 9; return encodeFlat(s) }, "cells: constraint 0: cell 0: mask 512"},
		// Keys are 4·d bytes: a key shorter than the schema's is a file laid
		// out for fewer dimensions.
		{"short key", func(s *persist.Snapshot) []byte {
			var keys []byte
			for i := range s.Live {
				keys = append(keys, s.Keys[i*4*s.D:(i*4+4)*s.D-4]...)
			}
			var dims []int32
			for i := 0; i < s.N; i++ {
				dims = append(dims, s.Dims[i*s.D:(i+1)*s.D-1]...)
			}
			s.D, s.Keys, s.Dims, s.Dict = s.D-1, string(keys), dims, s.Dict[:s.D-1]
			return encodeFlat(s)
		}, "header: 4 dimensions and 3 measures under a schema of 5 and 3"},
		{"four measures", func(s *persist.Snapshot) []byte {
			var raw []float64
			for i := 0; i < s.N; i++ {
				raw = append(raw, s.Raw[i*s.M:(i+1)*s.M]...)
				raw = append(raw, 0)
			}
			s.M, s.Raw = s.M+1, raw
			return encodeFlat(s)
		}, "header: 5 dimensions and 4 measures under a schema of 5 and 3"},
		{"member past the table", func(s *persist.Snapshot) []byte { s.IDs[0] = uint32(s.N); return encodeFlat(s) }, "cells: constraint 0: cell 0: member 0: tuple 10 of 10"},
		{"empty cell", func(s *persist.Snapshot) []byte {
			s.IDs, s.Sizes[0] = s.IDs[s.Sizes[0]:], 0
			return encodeFlat(s)
		}, "cells: constraint 0: cell 0: 0 members"},
		{"count of zero", func(s *persist.Snapshot) []byte { s.Counts[0] = 0; return encodeFlat(s) }, "cells: constraint 0: context count 0"},
		// A count without a cell is TopDown state (Invariant 2); BottomUp never
		// leaves one.
		{"cell-less count", func(s *persist.Snapshot) []byte {
			return encodeFlat(s, strings.Repeat("\xff", 16)+"\xfe\xff\xff\x7f")
		}, "counts: 1 constraints without a cell, which Invariant 1 never leaves"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadSnapshot(fixtureSchema(t), tc.mutate(decode(t)))
			if !errors.Is(err, persist.ErrCorruptSnapshot) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("loadSnapshot = %v, want an error wrapping ErrCorruptSnapshot that says %q", err, tc.want)
			}
		})
	}
}

// snapshotDirFiles lists dir's tree, sorted: files by their path relative to
// dir, directories with a trailing slash.
func snapshotDirFiles(t testing.TB, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if d.IsDir() {
			rel += "/"
		}
		out = append(out, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// oneGeneration is what a snapshot directory holds once a checkpoint of
// generation gen over the given shards has committed: the manifest and
// that generation's shard files, and nothing else but extra.
func oneGeneration(shards int, gen uint64, extra ...string) []string {
	out := append([]string{persist.ManifestName}, extra...)
	for i := 0; i < shards; i++ {
		out = append(out, persist.ShardSnapshotName(i, gen))
	}
	slices.Sort(out)
	return out
}

// TestCheckpointSweepsOtherGenerations: a checkpoint leaves its directory
// holding one generation. What interrupted checkpoints left behind goes —
// the shard files of a superseded generation whose removal a crash cut
// off, of a generation that never committed, of a layout with more shards,
// and the temp files of shard and manifest writes cut off before their
// rename — and nothing else is touched: not a subdirectory such as the
// WAL's, even where its files carry a snapshot's names.
func TestCheckpointSweepsOtherGenerations(t *testing.T) {
	pool, err := NewPool(gamelogSchema(t), PoolOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, r := range table1Rows {
		if _, err := pool.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	for range 2 {
		if _, err := pool.Checkpoint(dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	left := []string{
		// a superseded generation, one that never committed, a wider layout
		persist.ShardSnapshotName(0, 1), persist.ShardSnapshotName(1, 1),
		persist.ShardSnapshotName(0, 3), persist.ShardSnapshotName(5, 2),
		// a shard write and a manifest write cut off before their rename
		persist.ShardSnapshotName(1, 3) + ".tmp-1234", persist.ManifestName + ".tmp-5678",
	}
	kept := []string{"wal/", "wal/" + persist.ShardSnapshotName(0, 1), "wal/" + persist.ManifestName + ".tmp-1", "wal/00000001.seg"}
	if err := os.Mkdir(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range append(left, kept[1:]...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("left behind"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := pool.Checkpoint(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotDirFiles(t, dir), oneGeneration(2, st.Generation, kept...); st.Generation != 3 || !slices.Equal(got, want) {
		t.Errorf("after the checkpoint of generation %d the directory holds\n %v\nwant\n %v", st.Generation, got, want)
	}
	restored, _, err := RestorePool(gamelogSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Len() != pool.Len() || restored.Metrics() != pool.Metrics() {
		t.Errorf("the swept directory restores %d rows (metrics %+v), the pool holds %d (%+v)",
			restored.Len(), restored.Metrics(), pool.Len(), pool.Metrics())
	}
}
