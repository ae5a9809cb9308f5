package situfact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
)

// TestSnapshotRoundTrip: continuing a stream from a snapshot must behave
// exactly like never having stopped, including prominence counters,
// deletions and the µ store.
func TestSnapshotRoundTrip(t *testing.T) {
	mk := func() *Engine {
		eng, err := New(gamelogSchema(t), Options{Algorithm: AlgoBottomUp})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	reference := mk()
	snapped := mk()
	for _, r := range table1Rows[:5] {
		if _, err := reference.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
		if _, err := snapped.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	if err := reference.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := snapped.Delete(3); err != nil {
		t.Fatal(err)
	}

	buf, err := snapped.appendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loadSnapshot(gamelogSchema(t), buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != reference.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), reference.Len())
	}

	// Continue both streams identically; results must agree fact-by-fact.
	for _, r := range table1Rows[5:] {
		want, err := reference.Append(r.d, r.m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Append(r.d, r.m)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Facts) != len(got.Facts) {
			t.Fatalf("arrival %d: %d facts vs %d after restore", want.TupleID, len(want.Facts), len(got.Facts))
		}
		for i := range want.Facts {
			if want.Facts[i].String() != got.Facts[i].String() {
				t.Fatalf("arrival %d fact %d: %q vs %q", want.TupleID, i,
					want.Facts[i].String(), got.Facts[i].String())
			}
		}
	}
	// Deletion state must survive too.
	if err := restored.Delete(3); err == nil {
		t.Error("tombstone lost: double delete accepted after restore")
	}
}

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

func TestSnapshotWithoutProminence(t *testing.T) {
	eng, err := New(gamelogSchema(t), Options{DisableProminence: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range table1Rows[:3] {
		eng.Append(r.d, r.m)
	}
	buf, err := eng.appendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loadSnapshot(gamelogSchema(t), buf)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := restored.Append(table1Rows[3].d, table1Rows[3].m)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Facts) == 0 {
		t.Error("restored prominence-free engine found no facts")
	}
	if arr.Facts[0].Prominence != 0 {
		t.Error("prominence tracked after prominence-free restore")
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

// snapshotHistory drives a seeded random history into a two-shard pool over
// the query-test schema: appends under tight cardinalities, retractions of
// single rows, and retractions of every row carrying one label, which empty
// whole constraints (their blocks are released and their context counts
// dropped, leaving holes in the store's constraint ids).
func snapshotHistory(t *testing.T, algo Algorithm, prominence bool, seed int64) *Pool {
	t.Helper()
	opts := Options{Algorithm: algo, DisableProminence: !prominence}
	if seed%2 == 0 {
		opts.MaxBoundDims, opts.MaxMeasureDims = 3, 2
	}
	pool, err := NewPool(queryTestSchema(t), PoolOptions{Shards: 2, ShardDim: "region", Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	type handle struct {
		shard int
		id    int64
		label string
	}
	var live []handle
	for step := 0; step < 120; step++ {
		switch {
		case len(live) > 10 && step%40 == 39:
			label := live[rng.Intn(len(live))].label
			kept := live[:0]
			for _, h := range live {
				if h.label != label {
					kept = append(kept, h)
				} else if err := pool.Delete(h.shard, h.id); err != nil {
					t.Fatal(err)
				}
			}
			live = kept
		case len(live) > 10 && rng.Intn(6) == 0:
			j := rng.Intn(len(live))
			if err := pool.Delete(live[j].shard, live[j].id); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		default:
			r := randomRow(rng)
			arr, err := pool.Append(r.Dims, r.Measures)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, handle{arr.Shard, arr.TupleID, r.Dims[3]})
		}
	}
	return pool
}

// TestSnapshotRestoreProperties: over seeded random histories, both pool
// algorithms, prominence on and off — any snapshot restores to an engine
// with equal Metrics, equal logical content, equal /v1/facts pages and
// equal facts for the next arrival; and save → restore → save is a
// byte-for-byte fixed point, the restored pool's checkpoint repeating the
// files it came from. Its histories retract whole labels, so it also pins
// the constraint-id holes a restore numbers densely.
func TestSnapshotRestoreProperties(t *testing.T) {
	schema := queryTestSchema(t)
	// holes counts constraint ids the writers had interned and kept no cell
	// under: a restore numbers the live ones densely, in the same order.
	holes := 0
	defer func() {
		if holes == 0 {
			t.Error("no history left a constraint without cells: the id-compaction case went unexercised")
		}
	}()
	for _, algo := range []Algorithm{AlgoBottomUp, AlgoSBottomUp} {
		for _, prominence := range []bool{true, false} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/prominence=%v/seed=%d", algo, prominence, seed), func(t *testing.T) {
					pool := snapshotHistory(t, algo, prominence, seed)
					defer pool.Close()
					dir := t.TempDir()
					st, err := pool.Checkpoint(dir, nil)
					if err != nil {
						t.Fatal(err)
					}
					files := readShardSnapshots(t, dir, pool.Shards())
					var total int64
					for _, f := range files {
						total += int64(len(f))
					}
					if st.Bytes != total || st.Elapsed <= 0 || st.LongestHold <= 0 || st.LongestHold > st.Elapsed {
						t.Errorf("CheckpointStats %+v for %d bytes of shard files", st, total)
					}
					restored, _, err := RestorePool(schema, dir)
					if err != nil {
						t.Fatal(err)
					}
					defer restored.Close()

					if got, want := restored.Metrics(), pool.Metrics(); got != want {
						t.Errorf("restored Metrics = %+v, want %+v", got, want)
					}
					for i := range pool.shards {
						a, b := pool.shards[i].eng, restored.shards[i].eng
						holes += a.mem.Interner().Len() - b.mem.Interner().Len()
						diffLines(t, fmt.Sprintf("shard %d content", i), b.logicalContent(), a.logicalContent())
					}
					want := collectPages(t, pool.QueryFacts, FactFilter{Shard: AllShards}, 17)
					got := collectPages(t, restored.QueryFacts, FactFilter{Shard: AllShards}, 17)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("restored pool serves %d pages that differ from the original's %d", len(got), len(want))
					}

					dir2 := t.TempDir()
					if _, err := restored.Checkpoint(dir2, nil); err != nil {
						t.Fatal(err)
					}
					for i, again := range readShardSnapshots(t, dir2, pool.Shards()) {
						if !bytes.Equal(again, files[i]) {
							t.Errorf("shard %d: save → restore → save changed the file (%d bytes, then %d)", i, len(files[i]), len(again))
						}
					}

					rng := rand.New(rand.NewSource(seed + 100))
					for n := 0; n < 5; n++ {
						r := randomRow(rng)
						want, err := pool.Append(r.Dims, r.Measures)
						if err != nil {
							t.Fatal(err)
						}
						got, err := restored.Append(r.Dims, r.Measures)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("next arrival %d after restore = %+v, want %+v", n, got, want)
						}
					}
					if got, want := restored.Metrics(), pool.Metrics(); got != want {
						t.Errorf("Metrics after the next arrivals = %+v, want %+v", got, want)
					}
				})
			}
		}
	}
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

// TestCheckpointSharesTheShardLockWithReaders: a checkpoint encodes each
// shard under its read lock — beside page reads and Metrics, excluding only
// appends — so under the race detector this is the test that the encode
// mutates nothing. Every checkpoint taken mid-stream must restore to a
// prefix of the stream: a state some moment of the run was in.
func TestCheckpointSharesTheShardLockWithReaders(t *testing.T) {
	schema := queryTestSchema(t)
	pool, err := NewPool(schema, PoolOptions{Shards: 2, ShardDim: "region"})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const rows = 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < rows; i++ {
			r := randomRow(rng)
			if _, err := pool.Append(r.Dims, r.Measures); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := pool.QueryFacts(FactFilter{Shard: AllShards}, "", 50); err != nil {
				t.Error(err)
				return
			}
			pool.Metrics()
		}
	}()
	dir := t.TempDir()
	checkpoints := 0
	for running := true; running; checkpoints++ {
		select {
		case <-done:
			running = false // one more, of the final state
		default:
		}
		if _, err := pool.Checkpoint(dir, nil); err != nil {
			t.Fatal(err)
		}
		restored, _, err := RestorePool(schema, dir)
		if err != nil {
			t.Fatalf("checkpoint %d does not restore: %v", checkpoints, err)
		}
		if n := restored.Metrics().Tuples; n > rows || int(n) != restored.Len() {
			t.Errorf("checkpoint %d restored %d tuples processed, %d live, of a stream of %d", checkpoints, n, restored.Len(), rows)
		}
		restored.Close()
	}
	wg.Wait()
	restored, _, err := RestorePool(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got, want := restored.Metrics(), pool.Metrics(); got != want {
		t.Errorf("the last checkpoint restored Metrics %+v, the pool has %+v", got, want)
	}
	if checkpoints < 2 {
		t.Errorf("%d checkpoints ran beside the stream: too few to have overlapped it", checkpoints)
	}
}
