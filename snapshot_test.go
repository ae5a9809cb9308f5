package situfact

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

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

// TestLoadSnapshotRefusesWhatWouldPanic: values that index the engine's
// structures — a cell's subspace mask, a constraint key's length — used to
// reach them unchecked (a mask of 2^9 indexed past an eight-slot block and
// took the daemon down at boot). They come back as ErrCorruptSnapshot naming
// the section and the cell, from a v1 file as from a v2 one.
func TestLoadSnapshotRefusesWhatWouldPanic(t *testing.T) {
	snap := readTestdata(t, "prerefactor_bottomup.snapshot")
	cases := []struct {
		name   string
		mutate func(f *v1File)
		want   string
	}{
		{"mask 2^9", func(f *v1File) { f.Cells[0].M = 1 << 9 }, "cells: constraint 0: cell "},
		{"short key", func(f *v1File) { f.Cells[0].CKey = f.Cells[0].CKey[:7] }, "cells: constraint 0: key of 7 bytes under 5 dimensions"},
		{"member past the table", func(f *v1File) { f.Cells[0].IDs[0] = int64(len(f.Tuples)) }, "cells: constraint 0: cell "},
		{"empty cell", func(f *v1File) { f.Cells[0].IDs = nil }, "cells: constraint 0: cell "},
		{"count of zero", func(f *v1File) { f.Counts[f.Cells[0].CKey] = 0 }, "cells: constraint 0: context count 0"},
		// A count without a cell is TopDown state (Invariant 2); BottomUp never
		// leaves one.
		{"cell-less count", func(f *v1File) { f.Counts[strings.Repeat("\xff", 16)+"\xfe\xff\xff\x7f"] = 3 }, "counts: 1 constraints without a cell, which Invariant 1 never leaves"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := readV1File(t, snap)
			tc.mutate(f)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(f); err != nil {
				t.Fatal(err)
			}
			_, err := loadSnapshot(fixtureSchema(t), buf.Bytes())
			if !errors.Is(err, persist.ErrCorruptSnapshot) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("loadSnapshot = %v, want an error wrapping ErrCorruptSnapshot that says %q", err, tc.want)
			}
		})
	}

	// A well-formed v2 file that claims this schema and is laid out for four
	// measures: the decoder checks a file against its own d and m, the engine
	// is built from the schema's.
	enc := persist.NewSnapshotEncoder(nil, persist.SnapshotHeader{
		SchemaSig: schemaSig(fixtureSchema(t).rs), Algorithm: string(AlgoBottomUp),
		D: 5, M: 4, MaxBound: -1, MaxMeas: -1,
	})
	enc.Dict([][]string{{"a"}, {"b"}, {"c"}, {"d"}, {"e"}})
	enc.Tuples(1, func(int) []int32 { return make([]int32, 5) }, func(int) []float64 { return make([]float64, 4) })
	enc.Tombstones(nil)
	enc.BeginCells()
	enc.Constraint(strings.Repeat("\xff", 20), 0, 1)
	enc.Cell(1<<3, []uint32{0})
	enc.EndCells()
	_, err := loadSnapshot(fixtureSchema(t), enc.Bytes())
	if !errors.Is(err, persist.ErrCorruptSnapshot) || !strings.Contains(err.Error(), "header: 5 dimensions and 4 measures") {
		t.Errorf("loadSnapshot of a four-measure file under a three-measure schema = %v, want ErrCorruptSnapshot naming the header", err)
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
