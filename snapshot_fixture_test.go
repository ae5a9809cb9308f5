package situfact

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/persist"
	"repro/internal/store"
)

// The testdata fixtures were written by the pre-refactor engine — cells
// were map[CellKey][]*Tuple then — and pin the snapshot wire format
// across the interned-id/SoA-cell storage rewrite: a snapshot taken
// before the refactor must restore into the new layout with identical
// metrics, identical logical cell contents, and identical discovery
// behaviour afterwards.

type fixtureGolden struct {
	Algorithm   string   `json:"algorithm"`
	Metrics     Metrics  `json:"metrics"`
	NextFacts   []string `json:"next_facts"`
	NextMetrics Metrics  `json:"next_metrics"`
}

var fixtureNextRow = struct {
	dims     []string
	measures []float64
}{
	[]string{"Strickland", "Feb", "1995-96", "Blazers", "Nets"},
	[]float64{22, 15, 9},
}

func fixtureSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchemaBuilder("gamelog").
		Dimension("player").Dimension("month").Dimension("season").
		Dimension("team").Dimension("opp_team").
		Measure("points", LargerBetter).
		Measure("assists", LargerBetter).
		Measure("rebounds", LargerBetter).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// v1File mirrors the gob layout of a format v1 snapshot (gob matches
// fields by name), so the fixtures' content is read here by something other
// than the decoder under test.
type v1File struct {
	Magic, SchemaSig, Algorithm string
	MaxBound, MaxMeas           int
	DictValues                  [][]string
	Tuples                      []struct {
		Dims []int32
		Raw  []float64
	}
	Deleted []int64
	Counts  map[string]int64
	Cells   []struct {
		CKey string
		M    uint32
		IDs  []int64
	}
	Counters struct {
		Tuples, Comparisons, Traversed, Facts int64
		StoredTuples, Cells, Reads, Writes    int64
	}
}

func readV1File(t *testing.T, raw []byte) *v1File {
	t.Helper()
	var f v1File
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// logicalContent renders what a v1 file holds, order-free: the oldest
// fixtures list their cells and counts in map order.
func (f *v1File) logicalContent() []string {
	out := []string{fmt.Sprintf("header %s %s %d %d %+v", f.SchemaSig, f.Algorithm, f.MaxBound, f.MaxMeas, f.Counters)}
	for i, vals := range f.DictValues {
		out = append(out, fmt.Sprintf("dict %d %q", i, vals))
	}
	for i, tu := range f.Tuples {
		out = append(out, fmt.Sprintf("tuple %d %v %v", i, tu.Dims, tu.Raw))
	}
	for _, id := range f.Deleted {
		out = append(out, fmt.Sprintf("deleted %08d", id))
	}
	for k, n := range f.Counts {
		out = append(out, fmt.Sprintf("count %x=%d", k, n))
	}
	for _, c := range f.Cells {
		out = append(out, fmt.Sprintf("cell %x/%x=%v", c.CKey, c.M, c.IDs))
	}
	sort.Strings(out)
	return out
}

// logicalContent renders an engine's state in the same lines, read off the
// engine itself — the table, the tombstones, the counter, Memory.Walk.
func (e *Engine) logicalContent() []string {
	met := e.Metrics()
	out := []string{fmt.Sprintf("header %s %s %d %d %+v", schemaSig(e.schema), e.algorithm, e.maxBound, e.maxMeasure, met)}
	for i := 0; i < e.schema.NumDims(); i++ {
		out = append(out, fmt.Sprintf("dict %d %q", i, e.table.Dict().Values(i)))
	}
	for i, tu := range e.table.Tuples() {
		out = append(out, fmt.Sprintf("tuple %d %v %v", i, tu.Dims, tu.Raw))
	}
	for id := range e.deleted {
		out = append(out, fmt.Sprintf("deleted %08d", id))
	}
	if e.counter != nil {
		in := e.mem.Interner()
		e.counter.Each(func(c store.ConstraintID, n int64) {
			out = append(out, fmt.Sprintf("count %x=%d", string(in.Key(c)), n))
		})
	}
	e.mem.Walk(func(k store.CellKey, c store.Cell) {
		out = append(out, fmt.Sprintf("cell %x/%x=%v", string(k.C), uint32(k.M), c.IDList()))
	})
	sort.Strings(out)
	return out
}

func diffLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d lines, want %d", what, len(got), len(want))
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d:\n   got: %s\n  want: %s", what, i, got[i], want[i])
		}
	}
}

// checkGoldenNext feeds the fixtures' recorded follow-up arrival: its facts
// and the cumulative metrics after it are the golden oracle. Its Reads is
// the pre-refactor engine's less one per fact of the arrival (152), because
// ranking now takes each fact's skyline size from discovery instead of
// loading the fact's cell.
func checkGoldenNext(t *testing.T, eng *Engine, golden fixtureGolden) {
	t.Helper()
	arr, err := eng.Append(fixtureNextRow.dims, fixtureNextRow.measures)
	if err != nil {
		t.Fatal(err)
	}
	facts := make([]string, 0, len(arr.Facts))
	for _, f := range arr.Facts {
		facts = append(facts, f.String())
	}
	diffLines(t, "next arrival's facts", facts, golden.NextFacts)
	if got := eng.Metrics(); got != golden.NextMetrics {
		t.Errorf("metrics after next arrival = %+v, want %+v", got, golden.NextMetrics)
	}
}

// readGolden reads what the BottomUp fixtures must restore to.
func readGolden(t *testing.T) fixtureGolden {
	t.Helper()
	var golden fixtureGolden
	if err := json.Unmarshal(readTestdata(t, "prerefactor_bottomup.golden.json"), &golden); err != nil {
		t.Fatal(err)
	}
	if golden.Algorithm == "" {
		t.Fatal("fixture missing algorithm")
	}
	return golden
}

// readTestdata returns the bytes of a testdata file.
func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fixtureStateDir lays a testdata snapshot out as a one-shard state
// directory at generation gen: the shard file plus a manifest, as Checkpoint
// leaves them.
func fixtureStateDir(t *testing.T, file string, gen uint64) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, persist.ShardSnapshotName(0, gen)), readTestdata(t, file), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteManifest(dir, persist.Manifest{
		SchemaSig: schemaSig(fixtureSchema(t).rs), ShardDim: "team", Shards: 1, Generation: gen,
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestPreRefactorSnapshotFixtures: the BottomUp fixture restores; the
// TopDown one, taken when pools still ran TopDown, is refused.
func TestPreRefactorSnapshotFixtures(t *testing.T) {
	t.Run("prerefactor_bottomup", func(t *testing.T) {
		golden := readGolden(t)
		snap := readTestdata(t, "prerefactor_bottomup.snapshot")
		eng, err := loadSnapshot(fixtureSchema(t), snap)
		if err != nil {
			t.Fatalf("pre-refactor snapshot failed to restore: %v", err)
		}
		defer eng.Close()
		if got := eng.Metrics(); got != golden.Metrics {
			t.Errorf("restored metrics = %+v, want %+v", got, golden.Metrics)
		}

		// The restored engine must hold the fixture's logical content
		// exactly — dictionary, tuples, tombstones, counters, context
		// counts, cell membership — and so must an engine restored from
		// its re-encoding (format v2), whose own snapshot repeats it.
		diffLines(t, "engine restored from the v1 file", eng.logicalContent(), readV1File(t, snap).logicalContent())
		buf, err := eng.appendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		again, err := loadSnapshot(fixtureSchema(t), buf)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to restore: %v", err)
		}
		defer again.Close()
		diffLines(t, "engine restored from the re-encoding", again.logicalContent(), eng.logicalContent())
		if next, err := again.appendSnapshot(nil); err != nil || !bytes.Equal(next, buf) {
			t.Errorf("encode → restore → encode changed the snapshot (%d bytes, then %d; %v)", len(buf), len(next), err)
		}

		// The restored engine must keep discovering exactly as the
		// pre-refactor engine did.
		checkGoldenNext(t, eng, golden)
	})
	t.Run("prerefactor_topdown", func(t *testing.T) {
		_, err := loadSnapshot(fixtureSchema(t), readTestdata(t, "prerefactor_topdown.snapshot"))
		wantPoolRefusal(t, err, "topdown")
	})
}

// TestV2SnapshotFixtures pins format v2 on disk: v2_bottomup.snapshot holds
// the state of the pre-refactor BottomUp fixture (same rows, same golden
// expectations), today's writer must reproduce it byte for byte — from the
// v1 file, and from itself — and today's reader must restore it.
// v2_topdown.snapshot, written when pools still ran TopDown, is refused.
func TestV2SnapshotFixtures(t *testing.T) {
	t.Run("v2_bottomup", func(t *testing.T) {
		golden := readGolden(t)
		want := readTestdata(t, "v2_bottomup.snapshot")
		for _, from := range []string{"prerefactor_", "v2_"} {
			eng, err := loadSnapshot(fixtureSchema(t), readTestdata(t, from+"bottomup.snapshot"))
			if err != nil {
				t.Fatalf("%sbottomup.snapshot failed to restore: %v", from, err)
			}
			defer eng.Close()
			if got := eng.Metrics(); got != golden.Metrics {
				t.Errorf("%s: restored metrics = %+v, want %+v", from, got, golden.Metrics)
			}
			buf, err := eng.appendSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Errorf("snapshot of the engine restored from %sbottomup.snapshot is not v2_bottomup.snapshot (%d bytes, fixture %d): the format drifted",
					from, len(buf), len(want))
			}
			checkGoldenNext(t, eng, golden)
		}
	})
	t.Run("v2_topdown", func(t *testing.T) {
		_, err := loadSnapshot(fixtureSchema(t), readTestdata(t, "v2_topdown.snapshot"))
		wantPoolRefusal(t, err, "topdown")
	})
}

// TestV1StateDirRestoresAndUpgrades: a state directory whose shard files are
// format v1 — what every build before v2 left behind — restores, and the
// next checkpoint over it writes v2, after which the directory restores to
// the same pool.
func TestV1StateDirRestoresAndUpgrades(t *testing.T) {
	golden := readGolden(t)
	schema := fixtureSchema(t)
	dir := fixtureStateDir(t, "prerefactor_bottomup.snapshot", 7)
	old, _, err := RestorePool(schema, dir)
	if err != nil {
		t.Fatalf("v1 state directory failed to restore: %v", err)
	}
	defer old.Close()
	if got := old.Metrics(); got != golden.Metrics {
		t.Errorf("restored metrics = %+v, want %+v", got, golden.Metrics)
	}
	st, err := old.Checkpoint(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := os.ReadFile(filepath.Join(dir, persist.ShardSnapshotName(0, st.Generation)))
	if err != nil {
		t.Fatal(err)
	}
	want := readTestdata(t, "v2_bottomup.snapshot")
	if st.Generation != 8 || !bytes.Equal(next, want) {
		t.Errorf("checkpoint over the v1 directory wrote generation %d, %d bytes; want generation 8 holding v2_bottomup.snapshot", st.Generation, len(next))
	}
	if _, err := os.Stat(filepath.Join(dir, persist.ShardSnapshotName(0, 7))); !os.IsNotExist(err) {
		t.Errorf("the v1 generation's file is still there (%v)", err)
	}
	upgraded, _, err := RestorePool(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer upgraded.Close()
	diffLines(t, "pool restored from the upgraded directory", upgraded.shards[0].eng.logicalContent(), old.shards[0].eng.logicalContent())
	checkGoldenNext(t, upgraded.shards[0].eng, golden)
}
