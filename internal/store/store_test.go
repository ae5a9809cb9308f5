package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/subspace"
)

func storeSchema(t *testing.T) *relation.Schema {
	t.Helper()
	s, err := relation.NewSchema("r",
		[]relation.DimAttr{{Name: "d1"}, {Name: "d2"}},
		[]relation.MeasureAttr{{Name: "m1"}, {Name: "m2"}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mkTuples(t *testing.T, s *relation.Schema, n int) []*relation.Tuple {
	t.Helper()
	out := make([]*relation.Tuple, n)
	for i := range out {
		tu, err := relation.NewTuple(s, int64(i), []int32{int32(i % 3), int32(i % 2)},
			[]float64{float64(i), float64(n - i)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tu
	}
	return out
}

// ref interns the constraint of C^tu selected by cm through the store's
// interner and packs the cell address.
func ref(t *testing.T, st Store, tu *relation.Tuple, cm lattice.Mask, sub uint32) CellRef {
	t.Helper()
	return Ref(st.Interner().InternTuple(tu, cm), sub)
}

// cellOf builds a cell holding the tuples.
func cellOf(ts ...*relation.Tuple) Cell {
	var c Cell
	for _, tu := range ts {
		c.Append(tu.ID)
	}
	return c
}

func testStoreBasics(t *testing.T, st Store) {
	s := storeSchema(t)
	ts := mkTuples(t, s, 5)
	k1 := ref(t, st, ts[0], 0b01, 0b11)
	k2 := ref(t, st, ts[0], 0b11, 0b01)

	if got := st.Load(k1); got.Len() != 0 {
		t.Fatalf("empty cell load = %v", got)
	}
	// The store owns saved cells (the memory store keeps them live and the
	// Load/mutate/Save protocol edits them in place), so hand over copies.
	st.Save(k1, cellOf(ts[:3]...))
	st.Save(k2, cellOf(ts[3:4]...))

	stats := st.Stats()
	if stats.StoredTuples != 4 {
		t.Errorf("StoredTuples = %d, want 4", stats.StoredTuples)
	}
	if stats.Cells != 2 {
		t.Errorf("Cells = %d, want 2", stats.Cells)
	}

	got := st.Load(k1)
	if got.Len() != 3 {
		t.Fatalf("loaded %d tuples, want 3", got.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.ID(i) != ts[i].ID {
			t.Errorf("member %d = %d, want %d", i, got.ID(i), ts[i].ID)
		}
	}

	// Mutate: drop one, save back.
	if !got.RemoveID(ts[1].ID) {
		t.Fatal("RemoveID failed")
	}
	st.Save(k1, got)
	if again := st.Load(k1); again.Len() != 2 || again.ContainsID(ts[1].ID) {
		t.Errorf("after removal: %v", again)
	}
	if st.Stats().StoredTuples != 3 {
		t.Errorf("StoredTuples after removal = %d, want 3", st.Stats().StoredTuples)
	}

	// Empty a cell: it must disappear.
	st.Save(k2, Cell{})
	if st.Stats().Cells != 1 {
		t.Errorf("Cells after emptying = %d, want 1", st.Stats().Cells)
	}
	if got := st.Load(k2); got.Len() != 0 {
		t.Errorf("emptied cell load = %v", got)
	}

	// Saving empty to an already-empty cell is a no-op, not a write.
	w := st.Stats().Writes
	st.Save(k2, Cell{})
	if st.Stats().Writes != w {
		t.Error("empty→empty save counted as a write")
	}
}

func TestMemoryStore(t *testing.T) {
	testStoreBasics(t, NewMemory(2))
}

func TestFileStore(t *testing.T) {
	s := storeSchema(t)
	st, err := NewFile(t.TempDir(), s)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	testStoreBasics(t, st)
}

func TestFileStoreIOCounters(t *testing.T) {
	s := storeSchema(t)
	st, err := NewFile(t.TempDir(), s)
	if err != nil {
		t.Fatal(err)
	}
	ts := mkTuples(t, s, 3)
	k := ref(t, st, ts[0], 0b11, 0b11)

	// Loads of empty cells must not count as reads (the paper's file-based
	// cost model: "a file-read operation occurs if µC,M is non-empty").
	st.Load(k)
	if st.Stats().Reads != 0 {
		t.Errorf("empty load counted as read")
	}
	st.Save(k, cellOf(ts...))
	if st.Stats().Writes != 1 {
		t.Errorf("Writes = %d, want 1", st.Stats().Writes)
	}
	st.Load(k)
	if st.Stats().Reads != 1 {
		t.Errorf("Reads = %d, want 1", st.Stats().Reads)
	}
}

// TestFileStoreShardDirsOnUse: a file store makes a shard directory at its
// first Save into it, not up front.
func TestFileStoreShardDirsOnUse(t *testing.T) {
	s := storeSchema(t)
	dir := t.TempDir()
	st, err := NewFile(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	dirs := func() int {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	if n := dirs(); n != 0 {
		t.Fatalf("a new store made %d shard directories, want 0", n)
	}
	ts := mkTuples(t, s, 2)
	k := ref(t, st, ts[0], 0b11, 0b11)
	st.Save(k, cellOf(ts[0]))
	st.Save(k, cellOf(ts...))
	if n := dirs(); n != 1 {
		t.Fatalf("two saves of one cell made %d shard directories, want 1", n)
	}
	if got := st.Load(k); got.Len() != 2 {
		t.Fatalf("loaded %d members, want 2", got.Len())
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	// File store materialises a fresh cell per load; the member ids must
	// survive the disk round-trip, in order, across the inline/list boundary.
	s := storeSchema(t)
	st, err := NewFile(t.TempDir(), s)
	if err != nil {
		t.Fatal(err)
	}
	ts := mkTuples(t, s, 5)
	k := ref(t, st, ts[0], 0b01, 0b01)
	for n := 1; n <= len(ts); n++ {
		st.Save(k, cellOf(ts[:n]...))
		got := st.Load(k)
		if got.Len() != n {
			t.Fatalf("loaded %d members, want %d", got.Len(), n)
		}
		for i, tu := range ts[:n] {
			if got.ID(i) != tu.ID {
				t.Errorf("%d members: member %d = %d, want %d", n, i, got.ID(i), tu.ID)
			}
		}
		if !got.RemoveID(ts[0].ID) {
			t.Error("RemoveID must match file-loaded members")
		}
	}
}

func TestMemoryWalk(t *testing.T) {
	s := storeSchema(t)
	m := NewMemory(2)
	ts := mkTuples(t, s, 4)
	m.Save(ref(t, m, ts[0], 0b01, 0b01), cellOf(ts[:2]...))
	m.Save(ref(t, m, ts[0], 0b10, 0b10), cellOf(ts[2:]...))
	cells, entries := 0, 0
	m.Walk(func(k CellKey, c Cell) {
		cells++
		entries += c.Len()
		if want := lattice.KeyFromTuple(ts[0], 0b01); c.ContainsID(0) && k.C != want {
			t.Errorf("Walk decoded key %x, want %x", string(k.C), string(want))
		}
	})
	if cells != 2 || entries != 4 {
		t.Errorf("Walk saw %d cells / %d entries, want 2 / 4", cells, entries)
	}
}

func TestMemoryLogicalKeyAccess(t *testing.T) {
	s := storeSchema(t)
	m := NewMemory(2)
	ts := mkTuples(t, s, 2)
	k := CellKey{C: lattice.KeyFromTuple(ts[0], 0b11), M: 0b01}
	if got := m.LoadKey(k); got.Len() != 0 {
		t.Fatalf("LoadKey of absent cell = %v", got)
	}
	if m.Interner().Len() != 0 {
		t.Fatal("LoadKey of absent cell grew the intern table")
	}
	m.Save(Ref(m.Interner().Intern(k.C), k.M), cellOf(ts...))
	if got := m.LoadKey(k); got.Len() != 2 || !got.ContainsID(ts[1].ID) {
		t.Errorf("LoadKey after Save = %v", got)
	}
}

func TestCellRemoval(t *testing.T) {
	s := storeSchema(t)
	ts := mkTuples(t, s, 3)
	c := cellOf(ts...)
	if !c.RemoveID(ts[1].ID) {
		t.Fatal("RemoveID missed present tuple")
	}
	if c.Len() != 2 || c.ID(0) != ts[0].ID || c.ID(1) != ts[2].ID {
		t.Errorf("RemoveID did not preserve order: %v", c.IDList())
	}
	if c.RemoveID(ts[1].ID) {
		t.Error("RemoveID found an absent tuple")
	}
	if c.ContainsID(ts[1].ID) {
		t.Error("ContainsID found removed tuple")
	}
	if !c.ContainsID(ts[2].ID) {
		t.Error("ContainsID missed present tuple")
	}
	if c.RemoveID(999) {
		t.Error("RemoveID found an absent ID")
	}
}

// TestCellRemoveSorted pins the batched removal path (a cell scan
// removes every member a candidate dominates in one compaction pass)
// against removing the same indices from a plain slice, last first.
func TestCellRemoveSorted(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{7},
		{0, 1, 2},
		{5, 6, 7},
		{0, 3, 6},
		{1, 2, 5, 6},
		{1, 2, 3, 4, 5, 6, 7}, // down to one member
		{0, 1, 2, 3, 4, 5, 6, 7},
	}
	for _, idxs := range cases {
		var got Cell
		var want []int64
		for i := 0; i < 8; i++ {
			got.Append(int64(100 + i))
			want = append(want, int64(100+i))
		}
		got.RemoveSorted(idxs)
		if want = without(want, idxs); !slices.Equal(got.IDList(), want) {
			t.Errorf("RemoveSorted(%v) left %v, want %v", idxs, got.IDList(), want)
		}
	}
}

// without returns ids less the members at the given ascending indices —
// what RemoveSorted must leave, on a plain slice.
func without(ids []int64, idxs []int) []int64 {
	for i := len(idxs) - 1; i >= 0; i-- {
		ids = slices.Delete(ids, idxs[i], idxs[i]+1)
	}
	return ids
}

// checkCell compares every read accessor of c against the model. ContainsID
// scans the cell, so past a few hundred members (memoryModel.pages' cells)
// it is asked of one member in a thousand and the last.
func checkCell(t testing.TB, what string, c Cell, want []int64) {
	t.Helper()
	if c.Len() != len(want) || len(c.IDs()) != len(want) || !slices.Equal(c.IDList(), want) {
		t.Fatalf("%s: cell holds %v (Len %d, %d IDs), want %v", what, c.IDList(), c.Len(), len(c.IDs()), want)
	}
	for i, id := range want {
		scan := len(want) <= 256 || i%1000 == 0 || i == len(want)-1
		if c.ID(i) != id || int64(c.IDs()[i]) != id || scan && !c.ContainsID(id) {
			t.Fatalf("%s: member %d: ID %d, IDs %d, ContainsID %v, want %d", what, i, c.ID(i), c.IDs()[i], c.ContainsID(id), id)
		}
	}
}

// TestCellModel drives a Cell and a plain []int64 through the same seeded
// Append / RemoveSorted / RemoveID sequence. Sizes hover around the
// empty / inline / list boundaries (0↔1↔2↔3 members), where the
// representation changes; ids reach the top of the 32-bit range.
func TestCellModel(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var c Cell
	var model []int64
	next := int64(math.MaxUint32 - 2000)
	crossed := map[[2]int]int{}
	for step := 0; step < 4000; step++ {
		before := len(model)
		switch op := rng.Intn(8); {
		case len(model) == 0 || op < 3 && len(model) < 6:
			c.Append(next)
			model = append(model, next)
			next++
		case op < 6:
			// A sorted random subset of the indices; sometimes all of them.
			var idxs []int
			for i := range model {
				if rng.Intn(3) == 0 || op == 5 && rng.Intn(2) == 0 {
					idxs = append(idxs, i)
				}
			}
			c.RemoveSorted(idxs)
			model = without(model, idxs)
		case op == 6:
			id := model[rng.Intn(len(model))]
			if !c.RemoveID(id) {
				t.Fatalf("step %d: RemoveID(%d) missed a member of %v", step, id, model)
			}
			model = without(model, []int{slices.Index(model, id)})
		default:
			if c.RemoveID(next) || c.ContainsID(next) {
				t.Fatalf("step %d: found %d, which was never appended", step, next)
			}
		}
		checkCell(t, fmt.Sprintf("step %d", step), c, model)
		crossed[[2]int{min(before, 3), min(len(model), 3)}]++
	}
	for _, tr := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {2, 3}, {3, 2}, {3, 1}, {3, 0}, {3, 3}} {
		if crossed[tr] == 0 {
			t.Errorf("the sequence never took a cell from %d to %d members (3 = three or more)", tr[0], tr[1])
		}
	}
}

// TestMemoryModel drives a Memory and a map[CellRef][]int64 through the
// same seeded Load / mutate / Save sequence, in the dense layout and in the
// sparse one, and checks the store after every step (memoryModel.check).
// The cells of one constraint grow past 64 members and shrink back, so
// their lists cross the arena's size classes both ways. Constraints become
// one-member blocks by Install and by RestoreConstraint, and lose that form
// to a Save that changes one of their cells. A last phase (memoryModel.pages)
// grows a cell past a page.
func TestMemoryModel(t *testing.T) {
	for _, width := range []int{3, denseMaxWidth + 1} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(width)))
			mm := newMemoryModel(t, width, rng.Intn)
			for step := 0; step < 3000; step++ {
				mm.step(step)
			}
			stepped := mm.biggest // the random steps' largest cell, before pages grows one past a page
			mm.pages(3000)
			if mm.restored < 10 {
				t.Errorf("the sequence restored a constraint in bulk %d times: too few to check it", mm.restored)
			}
			if mm.fired[true] < 10 || mm.fired[false] < 10 {
				t.Errorf("the sequence allocated a block %d times and released one %d times: too few to check the lifecycle",
					mm.fired[true], mm.fired[false])
			}
			if stepped <= 64 || mm.up < 100 || mm.down < 100 {
				t.Errorf("the steps' largest cell held %d members, lists moved up a class %d times and down one %d times: "+
					"too few to check the size classes", stepped, mm.up, mm.down)
			}
			if mm.biggest <= 1<<pageBits || mm.tails == 0 || mm.runs < 2 {
				t.Errorf("the largest cell held %d members, %d new ranges left a page tail behind and %d took a run of pages: "+
					"too few to check the pages", mm.biggest, mm.tails, mm.runs)
			}
			if mm.installed < 10 || mm.restoredOne < 10 || mm.spread < 10 || mm.unchanged == 0 || mm.releasedOne < 10 {
				t.Errorf("the sequence installed %d one-member blocks and restored %d, gave %d of them slots, saved one unchanged %d times "+
					"and released %d that had been one-member: too few to check them",
					mm.installed, mm.restoredOne, mm.spread, mm.unchanged, mm.releasedOne)
			}
		})
	}
}

// FuzzMemoryModel is TestMemoryModel with its layout and its choices read
// from the input, one byte a choice: which cells a step loads, how it
// mutates them, whether two other cells are saved between a cell's Load and
// its Save, and when a constraint is restored in bulk or installed.
func FuzzMemoryModel(f *testing.F) {
	f.Add(false, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(true, []byte("\x04\x00\x03\x01\x00\x07\x00\x00\x05\x02"))
	f.Fuzz(func(t *testing.T, sparse bool, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		width := 3
		if sparse {
			width = denseMaxWidth + 1
		}
		mm := newMemoryModel(t, width, pick)
		for step := 0; len(data) > 0; step++ {
			mm.step(step)
		}
		mm.walk(-1)
	})
}

// The model's constraints and the subspace masks its cells take.
const modelConstraints, modelMasks = 5, 7

// modelKept is the store's kept masks: a one-member block's cells. Every
// constraint but the first draws them, and the other masks too, so reads
// and Saves reach the masks a one-member block does not cover.
var modelKept = []uint32{1, 3}

type modelEvent struct {
	c    ConstraintID
	live bool
}

// memoryModel is a Memory beside a map[CellRef][]int64 model of it, driven
// through the same Load / mutate / Save steps; pick draws every choice, a
// value in [0, n).
type memoryModel struct {
	t     testing.TB
	pick  func(n int) int
	m     *Memory
	cids  []ConstraintID
	model map[CellRef][]int64
	want  Stats
	next  int64

	events, wantEvents []modelEvent
	fired              map[bool]int          // observer calls, by live
	one                map[ConstraintID]bool // constraints that must be one-member blocks
	wasOne             map[ConstraintID]bool // constraints one-member since their last release
	restored           int                   // bulk restores taken
	restoredOne        int                   // one-member blocks made by RestoreConstraint
	installed          int                   // Installs
	spread             int                   // Saves that gave a one-member block its slots
	unchanged          int                   // Saves of a one-member block's cell unchanged
	releasedOne        int                   // releases of a block that had been one-member
	biggest            int                   // the most members a cell has held
	up, down           int                   // Saves that moved a list of two or more to a larger or smaller class
	tails              int                   // Saves whose new range started a page past a page's unused tail
	runs               int                   // Saves that put a list in a new range of more than one page
}

func newMemoryModel(t testing.TB, width int, pick func(n int) int) *memoryModel {
	mm := &memoryModel{t: t, pick: pick, m: NewMemory(width), model: map[CellRef][]int64{}, fired: map[bool]int{},
		one: map[ConstraintID]bool{}, wasOne: map[ConstraintID]bool{}}
	mm.m.Keep(modelKept)
	mm.m.SetObserver(func(c ConstraintID, live bool) {
		mm.events = append(mm.events, modelEvent{c, live})
		mm.fired[live]++
	})
	for i := 0; i < modelConstraints; i++ {
		mm.cids = append(mm.cids, mm.m.Interner().Intern(lattice.Key([]byte{byte(i), 0, 0, 0})))
	}
	if _, _, err := mm.m.RestoreConstraint(mm.m.Interner().Key(mm.cids[0]), []uint32{1, 1 << uint(width)}, []uint32{1, 1}, []uint32{0, 1}); err == nil {
		t.Fatalf("RestoreConstraint took mask %d in a store of width %d", 1<<uint(width), width)
	}
	return mm
}

// liveMasks is what Masks must return for a constraint, from the model.
func (mm *memoryModel) liveMasks(cid ConstraintID) []uint32 {
	var out []uint32
	for mask := uint32(1); mask <= modelMasks; mask++ {
		if len(mm.model[Ref(cid, mask)]) > 0 {
			out = append(out, mask)
		}
	}
	return out
}

// refs lists the cells constraint i draws from: masks 1 … 2i+1, at most all
// seven. The low constraints keep losing their last cell, the high ones
// almost never do.
func (mm *memoryModel) refs(i int) []CellRef {
	var out []CellRef
	for mask := uint32(1); mask <= uint32(min(2*i+1, modelMasks)); mask++ {
		out = append(out, Ref(mm.cids[i], mask))
	}
	return out
}

// randomRef draws a constraint, then one of its cells; a drawn cell in not
// passes to the next one of the model's.
func (mm *memoryModel) randomRef(not ...CellRef) CellRef {
	var all []CellRef
	for i := range mm.cids {
		all = append(all, mm.refs(i)...)
	}
	i := mm.pick(modelConstraints)
	at := slices.Index(all, mm.refs(i)[0]) + mm.pick(min(2*i+1, modelMasks))
	for slices.Contains(not, all[at%len(all)]) {
		at++
	}
	return all[at%len(all)]
}

func (mm *memoryModel) load(r CellRef) Cell {
	c := mm.m.Load(r)
	if len(mm.model[r]) > 0 {
		mm.want.Reads++
	}
	checkCell(mm.t, fmt.Sprintf("Load(%x)", r), c, mm.model[r])
	return c
}

// mutate edits c and returns what the model should hold after its Save. The
// last constraint's cells grow up to 100 members, by single appends (what
// BottomUp makes per visit, in the range's room) and by bursts (which
// outgrow the range), and shrink by light and heavy removals.
func (mm *memoryModel) mutate(r CellRef, c *Cell) []int64 {
	ids := slices.Clone(mm.model[r])
	limit := 5
	if cid, _ := RefParts(r); cid == mm.cids[modelConstraints-1] {
		limit = 100
	}
	switch op := mm.pick(8); {
	case len(ids) == 0 || op < 4 && len(ids) < limit:
		n := 1 + mm.pick(2)
		if op == 0 && limit > 5 {
			n = 1 + mm.pick(40)
		}
		for ; n > 0; n-- {
			c.Append(mm.next)
			ids = append(ids, mm.next)
			mm.next++
		}
	case op < 7:
		var idxs []int
		for i := range ids {
			if op == 6 && mm.pick(2) == 0 || op < 6 && mm.pick(8) == 0 {
				idxs = append(idxs, i)
			}
		}
		c.RemoveSorted(idxs)
		ids = without(ids, idxs)
	case limit > 5 && mm.pick(4) != 0:
		// The big cells are rarely emptied.
	default: // empty it
		for len(ids) > 0 {
			c.RemoveID(ids[0])
			ids = ids[1:]
		}
	}
	return ids
}

func (mm *memoryModel) save(r CellRef, c Cell, ids []int64) {
	top := mm.m.top
	old, _ := mm.m.at(r)
	mm.m.Save(r, c)
	if s, _ := mm.m.at(r); s.n >= 2 && (old.n < 2 || s.ref != old.ref) {
		if int(s.ref) > top { // free ranges lie below top: this one is new, past a tail
			mm.tails++
		}
		if class(s.n) > pageBits {
			mm.runs++
		}
	}
	was := len(mm.model[r])
	if was > 0 || len(ids) > 0 {
		mm.want.Writes++
	}
	if was >= 2 && len(ids) >= 2 && class(uint32(was)) != class(uint32(len(ids))) {
		if len(ids) > was {
			mm.up++
		} else {
			mm.down++
		}
	}
	mm.biggest = max(mm.biggest, len(ids))
	mm.want.StoredTuples += int64(len(ids) - was)
	cid, _ := RefParts(r)
	if mm.one[cid] {
		if slices.Equal(mm.model[r], ids) {
			mm.unchanged++
		} else {
			mm.one[cid] = false // only the changed block gets slots
			mm.spread++
		}
	}
	before := len(mm.liveMasks(cid))
	if len(ids) == 0 {
		delete(mm.model, r)
	} else {
		mm.model[r] = ids
	}
	if (was == 0) != (len(ids) == 0) {
		if was == 0 {
			mm.want.Cells++
		} else {
			mm.want.Cells--
		}
		if after := len(mm.liveMasks(cid)); before == 0 || after == 0 {
			mm.wantEvents = append(mm.wantEvents, modelEvent{cid, after > 0})
			if after == 0 && mm.wasOne[cid] {
				mm.releasedOne++
				mm.wasOne[cid] = false
			}
		}
	}
}

// restore is RestoreConstraint against the model: it must leave the store
// as saving the same cells one by one would, and tell the observer once.
func (mm *memoryModel) restore(i int) {
	cid := mm.cids[i]
	key := mm.m.Interner().Key(cid)
	var rmasks, sizes, ids []uint32
	top := uint32(min(2*i+1, modelMasks)) // the masks randomRef draws for it
	for mask := uint32(1); mask <= top; mask++ {
		if mm.pick(2) == 0 && (mask < top || len(rmasks) > 0) {
			continue // skip it, but never all of them
		}
		n := 1 + mm.pick(3)
		if mm.pick(8) == 0 {
			n = 1 + mm.pick(70)
		}
		rmasks, sizes = append(rmasks, mask), append(sizes, uint32(n))
		for ; n > 0; n-- {
			ids = append(ids, uint32(mm.next))
			mm.next++
		}
	}
	tail := []uint32{7, 7} // members of some later constraint: not this one's
	got, used, err := mm.m.RestoreConstraint(key, rmasks, sizes, append(ids, tail...))
	if len(mm.liveMasks(cid)) > 0 {
		if err == nil {
			mm.t.Fatalf("RestoreConstraint over constraint %d, which has cells, was accepted", cid)
		}
		return
	}
	if err != nil || got != cid || used != len(ids) {
		mm.t.Fatalf("RestoreConstraint(%d, %v, %v) = constraint %d, %d members, %v; want %d members taken", cid, rmasks, sizes, got, used, err, len(ids))
	}
	mm.restored++
	for j, mask := range rmasks {
		n := int(sizes[j])
		for _, id := range ids[:n] {
			mm.model[Ref(cid, mask)] = append(mm.model[Ref(cid, mask)], int64(id))
		}
		ids = ids[n:]
		mm.want.Cells++
		mm.want.Writes++
		mm.want.StoredTuples += int64(n)
		mm.biggest = max(mm.biggest, n)
	}
	mm.wantEvents = append(mm.wantEvents, modelEvent{cid, true})
}

// install empties constraint i by Saves, as a delete does, then gives it a
// one-member block, by Install or by RestoreConstraint of that shape,
// against the model: each kept cell holds a new tuple, the counters move as
// if each had been saved, and the observer hears once.
func (mm *memoryModel) install(i int, restore bool) {
	cid, id := mm.cids[i], mm.next
	for _, mask := range mm.liveMasks(cid) {
		mm.load(Ref(cid, mask))
		mm.save(Ref(cid, mask), Cell{}, nil)
	}
	mm.next++
	if restore {
		ids := make([]uint32, len(modelKept), len(modelKept)+1)
		for j := range ids {
			ids[j] = uint32(id)
		}
		sizes := slices.Repeat([]uint32{1}, len(modelKept))
		got, used, err := mm.m.RestoreConstraint(mm.m.Interner().Key(cid), modelKept, sizes, append(ids, 7))
		if err != nil || got != cid || used != len(modelKept) {
			mm.t.Fatalf("RestoreConstraint of one-member constraint %d = constraint %d, %d members, %v", cid, got, used, err)
		}
		mm.restoredOne++
	} else {
		mm.m.Install(cid, uint32(id))
		mm.installed++
	}
	for _, mask := range modelKept {
		mm.model[Ref(cid, mask)] = []int64{id}
	}
	k := int64(len(modelKept))
	mm.want.Writes += k
	mm.want.Cells += k
	mm.want.StoredTuples += k
	mm.wantEvents = append(mm.wantEvents, modelEvent{cid, true})
	mm.one[cid], mm.wasOne[cid] = true, true
}

// step is one Load / mutate / Save of a cell; one step in three saves two
// other cells between that Load and its Save, as TopDown's re-homing does,
// and one in eight saves the cell once more. One step in five first
// restores a constraint in bulk: the first empty one from a drawn one on
// if there is one (constraint 0 often is), and the refusal otherwise. Another one in five installs a
// constraint whose drawn masks cover the kept ones, short of the last,
// whose big cells would not grow with it emptied that often.
func (mm *memoryModel) step(step int) {
	switch mm.pick(5) {
	case 0:
		i := mm.pick(modelConstraints)
		for k := range mm.cids {
			if j := (i + k) % modelConstraints; len(mm.liveMasks(mm.cids[j])) == 0 {
				i = j
				break
			}
		}
		mm.restore(i)
	case 1:
		mm.install(1+mm.pick(modelConstraints-2), mm.pick(3) == 0)
	}
	a := mm.randomRef()
	ca := mm.load(a)
	idsA := mm.mutate(a, &ca)
	if mm.pick(3) == 0 {
		b := mm.randomRef(a)
		cb := mm.load(b)
		mm.save(b, cb, mm.mutate(b, &cb))
		c := mm.randomRef(a, b)
		cc := mm.load(c)
		mm.save(c, cc, mm.mutate(c, &cc))
	}
	mm.save(a, ca, idsA)
	if mm.pick(8) == 0 {
		// Saved again with no Load: a fresh cell of its members less the
		// first, so the slot the Load resolved must not be trusted.
		ids := slices.Clone(idsA[min(1, len(idsA)):])
		var c Cell
		for _, id := range ids {
			c.Append(id)
		}
		mm.save(a, c, ids)
	}
	mm.check(step, a)
	if step%100 == 0 {
		mm.walk(step)
	}
}

// pages grows one cell of the last constraint past what the steps reach,
// checking after each Save: to half a page and one member, whose class is a
// whole page and so does not fit the tail the steps left of theirs, then to
// a page and one, a run of two pages; shrunk to three members, which frees
// the run, and grown again, which takes it back from its free list.
func (mm *memoryModel) pages(step int) {
	r := Ref(mm.cids[modelConstraints-1], modelKept[0])
	for _, n := range []int{1<<(pageBits-1) + 1, 1<<pageBits + 1, 3, 1<<pageBits + 1, 2} {
		c := mm.load(r)
		ids := slices.Clone(mm.model[r])
		for ; len(ids) < n; mm.next++ {
			c.Append(mm.next)
			ids = append(ids, mm.next)
		}
		if len(ids) > n {
			var idxs []int
			for i := n; i < len(ids); i++ {
				idxs = append(idxs, i)
			}
			c.RemoveSorted(idxs)
			ids = ids[:n]
		}
		mm.save(r, c, ids)
		mm.check(step, r)
		step++
	}
	mm.walk(step)
}

// check compares the store with the model after a step that saved a: the
// cell Peek hands out, Stats, Masks of every constraint (the model's live
// masks, ascending), the observer's events (exactly one when a constraint
// gains its first cell and one when it loses its last, none in between),
// and — white-box — that a constraint owns a block exactly while it has a
// cell, that it is one-member exactly when the model says so, that a sparse
// block holds its live slots and nothing else, and the id arena's
// invariants (checkArena). A one-member block's reads must not allocate.
func (mm *memoryModel) check(step int, a CellRef) {
	t, m := mm.t, mm.m
	if got := m.Stats(); got != mm.want {
		t.Fatalf("step %d: Stats %+v, want %+v", step, got, mm.want)
	}
	if !slices.Equal(mm.events, mm.wantEvents) {
		t.Fatalf("step %d: observer saw %v, want %v", step, mm.events, mm.wantEvents)
	}
	mm.events, mm.wantEvents = mm.events[:0], mm.wantEvents[:0]
	checkCell(t, fmt.Sprintf("step %d: Peek(%x)", step, a), m.Peek(a), mm.model[a])
	if m.Stats() != mm.want {
		t.Fatalf("step %d: Peek moved the counters", step)
	}
	if err := checkArena(m); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if len(m.blocks) > modelConstraints {
		t.Fatalf("step %d: %d blocks for %d constraints", step, len(m.blocks), modelConstraints)
	}
	// blocks reaches the highest constraint id saved so far; Masks must
	// answer for the ids past it too.
	for i, cid := range mm.cids {
		live := mm.liveMasks(cid)
		if got := m.Masks(cid, []uint32{99}); !slices.Equal(got, append([]uint32{99}, live...)) {
			t.Fatalf("step %d: Masks(%d) appended %v to [99], want %v", step, cid, got[1:], live)
		}
		if i >= len(m.blocks) {
			if len(live) > 0 {
				t.Fatalf("step %d: constraint %d has cells and no block", step, cid)
			}
			continue
		}
		b := m.blocks[cid]
		if b.single() != mm.one[cid] {
			t.Fatalf("step %d: constraint %d: one-member block %v, want %v", step, cid, b.single(), mm.one[cid])
		}
		if b.single() {
			if int(b.live) != len(live) || b.masks != nil {
				t.Fatalf("step %d: constraint %d: one-member block of %d cells and masks %v, want %d cells", step, cid, b.live, b.masks, len(live))
			}
			mm.checkOne(step, cid)
			continue
		}
		if int(b.live) != len(live) || (b.cells != nil) != (len(live) > 0) {
			t.Fatalf("step %d: constraint %d has %d cells, its block says %d (allocated: %v)",
				step, cid, len(live), b.live, b.cells != nil)
		}
		if !m.dense() && (!slices.Equal(b.masks, live) || len(b.cells) != len(live)) {
			t.Fatalf("step %d: constraint %d: sparse block holds masks %v in %d slots, want %v",
				step, cid, b.masks, len(b.cells), live)
		}
		if m.dense() && (b.masks != nil || len(b.cells) != 0 && len(b.cells) != 1<<m.width) {
			t.Fatalf("step %d: constraint %d: dense block has %d slots and masks %v", step, cid, len(b.cells), b.masks)
		}
	}
}

// checkOne reads one-member block cid every way the store can: Load and
// Peek of every mask the model draws (those it does not keep read empty),
// Masks, EachCell and Live. Each must agree with the model and none may
// allocate. The Loads' reads are not counted against the model.
func (mm *memoryModel) checkOne(step int, cid ConstraintID) {
	m, stats := mm.m, mm.m.Stats()
	for mask := uint32(0); mask <= modelMasks; mask++ {
		want := mm.model[Ref(cid, mask)]
		checkCell(mm.t, fmt.Sprintf("step %d: one-member Peek(%d, %d)", step, cid, mask), m.Peek(Ref(cid, mask)), want)
		checkCell(mm.t, fmt.Sprintf("step %d: one-member Load(%d, %d)", step, cid, mask), m.Load(Ref(cid, mask)), want)
	}
	var each []uint32
	m.EachCell(cid, func(mask subspace.Mask, c Cell) {
		each = append(each, mask)
		checkCell(mm.t, fmt.Sprintf("step %d: one-member EachCell(%d, %d)", step, cid, mask), c, mm.model[Ref(cid, mask)])
	})
	if !slices.Equal(each, modelKept) || m.Live(cid) != len(modelKept) {
		mm.t.Fatalf("step %d: one-member block %d: EachCell visits %v, Live %d, want %v", step, cid, each, m.Live(cid), modelKept)
	}
	buf, sum := make([]uint32, 0, modelMasks), 0
	if allocs := testing.AllocsPerRun(2, func() {
		for mask := uint32(0); mask <= modelMasks; mask++ {
			sum += m.Load(Ref(cid, mask)).Len() + m.Peek(Ref(cid, mask)).Len()
		}
		sum += len(m.Masks(cid, buf[:0])) + m.Live(cid)
		m.EachCell(cid, func(_ subspace.Mask, c Cell) { sum += c.Len() })
	}); allocs != 0 {
		mm.t.Fatalf("step %d: reading one-member block %d allocates %.0f times", step, cid, allocs)
	}
	m.RestoreStats(stats)
}

// walk checks Walk against the sorted model: every cell, in (constraint
// id, mask) order, with no allocation. It then restores every constraint's
// cells into a second store, as a snapshot restore does, which must read
// back the same and keep each one-member block one.
func (mm *memoryModel) walk(step int) {
	var walked []CellRef
	mm.m.Walk(func(k CellKey, c Cell) {
		id, ok := mm.m.Interner().Lookup(k.C)
		if !ok {
			mm.t.Fatalf("step %d: Walk handed out unknown key %x", step, string(k.C))
		}
		r := Ref(id, k.M)
		walked = append(walked, r)
		checkCell(mm.t, fmt.Sprintf("step %d: Walk(%x)", step, r), c, mm.model[r])
	})
	want := make([]CellRef, 0, len(mm.model))
	for r := range mm.model {
		want = append(want, r)
	}
	slices.Sort(want) // a CellRef orders by (constraint id, mask)
	if !slices.Equal(walked, want) {
		mm.t.Fatalf("step %d: Walk order %x, want %x", step, walked, want)
	}
	if allocs := testing.AllocsPerRun(1, func() { mm.m.Walk(func(CellKey, Cell) {}) }); allocs != 0 {
		mm.t.Fatalf("step %d: Walk allocates %.0f times", step, allocs)
	}
	twin := NewMemory(mm.m.width)
	twin.Keep(modelKept)
	for _, cid := range mm.cids {
		var masks, sizes, ids []uint32
		mm.m.EachCell(cid, func(mask subspace.Mask, c Cell) {
			masks, sizes, ids = append(masks, mask), append(sizes, uint32(c.Len())), append(ids, c.IDs()...)
		})
		if len(masks) == 0 {
			continue
		}
		tid, used, err := twin.RestoreConstraint(mm.m.Interner().Key(cid), masks, sizes, ids)
		if err != nil || used != len(ids) {
			mm.t.Fatalf("step %d: restoring constraint %d's cells took %d of %d ids: %v", step, cid, used, len(ids), err)
		}
		// One-member exactly when the cells are a one-member block's: a block
		// that got slots and came back to that shape is one again.
		want := slices.Equal(masks, modelKept) && len(ids) == len(masks) && ids[0] == ids[len(ids)-1]
		if got := twin.blocks[tid].single(); got != want || mm.m.blocks[cid].single() && !got {
			mm.t.Fatalf("step %d: constraint %d (cells %v of %v) restored as one-member %v, was %v",
				step, cid, masks, ids, got, mm.m.blocks[cid].single())
		}
		for mask := uint32(0); mask <= modelMasks; mask++ {
			checkCell(mm.t, fmt.Sprintf("step %d: restored (%d, %d)", step, cid, mask), twin.Peek(Ref(tid, mask)), mm.model[Ref(cid, mask)])
		}
	}
}

// checkArena checks the id arena's four invariants, in this order, and
// names the first one broken. A live range is the 1<<class(n) ids from the
// offset in the slot of a cell of n >= 2 members; a free range is one its
// class's free list reaches, a page tail split up included.
//  1. Live ranges are pairwise disjoint.
//  2. A live range is exactly its class's size: the cell Peek hands out
//     has that capacity, and the range ends before the next range (live or
//     free) starts. It lies inside one page below top, or is a run of whole
//     pages from a page boundary whose headers address one allocation in
//     order.
//  3. Free ranges are disjoint from live ones and from each other, and lie
//     in the pages as live ones do.
//  4. Live and free words add up to the pages' words below top, and the
//     pages are exactly those top reaches into.
func checkArena(m *Memory) error {
	const page = 1 << pageBits
	type span struct {
		off, size int
		free      bool
	}
	var spans []span
	words := 0
	placed := func(off, size int) error {
		switch {
		case off+size > m.top:
			return fmt.Errorf("the range [%d, %d) runs past top %d", off, off+size, m.top)
		case size <= page && off/page != (off+size-1)/page:
			return fmt.Errorf("the range [%d, %d) straddles pages %d and %d", off, off+size, off/page, off/page+1)
		case size <= page:
			return nil
		case off%page != 0:
			return fmt.Errorf("the %d-page range at %d starts inside a page", size/page, off)
		}
		run := m.pages[off/page]
		if len(run) < size {
			return fmt.Errorf("the %d-page range at %d has a run of %d ids", size/page, off, len(run))
		}
		for j := 1; j < size/page; j++ {
			if &m.pages[off/page+j][0] != &run[j*page] {
				return fmt.Errorf("page %d of the range at %d is not the run's page %d", off/page+j, off, j)
			}
		}
		return nil
	}
	for cid := range m.blocks {
		b := &m.blocks[cid]
		for i, s := range b.cells {
			if s.n < 2 {
				continue
			}
			size := 1 << class(s.n)
			mask := uint32(i)
			if !m.dense() {
				mask = b.masks[i]
			}
			if err := placed(int(s.ref), size); err != nil {
				return fmt.Errorf("invariant 2: cell (%d, %b) of %d members: %v", cid, mask, s.n, err)
			}
			if c := m.Peek(Ref(ConstraintID(cid), mask)); cap(c.many) != size {
				return fmt.Errorf("invariant 2: cell (%d, %b) of %d members is handed out with room for %d, its class holds %d",
					cid, mask, s.n, cap(c.many), size)
			}
			spans = append(spans, span{int(s.ref), size, false})
			words += size
		}
	}
	for k, head := range m.free {
		for h, hops := head, 0; h != 0; h, hops = *m.word(h - 1), hops+1 {
			if hops > m.top {
				return fmt.Errorf("invariant 3: class %d's free list loops", k)
			}
			if err := placed(int(h-1), 1<<k); err != nil {
				return fmt.Errorf("invariant 3: class %d's free list: %v", k, err)
			}
			spans = append(spans, span{int(h - 1), 1 << k, true})
			words += 1 << k
		}
	}
	slices.SortStableFunc(spans, func(a, b span) int { return a.off - b.off })
	overlap := func(free bool) error {
		for i, a := range spans {
			for _, b := range spans[i+1:] {
				if b.off >= a.off+a.size {
					break
				}
				if !a.free && !b.free && !free {
					return fmt.Errorf("invariant 1: live ranges [%d, %d) and [%d, %d) overlap", a.off, a.off+a.size, b.off, b.off+b.size)
				}
				if (a.free || b.free) && free {
					return fmt.Errorf("invariant 3: ranges [%d, %d) (free %v) and [%d, %d) (free %v) overlap",
						a.off, a.off+a.size, a.free, b.off, b.off+b.size, b.free)
				}
			}
		}
		return nil
	}
	if err := overlap(false); err != nil {
		return err
	}
	for i, a := range spans {
		end := m.top
		for _, b := range spans[i+1:] {
			if b.off > a.off {
				end = b.off
				break
			}
		}
		if !a.free && a.off+a.size > end {
			return fmt.Errorf("invariant 2: the live range at %d of class size %d runs into the range at %d", a.off, a.size, end)
		}
	}
	if err := overlap(true); err != nil {
		return err
	}
	if words != m.top || len(m.pages) != (m.top+page-1)/page {
		return fmt.Errorf("invariant 4: %d live and free ids below top %d, in %d pages", words, m.top, len(m.pages))
	}
	return nil
}

func TestInterner(t *testing.T) {
	s := storeSchema(t)
	ts := mkTuples(t, s, 3)
	in := NewInterner()
	a := in.InternTuple(ts[0], 0b01)
	b := in.InternTuple(ts[0], 0b11)
	if a == b {
		t.Fatal("distinct constraints interned to the same id")
	}
	// ts[0] and ts[2] share dims (i%3, i%2 collide at 0 vs 2? no: 2%3=2);
	// intern the same logical key via both paths instead.
	if got := in.Intern(lattice.KeyFromTuple(ts[0], 0b01)); got != a {
		t.Errorf("Intern(key) = %d, want %d", got, a)
	}
	if got, ok := in.Lookup(lattice.KeyFromTuple(ts[0], 0b11)); !ok || got != b {
		t.Errorf("Lookup = %d/%v, want %d/true", got, ok, b)
	}
	if _, ok := in.Lookup(lattice.Key("\xff\xff\xff\xff\xff\xff\xff\xff")); ok {
		t.Error("Lookup invented an id")
	}
	if got, ok := in.LookupTuple(ts[0], 0b11); !ok || got != b {
		t.Errorf("LookupTuple = %d/%v, want %d/true", got, ok, b)
	}
	if _, ok := in.LookupTuple(ts[1], 0b11); ok || in.Len() != 2 {
		t.Errorf("LookupTuple of an unseen constraint found one, or assigned one (Len %d)", in.Len())
	}
	if in.Key(a) != lattice.KeyFromTuple(ts[0], 0b01) {
		t.Error("Key did not decode id back to its constraint key")
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
}

func TestCellKeyString(t *testing.T) {
	k := CellKey{C: lattice.Key("\x01\x00\x00\x00"), M: 5}
	if got := k.String(); got == "" {
		t.Error("empty String()")
	}
}
