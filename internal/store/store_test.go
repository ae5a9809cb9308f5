package store

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lattice"
	"repro/internal/relation"
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

// TestCellRemoveSorted pins the batched removal path (the dominance
// kernel removes every member a candidate dominates in one compaction
// pass) against removing the same indices from a plain slice, last first.
func TestCellRemoveSorted(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{7},
		{0, 1, 2},
		{5, 6, 7},
		{0, 3, 6},
		{1, 2, 5, 6},
		{1, 2, 3, 4, 5, 6, 7}, // down to the inline form
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

// checkCell compares every read accessor of c against the model.
func checkCell(t *testing.T, what string, c Cell, want []int64) {
	t.Helper()
	if c.Len() != len(want) || len(c.IDs()) != len(want) || !slices.Equal(c.IDList(), want) {
		t.Fatalf("%s: cell holds %v (Len %d, %d IDs), want %v", what, c.IDList(), c.Len(), len(c.IDs()), want)
	}
	for i, id := range want {
		if c.ID(i) != id || int64(c.IDs()[i]) != id || !c.ContainsID(id) {
			t.Fatalf("%s: member %d: ID %d, IDs %d, ContainsID %v, want %d", what, i, c.ID(i), c.IDs()[i], c.ContainsID(id), id)
		}
	}
}

// TestCellModel drives a Cell and a plain []int64 through the same seeded
// Append / RemoveSorted / RemoveID sequence. Sizes hover around the
// empty / inline / list boundaries (0↔1↔2 members), where the
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
		crossed[[2]int{min(before, 2), min(len(model), 2)}]++
	}
	for _, tr := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {2, 2}} {
		if crossed[tr] == 0 {
			t.Errorf("the sequence never took a cell from %d to %d members (2 = two or more)", tr[0], tr[1])
		}
	}
}

// TestMemoryModel drives a Memory and a map[CellRef][]int64 through the
// same seeded Load / mutate / Save sequence, in the dense layout and in the
// sparse one, and compares after every step: the loaded cell, Stats, Masks
// of every constraint (the model's live masks, ascending), the observer's
// events (exactly one when a constraint gains its first cell and one when it
// loses its last, none in between), and — white-box — that a constraint
// owns a block exactly while it has a cell, that a sparse block holds its
// live slots and nothing else, and that a list is kept exactly for the
// cells with two or more members. One step in three saves two other cells
// between a cell's Load and its Save, as TopDown's re-homing does. Walk is
// checked against the sorted model.
func TestMemoryModel(t *testing.T) {
	for _, width := range []int{3, denseMaxWidth + 1} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) { testMemoryModel(t, width) })
	}
}

func testMemoryModel(t *testing.T, width int) {
	const constraints, masks = 5, 7
	rng := rand.New(rand.NewSource(int64(width)))
	m := NewMemory(width)
	type event struct {
		c    ConstraintID
		live bool
	}
	var events, wantEvents []event
	fired := map[bool]int{}
	m.SetObserver(func(c ConstraintID, live bool) {
		events = append(events, event{c, live})
		fired[live]++
	})
	var cids []ConstraintID
	for i := 0; i < constraints; i++ {
		cids = append(cids, m.Interner().Intern(lattice.Key([]byte{byte(i), 0, 0, 0})))
	}
	model := map[CellRef][]int64{}
	// liveMasks is what Masks must return for a constraint, from the model.
	liveMasks := func(cid ConstraintID) []uint32 {
		var out []uint32
		for mask := uint32(1); mask <= masks; mask++ {
			if len(model[Ref(cid, mask)]) > 0 {
				out = append(out, mask)
			}
		}
		return out
	}
	var want Stats
	next := int64(0)
	// Constraint i draws from the masks 1 … 2i+1 (at most all seven): the
	// low ones keep losing their last cell, the high ones almost never do.
	randomRef := func(not ...CellRef) CellRef {
		for {
			i := rng.Intn(constraints)
			r := Ref(cids[i], uint32(1+rng.Intn(min(2*i+1, masks))))
			if !slices.Contains(not, r) {
				return r
			}
		}
	}
	load := func(r CellRef) Cell {
		c := m.Load(r)
		if len(model[r]) > 0 {
			want.Reads++
		}
		checkCell(t, fmt.Sprintf("Load(%x)", r), c, model[r])
		return c
	}
	// mutate edits c and returns what the model should hold after its Save.
	mutate := func(r CellRef, c *Cell) []int64 {
		ids := slices.Clone(model[r])
		switch op := rng.Intn(6); {
		case len(ids) == 0 || op < 3 && len(ids) < 5:
			for n := 1 + rng.Intn(2); n > 0; n-- {
				c.Append(next)
				ids = append(ids, next)
				next++
			}
		case op < 5:
			var idxs []int
			for i := range ids {
				if rng.Intn(2) == 0 {
					idxs = append(idxs, i)
				}
			}
			c.RemoveSorted(idxs)
			ids = without(ids, idxs)
		default: // empty it
			for len(ids) > 0 {
				c.RemoveID(ids[0])
				ids = ids[1:]
			}
		}
		return ids
	}
	save := func(r CellRef, c Cell, ids []int64) {
		m.Save(r, c)
		was := len(model[r])
		if was > 0 || len(ids) > 0 {
			want.Writes++
		}
		want.StoredTuples += int64(len(ids) - was)
		cid, _ := RefParts(r)
		before := len(liveMasks(cid))
		if len(ids) == 0 {
			delete(model, r)
		} else {
			model[r] = ids
		}
		if (was == 0) != (len(ids) == 0) {
			if was == 0 {
				want.Cells++
			} else {
				want.Cells--
			}
			if after := len(liveMasks(cid)); before == 0 || after == 0 {
				wantEvents = append(wantEvents, event{cid, after > 0})
			}
		}
	}
	// restore is RestoreConstraint against the model: it must leave the store
	// as saving the same cells one by one would, and tell the observer once.
	restore := func(i int) {
		cid := cids[i]
		key := m.Interner().Key(cid)
		var rmasks, sizes, ids []uint32
		top := uint32(min(2*i+1, masks)) // the masks randomRef draws for it
		for mask := uint32(1); mask <= top; mask++ {
			if rng.Intn(2) == 0 && (mask < top || len(rmasks) > 0) {
				continue // skip it, but never all of them
			}
			n := 1 + rng.Intn(3)
			rmasks, sizes = append(rmasks, mask), append(sizes, uint32(n))
			for ; n > 0; n-- {
				ids = append(ids, uint32(next))
				next++
			}
		}
		tail := []uint32{7, 7} // members of some later constraint: not this one's
		got, used, err := m.RestoreConstraint(key, rmasks, sizes, append(ids, tail...))
		if len(liveMasks(cid)) > 0 {
			if err == nil {
				t.Fatalf("RestoreConstraint over constraint %d, which has cells, was accepted", cid)
			}
			return
		}
		if err != nil || got != cid || used != len(ids) {
			t.Fatalf("RestoreConstraint(%d, %v, %v) = constraint %d, %d members, %v; want %d members taken", cid, rmasks, sizes, got, used, err, len(ids))
		}
		for j, mask := range rmasks {
			n := int(sizes[j])
			for _, id := range ids[:n] {
				model[Ref(cid, mask)] = append(model[Ref(cid, mask)], int64(id))
			}
			ids = ids[n:]
			want.Cells++
			want.Writes++
			want.StoredTuples += int64(n)
		}
		wantEvents = append(wantEvents, event{cid, true})
	}
	if _, _, err := m.RestoreConstraint(m.Interner().Key(cids[0]), []uint32{1, 1 << uint(width)}, []uint32{1, 1}, []uint32{0, 1}); err == nil {
		t.Fatalf("RestoreConstraint took mask %d in a store of width %d", 1<<uint(width), width)
	}
	restored := 0
	for step := 0; step < 3000; step++ {
		if step%5 == 0 {
			// An empty constraint if there is one (constraint 0 often is), and
			// the refusal otherwise.
			i := rng.Intn(constraints)
			for j := range cids {
				if len(liveMasks(cids[j])) == 0 {
					i = j
					restored++
					break
				}
			}
			restore(i)
		}
		a := randomRef()
		ca := load(a)
		idsA := mutate(a, &ca)
		if step%3 == 0 {
			b := randomRef(a)
			cb := load(b)
			save(b, cb, mutate(b, &cb))
			c := randomRef(a, b)
			cc := load(c)
			save(c, cc, mutate(c, &cc))
		}
		save(a, ca, idsA)

		if got := m.Stats(); got != want {
			t.Fatalf("step %d: Stats %+v, want %+v", step, got, want)
		}
		if !slices.Equal(events, wantEvents) {
			t.Fatalf("step %d: observer saw %v, want %v", step, events, wantEvents)
		}
		events, wantEvents = events[:0], wantEvents[:0]
		checkCell(t, fmt.Sprintf("step %d: Peek(%x)", step, a), m.Peek(a), model[a])
		if m.Stats() != want {
			t.Fatalf("step %d: Peek moved the counters", step)
		}
		lists := 0
		for _, ids := range model {
			if len(ids) >= 2 {
				lists++
			}
		}
		if kept := len(m.lists) - len(m.spare); kept != lists {
			t.Fatalf("step %d: %d member lists kept for %d cells with two or more members", step, kept, lists)
		}
		for _, i := range m.spare {
			if m.lists[i] != nil {
				t.Fatalf("step %d: vacated list %d still holds %v", step, i, m.lists[i])
			}
		}
		if len(m.blocks) > constraints {
			t.Fatalf("step %d: %d blocks for %d constraints", step, len(m.blocks), constraints)
		}
		// blocks reaches the highest constraint id saved so far; Masks must
		// answer for the ids past it too.
		for i, cid := range cids {
			live := liveMasks(cid)
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
			if int(b.live) != len(live) || (b.cells != nil) != (len(live) > 0) {
				t.Fatalf("step %d: constraint %d has %d cells, its block says %d (allocated: %v)",
					step, cid, len(live), b.live, b.cells != nil)
			}
			if width > denseMaxWidth && (!slices.Equal(b.masks, live) || len(b.cells) != len(live)) {
				t.Fatalf("step %d: constraint %d: sparse block holds masks %v in %d slots, want %v",
					step, cid, b.masks, len(b.cells), live)
			}
			if width <= denseMaxWidth && (b.masks != nil || len(b.cells) != 0 && len(b.cells) != 1<<width) {
				t.Fatalf("step %d: constraint %d: dense block has %d slots and masks %v", step, cid, len(b.cells), b.masks)
			}
		}
		if step%100 != 0 {
			continue
		}
		var walked []CellRef
		m.Walk(func(k CellKey, c Cell) {
			id, ok := m.Interner().Lookup(k.C)
			if !ok {
				t.Fatalf("step %d: Walk handed out unknown key %x", step, string(k.C))
			}
			r := Ref(id, k.M)
			walked = append(walked, r)
			checkCell(t, fmt.Sprintf("step %d: Walk(%x)", step, r), c, model[r])
		})
		wantWalk := make([]CellRef, 0, len(model))
		for r := range model {
			wantWalk = append(wantWalk, r)
		}
		slices.Sort(wantWalk) // a CellRef orders by (constraint id, mask)
		if !slices.Equal(walked, wantWalk) {
			t.Fatalf("step %d: Walk order %x, want %x", step, walked, wantWalk)
		}
	}
	if restored < 10 {
		t.Errorf("the sequence restored a constraint in bulk %d times: too few to check it", restored)
	}
	if fired[true] < 10 || fired[false] < 10 {
		t.Errorf("the sequence allocated a block %d times and released one %d times: too few to check the lifecycle",
			fired[true], fired[false])
	}
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
