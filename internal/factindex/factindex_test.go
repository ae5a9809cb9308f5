package factindex

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// keyTable stands in for the store's interner: dense ids in first-sight
// order, decoded back by keyOf.
type keyTable struct {
	ids  map[string]uint32
	keys []string
}

func newKeyTable() *keyTable { return &keyTable{ids: map[string]uint32{}} }

func (kt *keyTable) id(key string) uint32 {
	id, ok := kt.ids[key]
	if !ok {
		id = uint32(len(kt.keys))
		kt.ids[key] = id
		kt.keys = append(kt.keys, key)
	}
	return id
}

func (kt *keyTable) keyOf(id uint32) string { return kt.keys[id] }

// entry names a cell by key, interning it.
func (kt *keyTable) entry(key string, mask uint32) Entry {
	return Entry{Key: key, ID: kt.id(key), Mask: mask}
}

// refModel is the brute-force reference: a sorted slice of cells in the
// (key, mask) order the index must iterate in.
type refModel []Entry

func entryLess(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Mask < b.Mask
}

func (m refModel) search(e Entry) (int, bool) {
	i := sort.Search(len(m), func(i int) bool { return !entryLess(m[i], e) })
	return i, i < len(m) && m[i] == e
}

func (m *refModel) insert(e Entry) {
	i, found := m.search(e)
	if found {
		return
	}
	*m = append(*m, Entry{})
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = e
}

func (m *refModel) remove(e Entry) {
	i, found := m.search(e)
	if !found {
		return
	}
	copy((*m)[i:], (*m)[i+1:])
	*m = (*m)[:len(*m)-1]
}

// collect walks the whole index through the iterator.
func collect(ix *Index) []Entry {
	var out []Entry
	for it := ix.Seek("", 0); it.Valid(); it.Next() {
		out = append(out, it.Entry())
	}
	return out
}

func randKey(rng *rand.Rand, dims, vals int) string {
	b := make([]byte, 4*dims)
	for d := 0; d < dims; d++ {
		// Small value range to force key collisions (runs of masks).
		binary.LittleEndian.PutUint32(b[4*d:], uint32(rng.Intn(vals)))
	}
	return string(b)
}

func checkEqual(t *testing.T, ix *Index, want refModel) {
	t.Helper()
	got := collect(ix)
	if len(got) != len(want) {
		t.Fatalf("index has %d entries, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: index %x/%d (id %d), reference %x/%d (id %d)",
				i, got[i].Key, got[i].Mask, got[i].ID, want[i].Key, want[i].Mask, want[i].ID)
		}
	}
	if ix.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", ix.Len(), len(want))
	}
	checkConstraintWalk(t, ix, want)
}

// checkConstraintWalk steps through the index a constraint at a time: from
// the first cell of each run, and from a cell some way into it (the walk's
// stride varies with the run's position so every offset gets its turn),
// NextConstraint must land on the first cell of the reference's next key.
func checkConstraintWalk(t *testing.T, ix *Index, want refModel) {
	t.Helper()
	it := ix.Seek("", 0)
	runs := 0
	for i := 0; i < len(want); runs++ {
		end := i
		for end < len(want) && want[end].Key == want[i].Key {
			end++
		}
		for into := runs % 3; into > 0 && i+1 < end; into-- {
			it.Next()
			i++
		}
		if !it.Valid() || it.Entry() != want[i] {
			t.Fatalf("constraint walk: run %d is not at %x/%d", runs, want[i].Key, want[i].Mask)
		}
		it.NextConstraint()
		i = end
	}
	if it.Valid() {
		t.Fatalf("constraint walk: %x/%d follows the reference's last constraint", it.Entry().Key, it.Entry().Mask)
	}
	it.NextConstraint() // past the end: stays there
	if it.Valid() {
		t.Fatal("NextConstraint revived an exhausted iterator")
	}
}

// checkInvariants verifies both levels. Upper: B-tree structure (per-node
// item bounds and ordering, child/item count relation, uniform leaf depth)
// and keys strictly ascending across the whole tree. Lower: every
// constraint in the tree has a non-empty, strictly ascending mask list;
// every non-empty list belongs to a constraint in the tree (so id ↔ key is
// a bijection over the live constraints, with keyOf as its inverse); and
// Len is the sum of the list lengths.
func checkInvariants(t *testing.T, ix *Index) {
	t.Helper()
	inTree := map[uint32]bool{}
	cells := 0
	prevKey, havePrev := "", false
	leafDepth := -1
	var walk func(n *node, depth int, isRoot bool)
	visit := func(c constraint) {
		if havePrev && !less(prevKey, c.key) {
			t.Fatalf("tree keys out of order: %x then %x", prevKey, c.key)
		}
		prevKey, havePrev = c.key, true
		if inTree[c.id] {
			t.Fatalf("constraint id %d is in the tree twice", c.id)
		}
		inTree[c.id] = true
		if got := ix.keyOf(c.id); got != c.key {
			t.Fatalf("tree item %x carries id %d, which decodes to %x", c.key, c.id, got)
		}
		if int(c.id) >= len(ix.masks) || len(ix.masks[c.id]) == 0 {
			t.Fatalf("constraint %x (id %d) is in the tree without a live mask", c.key, c.id)
		}
		cells += len(ix.masks[c.id])
	}
	walk = func(n *node, depth int, isRoot bool) {
		if len(n.items) > maxItems {
			t.Fatalf("node with %d items exceeds max %d", len(n.items), maxItems)
		}
		if !isRoot && len(n.items) < minItems {
			t.Fatalf("non-root node with %d items below min %d", len(n.items), minItems)
		}
		if isRoot && len(n.items) < 1 {
			t.Fatalf("root holds no items but was not collapsed")
		}
		if n.children == nil {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf at depth %d, expected %d", depth, leafDepth)
			}
			for _, c := range n.items {
				visit(c)
			}
			return
		}
		if len(n.children) != len(n.items)+1 {
			t.Fatalf("node with %d items has %d children", len(n.items), len(n.children))
		}
		for i, c := range n.children {
			walk(c, depth+1, false)
			if i < len(n.items) {
				visit(n.items[i])
			}
		}
	}
	if ix.root != nil {
		walk(ix.root, 0, true)
	}
	for id, run := range ix.masks {
		if len(run) > 0 && !inTree[uint32(id)] {
			t.Fatalf("constraint id %d has %d live masks but is not in the tree", id, len(run))
		}
		for j := 1; j < len(run); j++ {
			if run[j-1] >= run[j] {
				t.Fatalf("constraint id %d: masks not strictly ascending at %d: %v", id, j, run)
			}
		}
	}
	if cells != ix.Len() {
		t.Fatalf("Len() = %d, mask lists hold %d cells", ix.Len(), cells)
	}
}

// TestIndexRandomized drives random interleaved inserts and deletes
// against the sorted-slice reference, checking full-order equality and
// invariants at every step boundary. The shapes differ in how cells spread
// over constraints: hundreds of constraints with a cell or two each (the
// tree splits, rotates and merges as they come and go), short runs, a few
// long ones (most operations edit the middle of a run and constraints
// rarely leave), and masks beyond 2^14, the width past which the store
// itself stops indexing densely.
func TestIndexRandomized(t *testing.T) {
	shapes := []struct {
		name             string
		dims, vals, bits int
	}{
		{"many-constraints", 2, 30, 1},
		{"short-runs", 2, 6, 3},
		{"long-runs", 1, 5, 7},
		{"wide-masks", 1, 12, 20},
	}
	for _, sh := range shapes {
		for _, seed := range []int64{1, 7, 42, 1234} {
			rng := rand.New(rand.NewSource(seed))
			kt := newKeyTable()
			ix := New(kt.keyOf)
			var ref refModel
			randMask := func() uint32 {
				if sh.bits > 14 && rng.Intn(2) == 0 {
					return 1<<14 + uint32(rng.Intn(16)) // collide above the dense width too
				}
				return uint32(rng.Intn(1 << sh.bits))
			}
			for step := 0; step < 4000; step++ {
				e := kt.entry(randKey(rng, sh.dims, sh.vals), randMask())
				if rng.Intn(3) == 0 {
					ix.Delete(e.ID, e.Mask)
					ref.remove(e)
				} else {
					ix.Insert(e.ID, e.Mask)
					ref.insert(e)
				}
				if step%97 == 0 {
					checkEqual(t, ix, ref)
					checkInvariants(t, ix)
				}
			}
			checkEqual(t, ix, ref)
			checkInvariants(t, ix)
			// Drain completely: every delete path (a run's first, middle,
			// last and only mask; rotations, merges, root collapse) gets
			// exercised on the way down.
			for len(ref) > 0 {
				e := ref[rng.Intn(len(ref))]
				ix.Delete(e.ID, e.Mask)
				ref.remove(e)
				if len(ref)%211 == 0 {
					checkEqual(t, ix, ref)
					checkInvariants(t, ix)
				}
			}
			if ix.Len() != 0 || ix.root != nil {
				t.Fatalf("%s seed %d: drained index not empty: len=%d root=%v", sh.name, seed, ix.Len(), ix.root)
			}
			// Every constraint comes back under the id it had before its
			// last cell left.
			for i := 0; i < 300; i++ {
				e := kt.entry(kt.keys[rng.Intn(len(kt.keys))], randMask())
				ix.Insert(e.ID, e.Mask)
				ref.insert(e)
			}
			checkEqual(t, ix, ref)
			checkInvariants(t, ix)
		}
	}
}

// TestIndexRunEdges walks one constraint's run through every eviction
// position — first, middle, last and only mask — between two neighbours
// that must stay put, then re-creates it.
func TestIndexRunEdges(t *testing.T) {
	kt := newKeyTable()
	ix := New(kt.keyOf)
	var ref refModel
	apply := func(insert bool, key string, mask uint32) {
		t.Helper()
		e := kt.entry(key, mask)
		if insert {
			ix.Insert(e.ID, e.Mask)
			ref.insert(e)
		} else {
			ix.Delete(e.ID, e.Mask)
			ref.remove(e)
		}
		checkEqual(t, ix, ref)
		checkInvariants(t, ix)
	}
	apply(true, "aaaa", 9)
	apply(true, "cccc", 1)
	// Out of order on purpose: the run must come out ascending.
	for _, m := range []uint32{5, 1, 1 << 20, 3, 7, 1 << 14} {
		apply(true, "bbbb", m)
	}
	apply(false, "bbbb", 1)     // first
	apply(false, "bbbb", 5)     // middle
	apply(false, "bbbb", 1<<20) // last
	apply(false, "bbbb", 4)     // absent, inside the run
	apply(false, "bbbb", 3)
	apply(false, "bbbb", 1<<14)
	apply(false, "bbbb", 7) // only: the constraint leaves the tree
	if it := ix.Seek("bbbb", 0); !it.Valid() || it.Entry().Key != "cccc" {
		t.Fatalf("seek at an emptied constraint did not land on its successor")
	}
	apply(false, "bbbb", 7) // gone already
	apply(true, "bbbb", 2)  // back, same id
	apply(true, "bbbb", 0)
	if got := ix.Stats(); got.Inserts != 10 || got.Deletes != 8 || got.Entries != 4 {
		t.Fatalf("stats = %+v, want 10 inserts / 8 deletes / 4 entries: every call counts, effective or not", got)
	}
}

// TestIndexSeek checks Seek and SeekGE against the reference for random
// probe points and for the positions only runs have: inside a run, one
// past a run's last mask, at key+"\x00" (how the query path steps over a
// key), and re-seeks of a live iterator within and across runs.
func TestIndexSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kt := newKeyTable()
	ix := New(kt.keyOf)
	var ref refModel
	for i := 0; i < 1500; i++ {
		e := kt.entry(randKey(rng, 2, 5), uint32(rng.Intn(64)))
		ix.Insert(e.ID, e.Mask)
		ref.insert(e)
	}
	// check compares the iterator's position, and the walk from it, with
	// the reference's first entry ≥ (key, mask).
	check := func(it *Iter, key string, mask uint32) {
		t.Helper()
		i, _ := ref.search(Entry{Key: key, Mask: mask})
		if i == len(ref) {
			if it.Valid() {
				t.Fatalf("seek %x/%d: want invalid, got %x/%d", key, mask, it.Entry().Key, it.Entry().Mask)
			}
			return
		}
		for j := i; j < len(ref) && j < i+70; j++ {
			if !it.Valid() {
				t.Fatalf("seek %x/%d: invalid at offset %d, want %x/%d", key, mask, j-i, ref[j].Key, ref[j].Mask)
			}
			if got := it.Entry(); got != ref[j] {
				t.Fatalf("seek %x/%d: offset %d is %x/%d, want %x/%d", key, mask, j-i, got.Key, got.Mask, ref[j].Key, ref[j].Mask)
			}
			it.Next()
		}
	}
	probe := func(key string, mask uint32) {
		t.Helper()
		check(ix.Seek(key, mask), key, mask)
	}
	for i := 0; i < 500; i++ {
		probe(randKey(rng, 2, 6), uint32(rng.Intn(70)))
	}
	for i := 0; i < 200; i++ { // exact members, their successors, the step over their key
		e := ref[rng.Intn(len(ref))]
		probe(e.Key, e.Mask)
		probe(e.Key, e.Mask+1)
		probe(e.Key, ^uint32(0))
		probe(e.Key+"\x00", 0)
	}
	probe("", 0)
	probe("\xff\xff\xff\xff\xff\xff\xff\xff", ^uint32(0))

	// Re-seeks on one live iterator: the predicate-pushdown pattern. Each
	// starts from wherever the last check's walk left the iterator —
	// mid-run, at a run's end, or exhausted.
	it := ix.Seek("", 0)
	seeks := ix.Stats().Seeks
	const reseeks = 600
	for i := 0; i < reseeks; i++ {
		key, mask := randKey(rng, 2, 6), uint32(rng.Intn(70))
		if it.Valid() && rng.Intn(2) == 0 {
			switch cur := it.Entry(); rng.Intn(4) {
			case 0: // forward within the current run, or off its end
				key, mask = cur.Key, cur.Mask+uint32(rng.Intn(8))
			case 1: // backward within the current run
				key, mask = cur.Key, cur.Mask/2
			case 2: // past the current run, by mask
				key, mask = cur.Key, ^uint32(0)
			case 3: // past the current run, by key
				key, mask = cur.Key+"\x00", 0
			}
		}
		it.SeekGE(key, mask)
		check(it, key, mask)
	}
	if got := ix.Stats().Seeks - seeks; got != reseeks {
		t.Fatalf("%d re-seeks counted as %d", reseeks, got)
	}
}

// TestIndexNextConstraint pins the in-order step where the tree's shape
// changes under it: a walk over more constraints than one node holds (so
// it climbs out of a leaf, takes a separator and descends the next
// subtree), the same walk after each further split, and after constraints
// lose their last cell — from the front, the back, a separator position
// and everything in between. The step is not a seek and is not counted as
// one.
func TestIndexNextConstraint(t *testing.T) {
	kt := newKeyTable()
	ix := New(kt.keyOf)
	var ref refModel
	key := func(i int) string {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(i)) // ascending i = ascending key
		return string(b[:])
	}
	const constraints = 40 * maxItems // three levels deep
	for i := 0; i < constraints; i++ {
		// Every third constraint holds a run, the rest a single cell.
		for m := uint32(0); m <= uint32(i%3/2)*4; m++ {
			e := kt.entry(key(i*7919%constraints), m)
			ix.Insert(e.ID, e.Mask)
			ref.insert(e)
		}
		if i == maxItems || i == maxItems+1 || i%97 == 0 {
			// maxItems+1 constraints do not fit the root: the first split
			// has just happened.
			checkEqual(t, ix, ref)
			checkInvariants(t, ix)
		}
	}
	if ix.root.children == nil || ix.root.children[0].children == nil {
		t.Fatalf("%d constraints did not grow the tree to three levels", constraints)
	}
	seeks := ix.Stats().Seeks
	checkConstraintWalk(t, ix, ref)
	if got := ix.Stats().Seeks - seeks; got != 1 {
		t.Fatalf("a walk over %d constraints counted %d seeks, want 1 (its start)", constraints, got)
	}
	// Constraints leave: a skipped-over constraint and a departed one must
	// look the same to the walk.
	rng := rand.New(rand.NewSource(3))
	for _, i := range append([]int{0, constraints - 1}, rng.Perm(constraints)[:constraints/2]...) {
		for len(ix.masks[kt.id(key(i))]) > 0 {
			e := kt.entry(key(i), ix.masks[kt.id(key(i))][0])
			ix.Delete(e.ID, e.Mask)
			ref.remove(e)
		}
		if it := ix.Seek(key(i), 0); it.Valid() && it.Entry().Key <= key(i) {
			t.Fatalf("constraint %d still reachable after its last cell left", i)
		}
		if i%53 == 0 {
			checkEqual(t, ix, ref)
			checkInvariants(t, ix)
		}
	}
	checkEqual(t, ix, ref)
	checkInvariants(t, ix)
}

// TestIndexIdempotent pins that duplicate inserts and deletes of absent
// entries leave the set unchanged while still counting as operations.
func TestIndexIdempotent(t *testing.T) {
	kt := newKeyTable()
	ix := New(kt.keyOf)
	a, b := kt.id("aaaa"), kt.id("bbbb")
	ix.Insert(a, 3)
	ix.Insert(a, 3)
	if ix.Len() != 1 {
		t.Fatalf("Len after duplicate insert = %d, want 1", ix.Len())
	}
	ix.Delete(b, 1)
	ix.Delete(b+7, 1) // an id the index never saw
	if ix.Len() != 1 {
		t.Fatalf("Len after absent delete = %d, want 1", ix.Len())
	}
	ix.Delete(a, 3)
	ix.Delete(a, 3)
	if ix.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", ix.Len())
	}
	st := ix.Stats()
	if st.Inserts != 2 || st.Deletes != 4 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 2 inserts / 4 deletes / 0 entries", st)
	}
	checkInvariants(t, ix)
}

// BenchmarkIndexInsertArrival is the index maintenance of one arrival at
// the paper's Fig 7a shape: 1 243 new cells spread over the 31 constraints
// of C^t — half of them constraints the index already holds, half new —
// presented the way discovery creates them (subspace by subspace, each
// across the constraints), into an index of 600 000 cells. The cells are
// taken out again off the clock, so every iteration meets the same index.
func BenchmarkIndexInsertArrival(b *testing.B) {
	const (
		constraints = 12000
		perRun      = 50 // 600 000 cells
		ct          = 31
		cells       = 1243
	)
	kt := newKeyTable()
	key := func(i int) string {
		var k [20]byte // d = 5
		binary.LittleEndian.PutUint32(k[:], uint32(i*7919))
		binary.LittleEndian.PutUint32(k[8:], uint32(i))
		return string(k[:])
	}
	ix := New(kt.keyOf)
	for i := 0; i < constraints; i++ {
		id := kt.id(key(i))
		for m := uint32(1); m <= perRun; m++ {
			ix.Insert(id, m)
		}
	}
	if ix.Len() != constraints*perRun {
		b.Fatalf("index holds %d cells", ix.Len())
	}
	rng := rand.New(rand.NewSource(5))
	ids := make([]uint32, ct)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		base := rng.Intn(constraints)
		for i := range ids {
			if i%2 == 0 {
				ids[i] = uint32((base + i*373) % constraints)
			} else {
				ids[i] = kt.id(key(constraints + n*ct + i))
			}
		}
		b.StartTimer()
		// Masks 51…91 are new to every constraint: 40 per constraint, and
		// a 41st for the first three.
		done := 0
		for m := uint32(perRun + 1); done < cells; m++ {
			for i, id := range ids {
				if m == perRun+41 && i >= cells-40*ct {
					break
				}
				ix.Insert(id, m)
				done++
			}
		}
		b.StopTimer()
		for m := uint32(perRun + 1); m <= perRun+41; m++ {
			for _, id := range ids {
				ix.Delete(id, m)
			}
		}
		if ix.Len() != constraints*perRun {
			b.Fatalf("index holds %d cells after an arrival was taken out again", ix.Len())
		}
		b.StartTimer()
	}
}
