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

// run returns the model's cells of one constraint, ascending by mask.
func (m refModel) run(key string) []Entry {
	i, _ := m.search(Entry{Key: key})
	j := i
	for j < len(m) && m[j].Key == key {
		j++
	}
	return m[i:j]
}

// world stands in for the store: the cells live in the reference model, the
// index hears only of a constraint's first cell and its last — as the store's
// observer tells it — and reads a constraint's masks back through masksOf.
type world struct {
	kt        *keyTable
	ref       refModel
	ix        *Index
	maskReads int // masksOf calls: constraints whose cells an iterator read
}

func newWorld() *world {
	w := &world{kt: newKeyTable()}
	w.ix = New(w.kt.keyOf, func(id uint32, buf []uint32) []uint32 {
		w.maskReads++
		for _, e := range w.ref.run(w.kt.keyOf(id)) {
			buf = append(buf, e.Mask)
		}
		return buf
	})
	return w
}

// put adds the cell (idempotent) and returns its entry.
func (w *world) put(key string, mask uint32) Entry {
	e := w.kt.entry(key, mask)
	first := len(w.ref.run(key)) == 0
	w.ref.insert(e)
	if first {
		w.ix.Insert(e.ID)
	}
	return e
}

// drop removes the cell (idempotent).
func (w *world) drop(key string, mask uint32) {
	had := len(w.ref.run(key)) > 0
	w.ref.remove(w.kt.entry(key, mask))
	if had && len(w.ref.run(key)) == 0 {
		w.ix.Delete(w.kt.id(key))
	}
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

func checkEqual(t *testing.T, w *world) {
	t.Helper()
	got, want := collect(w.ix), w.ref
	if len(got) != len(want) {
		t.Fatalf("index has %d entries, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: index %x/%d (id %d), reference %x/%d (id %d)",
				i, got[i].Key, got[i].Mask, got[i].ID, want[i].Key, want[i].Mask, want[i].ID)
		}
	}
	checkConstraintWalk(t, w)
}

// checkConstraintWalk steps through the index a constraint at a time: from
// the first cell of each run, and from a cell some way into it (the walk's
// stride varies with the run's position so every offset gets its turn),
// Masks must be the rest of the reference's run and NextConstraint must
// land on the first cell of the reference's next key. A constraint the walk
// asks nothing of but its name is stepped over without its masks being read.
func checkConstraintWalk(t *testing.T, w *world) {
	t.Helper()
	want := w.ref
	it := w.ix.Seek("", 0)
	runs := 0
	for i := 0; i < len(want); runs++ {
		end := i
		for end < len(want) && want[end].Key == want[i].Key {
			end++
		}
		reads := w.maskReads
		if key, id := it.Constraint(); !it.Valid() || key != want[i].Key || id != want[i].ID {
			t.Fatalf("constraint walk: run %d is not at constraint %x (id %d)", runs, want[i].Key, want[i].ID)
		}
		bare := runs%4 == 3 // every fourth run is stepped over by name alone
		if !bare {
			for into := runs % 3; into > 0 && i+1 < end; into-- {
				it.Next()
				i++
			}
			if it.Entry() != want[i] {
				t.Fatalf("constraint walk: run %d is not at %x/%d", runs, want[i].Key, want[i].Mask)
			}
			rest := it.Masks()
			if len(rest) != end-i {
				t.Fatalf("constraint walk: %d masks left in run %d, want %d", len(rest), runs, end-i)
			}
			for k, m := range rest {
				if m != want[i+k].Mask {
					t.Fatalf("constraint walk: run %d mask %d is %d, want %d", runs, k, m, want[i+k].Mask)
				}
			}
		}
		it.NextConstraint()
		if got := w.maskReads - reads; got > 1 || bare && got != 0 {
			t.Fatalf("constraint walk: run %d cost %d reads of its masks (stepped over by name alone: %v)", runs, got, bare)
		}
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

// checkInvariants verifies the B-tree structure (per-node item bounds and
// ordering, child/item count relation, uniform leaf depth), keys strictly
// ascending across the whole tree, and that the tree holds exactly the
// constraints with a live cell — so id ↔ key is a bijection over them, with
// keyOf as its inverse.
func checkInvariants(t *testing.T, w *world) {
	t.Helper()
	ix := w.ix
	inTree := map[uint32]bool{}
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
		if len(w.ref.run(c.key)) == 0 {
			t.Fatalf("constraint %x (id %d) is in the tree without a live cell", c.key, c.id)
		}
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
	for _, e := range w.ref {
		if !inTree[e.ID] {
			t.Fatalf("constraint %x (id %d) has a live cell but is not in the tree", e.Key, e.ID)
		}
	}
}

// TestIndexRandomized drives random interleaved cell creations and
// evictions against the sorted-slice reference, checking full-order equality
// and invariants at every step boundary. The shapes differ in how cells
// spread over constraints: hundreds of constraints with a cell or two each
// (the tree splits, rotates and merges as they come and go), short runs, a
// few long ones (constraints rarely leave, and every walk reads runs that
// changed under a tree that did not), and masks beyond 2^14, the width past
// which the store's blocks are sparse.
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
			w := newWorld()
			randMask := func() uint32 {
				if sh.bits > 14 && rng.Intn(2) == 0 {
					return 1<<14 + uint32(rng.Intn(16)) // collide above the dense width too
				}
				return uint32(rng.Intn(1 << sh.bits))
			}
			for step := 0; step < 4000; step++ {
				key, mask := randKey(rng, sh.dims, sh.vals), randMask()
				if rng.Intn(3) == 0 {
					w.drop(key, mask)
				} else {
					w.put(key, mask)
				}
				if step%97 == 0 {
					checkEqual(t, w)
					checkInvariants(t, w)
				}
			}
			checkEqual(t, w)
			checkInvariants(t, w)
			// Drain completely: every tree delete path (leaf and separator
			// positions, rotations, merges, root collapse) gets exercised on
			// the way down.
			for len(w.ref) > 0 {
				e := w.ref[rng.Intn(len(w.ref))]
				w.drop(e.Key, e.Mask)
				if len(w.ref)%211 == 0 {
					checkEqual(t, w)
					checkInvariants(t, w)
				}
			}
			if w.ix.root != nil {
				t.Fatalf("%s seed %d: drained index keeps a root: %v", sh.name, seed, w.ix.root)
			}
			if st := w.ix.Stats(); st.Inserts != st.Deletes || st.Inserts == 0 {
				t.Fatalf("%s seed %d: drained after %d inserts and %d deletes", sh.name, seed, st.Inserts, st.Deletes)
			}
			// Every constraint comes back under the id it had before its
			// last cell left.
			for i := 0; i < 300; i++ {
				w.put(w.kt.keys[rng.Intn(len(w.kt.keys))], randMask())
			}
			checkEqual(t, w)
			checkInvariants(t, w)
		}
	}
}

// TestIndexRunEdges takes one constraint's cells away one at a time between
// two neighbours that must stay put: the index hears nothing until the last
// one goes, yet every walk in between must show the run as the store has it
// now — the masks are read, not remembered — and then the constraint leaves
// the tree and comes back under the same id.
func TestIndexRunEdges(t *testing.T) {
	w := newWorld()
	apply := func(insert bool, key string, mask uint32) {
		t.Helper()
		if insert {
			w.put(key, mask)
		} else {
			w.drop(key, mask)
		}
		checkEqual(t, w)
		checkInvariants(t, w)
	}
	apply(true, "aaaa", 9)
	apply(true, "cccc", 1)
	for _, m := range []uint32{5, 1, 1 << 20, 3, 7, 1 << 14} {
		apply(true, "bbbb", m)
	}
	if st := w.ix.Stats(); st.Inserts != 3 || st.Deletes != 0 {
		t.Fatalf("stats = %+v after eight cells under three constraints, want 3 inserts", st)
	}
	for _, m := range []uint32{1, 5, 1 << 20, 3, 1 << 14} { // first, middle, last, …
		apply(false, "bbbb", m)
	}
	if st := w.ix.Stats(); st.Deletes != 0 {
		t.Fatalf("stats = %+v: a constraint that keeps a cell must not be deleted", st)
	}
	apply(false, "bbbb", 7) // only: the constraint leaves the tree
	if it := w.ix.Seek("bbbb", 0); !it.Valid() || it.Entry().Key != "cccc" {
		t.Fatalf("seek at an emptied constraint did not land on its successor")
	}
	id := w.kt.id("bbbb")
	apply(true, "bbbb", 2) // back, same id
	apply(true, "bbbb", 0)
	if it := w.ix.Seek("bbbb", 0); !it.Valid() || it.Entry() != (Entry{Key: "bbbb", ID: id, Mask: 0}) {
		t.Fatalf("re-created constraint is not back under id %d", id)
	}
	if got := w.ix.Stats(); got.Inserts != 4 || got.Deletes != 1 {
		t.Fatalf("stats = %+v, want 4 inserts / 1 delete: one per constraint transition", got)
	}
}

// TestIndexSeek checks Seek and SeekGE against the reference for random
// probe points and for the positions only runs have: inside a run, one
// past a run's last mask, at key+"\x00" (how the query path steps over a
// key), and re-seeks of a live iterator within and across runs. Probe masks
// reach 2^32−1: a cursor is client bytes, and any mask past a constraint's
// last live one must come out at the next constraint.
func TestIndexSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	w := newWorld()
	for i := 0; i < 1500; i++ {
		w.put(randKey(rng, 2, 5), uint32(rng.Intn(64)))
	}
	ix, ref := w.ix, w.ref
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
		probe(e.Key, 1<<31)
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
// one, and a walk that only steps reads no constraint's masks at all.
func TestIndexNextConstraint(t *testing.T) {
	w := newWorld()
	key := func(i int) string {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(i)) // ascending i = ascending key
		return string(b[:])
	}
	const constraints = 40 * maxItems // three levels deep
	for i := 0; i < constraints; i++ {
		// Every third constraint holds a run, the rest a single cell.
		for m := uint32(0); m <= uint32(i%3/2)*4; m++ {
			w.put(key(i*7919%constraints), m)
		}
		if i == maxItems || i == maxItems+1 || i%97 == 0 {
			// maxItems+1 constraints do not fit the root: the first split
			// has just happened.
			checkEqual(t, w)
			checkInvariants(t, w)
		}
	}
	ix := w.ix
	if ix.root.children == nil || ix.root.children[0].children == nil {
		t.Fatalf("%d constraints did not grow the tree to three levels", constraints)
	}
	seeks := ix.Stats().Seeks
	checkConstraintWalk(t, w)
	if got := ix.Stats().Seeks - seeks; got != 1 {
		t.Fatalf("a walk over %d constraints counted %d seeks, want 1 (its start)", constraints, got)
	}
	reads, stepped := w.maskReads, 0
	for it := ix.Seek("", 0); it.Valid(); it.NextConstraint() {
		if k, _ := it.Constraint(); k != key(stepped) {
			t.Fatalf("step %d of the bare walk stands on %x", stepped, k)
		}
		stepped++
	}
	if stepped != constraints || w.maskReads != reads {
		t.Fatalf("a bare walk stepped over %d of %d constraints and read the masks of %d", stepped, constraints, w.maskReads-reads)
	}
	// Constraints leave: a skipped-over constraint and a departed one must
	// look the same to the walk.
	rng := rand.New(rand.NewSource(3))
	for _, i := range append([]int{0, constraints - 1}, rng.Perm(constraints)[:constraints/2]...) {
		for run := w.ref.run(key(i)); len(run) > 0; run = w.ref.run(key(i)) {
			w.drop(key(i), run[0].Mask)
		}
		if it := ix.Seek(key(i), 0); it.Valid() && it.Entry().Key <= key(i) {
			t.Fatalf("constraint %d still reachable after its last cell left", i)
		}
		if i%53 == 0 {
			checkEqual(t, w)
			checkInvariants(t, w)
		}
	}
	checkEqual(t, w)
	checkInvariants(t, w)
}

// TestIndexIdempotent pins that a repeated Insert of a constraint already in
// the tree and a Delete of one that is not leave the set unchanged while
// still counting as operations.
func TestIndexIdempotent(t *testing.T) {
	w := newWorld()
	w.ix.Delete(w.kt.id("zzzz")) // an empty index has nothing to lose
	a := w.put("aaaa", 3).ID
	w.put("cccc", 1)
	w.ix.Insert(a)
	w.ix.Insert(a)
	checkEqual(t, w)
	checkInvariants(t, w)
	w.ix.Delete(w.kt.id("bbbb")) // interned, never had a cell
	checkEqual(t, w)
	w.drop("aaaa", 3)
	w.ix.Delete(a)
	checkEqual(t, w)
	checkInvariants(t, w)
	if st := w.ix.Stats(); st.Inserts != 4 || st.Deletes != 4 {
		t.Fatalf("stats = %+v, want 4 inserts / 4 deletes", st)
	}
}
