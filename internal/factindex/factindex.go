// Package factindex is the incremental fact index: the one thing about the
// µ(C,M) store's live cells that the store does not already know — the
// key-byte order of the constraints that have one. The query surface orders
// its results by raw constraint-key bytes first, subspace mask second; the
// index is an in-memory B-tree over the constraints with at least one live
// cell, ordered by key, each entry carrying the constraint's interned id,
// and a constraint's live masks are read straight off its store block
// (masksOf), where they are ascending by construction. So a paginated read
// seeks to its cursor in O(log n) and walks forward O(page) instead of
// re-collecting and re-sorting every live cell per page, and a ranking steps
// over the constraints it can rule out (Iter.NextConstraint) without
// touching their cells.
//
// The index is maintained in lockstep with the write path at the only two
// moments it cares about: one Insert when a constraint gains its first cell,
// one Delete when it loses its last. Cells coming and going in between are
// the store's business alone. Keys are Go strings sharing the store
// interner's backing bytes, so the index costs six words per live constraint
// on top of the store itself.
//
// Concurrency follows the store's own discipline: mutations happen under
// the owning shard's write lock, iteration under its read lock — the index
// itself takes no locks, and neither it nor the store may be mutated while
// an Iter is live.
package factindex

import (
	"slices"
	"sync/atomic"
)

// Entry is one indexed cell coordinate: the canonical constraint key
// bytes, the id the store interned them under, and the measure-subspace
// mask. Entries iterate in (Key bytes, Mask) order; ID is a function of
// Key.
type Entry struct {
	Key  string
	ID   uint32
	Mask uint32
}

// constraint is one item of the tree: a constraint with live cells.
type constraint struct {
	key string
	id  uint32
}

// less orders the tree by key bytes, lexicographically. Together with the
// ascending masks of a store block this must stay identical to the query
// path's result ordering: cursors are (key, mask) positions in that order.
func less(a, b string) bool { return a < b }

// B-tree node arity. 31 items per node keeps splits cheap (a split
// copies ~16 entries) while staying 3 levels deep past ten thousand
// constraints.
const (
	maxItems = 31
	minItems = maxItems / 2
)

type node struct {
	items    []constraint // ordered; len ≥ 1 except a just-emptied root
	children []*node      // nil for leaves; len == len(items)+1 otherwise
}

// find returns the position of the first item with key ≥ key, and whether
// it equals key.
func (n *node) find(key string) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if less(n.items[mid].key, key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.items) && n.items[lo].key == key
}

// split divides the node at item i, returning the separator and the new
// right sibling.
func (n *node) split(i int) (constraint, *node) {
	mid := n.items[i]
	right := &node{items: append(make([]constraint, 0, maxItems), n.items[i+1:]...)}
	n.items = n.items[:i]
	if n.children != nil {
		right.children = append(make([]*node, 0, maxItems+1), n.children[i+1:]...)
		n.children = n.children[:i+1]
	}
	return mid, right
}

// insert adds c under n (known non-full), unless its key is already there.
func (n *node) insert(c constraint) {
	i, found := n.find(c.key)
	if found {
		return
	}
	if n.children == nil {
		n.items = slices.Insert(n.items, i, c)
		return
	}
	if child := n.children[i]; len(child.items) == maxItems {
		mid, right := child.split(maxItems / 2)
		n.items = slices.Insert(n.items, i, mid)
		n.children = slices.Insert(n.children, i+1, right)
		if less(mid.key, c.key) {
			i++
		}
	}
	n.children[i].insert(c)
}

// delete removes key from the subtree under n, reporting whether it was
// present. The caller guarantees len(n.items) > minItems unless n is the
// root (the grow-before-descend discipline below maintains it).
func (n *node) delete(key string) bool {
	i, found := n.find(key)
	if n.children == nil {
		if !found {
			return false
		}
		n.items = slices.Delete(n.items, i, i+1)
		return true
	}
	if len(n.children[i].items) <= minItems {
		n.grow(i)
		return n.delete(key) // indices shifted; retry from this node
	}
	if found {
		// key separates two subtrees: replace it with its in-order
		// predecessor (the max of the left subtree), removed from there.
		n.items[i] = n.children[i].removeMax()
		return true
	}
	return n.children[i].delete(key)
}

// removeMax extracts the subtree's largest item.
func (n *node) removeMax() constraint {
	if n.children == nil {
		c := n.items[len(n.items)-1]
		n.items = n.items[:len(n.items)-1]
		return c
	}
	i := len(n.children) - 1
	if len(n.children[i].items) <= minItems {
		n.grow(i)
		return n.removeMax()
	}
	return n.children[i].removeMax()
}

// grow brings child i above minItems items, borrowing from a sibling
// through the separator when one has spare capacity, merging otherwise.
func (n *node) grow(i int) {
	if i > 0 && len(n.children[i-1].items) > minItems {
		// Rotate right: left sibling's max → separator → child's front.
		child, left := n.children[i], n.children[i-1]
		child.items = slices.Insert(child.items, 0, n.items[i-1])
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if left.children != nil {
			child.children = slices.Insert(child.children, 0, left.children[len(left.children)-1])
			left.children = left.children[:len(left.children)-1]
		}
		return
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		// Rotate left: separator → child's back, right sibling's min up.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = slices.Delete(right.items, 0, 1)
		if right.children != nil {
			child.children = append(child.children, right.children[0])
			right.children = slices.Delete(right.children, 0, 1)
		}
		return
	}
	// Both siblings at minimum: merge child i with one around the separator.
	if i >= len(n.children)-1 {
		i--
	}
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	n.items = slices.Delete(n.items, i, i+1)
	n.children = slices.Delete(n.children, i+1, i+2)
}

// Index is the per-shard incremental fact index. See the package note for
// the structure and the locking discipline.
type Index struct {
	// keyOf decodes a constraint id to its key bytes (the store interner's
	// Key); called when a constraint enters or leaves the tree.
	keyOf func(id uint32) string
	// masksOf appends constraint id's live subspace masks to buf, ascending
	// (the store's Masks); called when an iterator first needs a mask of the
	// constraint it stands on.
	masksOf func(id uint32, buf []uint32) []uint32

	root *node // the constraints with live cells, by key

	// inserts/deletes are cumulative maintenance counters, mutated under
	// the same (write) lock as the structure; seeks counts iterator seek
	// operations and is atomic because readers bump it under a shared lock.
	inserts uint64
	deletes uint64
	seeks   atomic.Uint64
}

// New returns an empty index over constraints identified by dense ids.
// keyOf must map an id to the same key bytes for the index's lifetime, and
// distinct ids to distinct keys; masksOf must return at least one mask for
// every constraint that is in the index.
func New(keyOf func(id uint32) string, masksOf func(id uint32, buf []uint32) []uint32) *Index {
	return &Index{keyOf: keyOf, masksOf: masksOf}
}

// Stats is a monitoring snapshot of one index.
type Stats struct {
	// Inserts and Deletes count constraint transitions since creation — a
	// first cell, a last cell (snapshot restore and WAL replay rebuild
	// through Inserts too).
	Inserts uint64
	Deletes uint64
	// Seeks counts iterator seek operations (cursor positioning and
	// predicate-pushdown skips).
	Seeks uint64
}

// Stats returns a monitoring snapshot. Call it under the same lock
// regime as Insert/Delete (the owning shard's lock, either side).
func (ix *Index) Stats() Stats {
	return Stats{Inserts: ix.inserts, Deletes: ix.deletes, Seeks: ix.seeks.Load()}
}

// Insert adds constraint id, which has just gained its first live cell.
func (ix *Index) Insert(id uint32) {
	ix.inserts++
	if ix.root == nil {
		ix.root = &node{items: make([]constraint, 0, maxItems)}
	}
	if len(ix.root.items) == maxItems {
		left := ix.root
		mid, right := left.split(maxItems / 2)
		ix.root = &node{items: []constraint{mid}, children: []*node{left, right}}
	}
	ix.root.insert(constraint{key: ix.keyOf(id), id: id})
}

// Delete removes constraint id, which has just lost its last live cell.
func (ix *Index) Delete(id uint32) {
	ix.deletes++
	if ix.root == nil {
		return
	}
	ix.root.delete(ix.keyOf(id))
	if len(ix.root.items) == 0 {
		if ix.root.children == nil {
			ix.root = nil
		} else {
			ix.root = ix.root.children[0]
		}
	}
}

// frame is one step of an iterator's root-to-position path: within n,
// subtree children[i] is (or was) being visited, and items[i] is the next
// item of n itself.
type frame struct {
	n *node
	i int
}

// Iter is a forward iterator. It holds a path into the tree and a copy of
// the current constraint's live masks, read from the store the first time
// one is needed, so neither may be mutated while the Iter is in use.
type Iter struct {
	ix     *Index
	stack  []frame
	cur    constraint // the constraint under the iterator, when Valid
	run    []uint32   // its live masks, once filled; the buffer is reused
	filled bool
	j      int // position in run
}

// Seek returns an iterator positioned at the first entry ≥ (key, mask).
func (ix *Index) Seek(key string, mask uint32) *Iter {
	it := &Iter{ix: ix, stack: make([]frame, 0, 8)}
	it.SeekGE(key, mask)
	return it
}

// SeekGE repositions the iterator at the first entry ≥ (key, mask),
// invalid when none exists. Re-seeking an existing iterator reuses its
// path storage — the predicate-pushdown skip path — and a seek within the
// constraint the iterator already stands on does not descend the tree. Any
// mask is in range: past a constraint's last live mask is the first entry
// of the next constraint.
func (it *Iter) SeekGE(key string, mask uint32) {
	it.ix.seeks.Add(1)
	if len(it.stack) == 0 || it.cur.key != key {
		it.stack = it.stack[:0]
		for n := it.ix.root; n != nil; {
			i, found := n.find(key)
			it.stack = append(it.stack, frame{n: n, i: i})
			if found || n.children == nil {
				break
			}
			n = n.children[i]
		}
		it.popToValid()
		if !it.enter() || it.cur.key != key {
			return // at the first mask of the first constraint after key
		}
	}
	run := it.masks()
	if it.j, _ = slices.BinarySearch(run, mask); it.j == len(run) {
		it.NextConstraint()
	}
}

// enter stands the iterator on the constraint the path names, at its first
// mask, without reading its masks yet; false when the path is exhausted.
func (it *Iter) enter() bool {
	if len(it.stack) == 0 {
		return false
	}
	top := it.stack[len(it.stack)-1]
	it.cur = top.n.items[top.i]
	it.filled, it.j = false, 0
	return true
}

// masks returns the current constraint's live masks, reading them from the
// store on first use: a constraint stepped over whole is never read.
func (it *Iter) masks() []uint32 {
	if !it.filled {
		it.run, it.filled = it.ix.masksOf(it.cur.id, it.run[:0]), true
	}
	return it.run
}

// Masks returns the current constraint's live masks from the iterator's
// position on, ascending: Entry's Mask and those Next would visit before
// leaving the constraint. The iterator must be Valid; the slice is its own
// buffer, good until it next moves.
func (it *Iter) Masks() []uint32 { return it.masks()[it.j:] }

// popToValid discards exhausted frames until the top frame names a live
// item or the stack empties (iteration done).
func (it *Iter) popToValid() {
	for len(it.stack) > 0 {
		top := it.stack[len(it.stack)-1]
		if top.i < len(top.n.items) {
			return
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
}

// NextConstraint advances to the first entry of the next constraint in key
// order, leaving the rest of the current one's masks unvisited — unread, if
// no entry of it was asked for. It is what Next does at the end of a run —
// one step along the path, no descent from the root, no key comparison —
// whatever number of cells it passes over.
func (it *Iter) NextConstraint() {
	if len(it.stack) == 0 {
		return
	}
	top := &it.stack[len(it.stack)-1]
	n := top.n
	top.i++
	if n.children != nil {
		// The subtree between the just-visited item and the next one comes
		// first: descend its left spine down to a leaf (a non-root node
		// always holds ≥ minItems items).
		for c := n.children[top.i]; ; c = c.children[0] {
			it.stack = append(it.stack, frame{n: c})
			if c.children == nil {
				break
			}
		}
	} else {
		it.popToValid()
	}
	it.enter()
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iter) Valid() bool { return len(it.stack) > 0 }

// Constraint returns the key and id of the constraint the iterator stands
// on, without reading its masks; the iterator must be Valid.
func (it *Iter) Constraint() (key string, id uint32) { return it.cur.key, it.cur.id }

// Entry returns the current entry; the iterator must be Valid.
func (it *Iter) Entry() Entry {
	return Entry{Key: it.cur.key, ID: it.cur.id, Mask: it.masks()[it.j]}
}

// Next advances to the next entry in (key, mask) order.
func (it *Iter) Next() {
	if len(it.stack) == 0 {
		return
	}
	if it.j++; it.j == len(it.masks()) {
		it.NextConstraint()
	}
}
