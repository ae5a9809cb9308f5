package store

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/subspace"
)

// ConstraintID is a dense interned identifier for one constraint key. All
// stores hand out ids through an Interner, so equal constraints map to
// equal ids for the lifetime of the store and cells can be addressed by
// integer instead of by variable-length key string.
type ConstraintID = uint32

// CellRef addresses one µ(C,M) cell as a packed integer: the interned
// constraint id in the high 32 bits, the measure-subspace mask in the low
// 32. Map lookups on a CellRef hash eight bytes instead of a 4·d-byte
// string, which is what keeps the discovery hot loop allocation-free.
type CellRef = uint64

// Ref packs a constraint id and a subspace mask into a CellRef. The mask
// must be a subset of the store's measure space (mask < 2^Width) — the
// in-memory stores index subspaces densely on that invariant.
func Ref(c ConstraintID, m subspace.Mask) CellRef {
	return CellRef(c)<<32 | CellRef(m)
}

// RefParts unpacks a CellRef.
func RefParts(r CellRef) (ConstraintID, subspace.Mask) {
	return ConstraintID(r >> 32), subspace.Mask(r)
}

// CellKey is the logical (decoded) identity of a cell: the canonical
// constraint key plus the subspace mask. Walk and the invariant checkers
// speak it; the hot path speaks CellRef.
type CellKey struct {
	C lattice.Key
	M subspace.Mask
}

func (k CellKey) String() string {
	return fmt.Sprintf("µ(%x, %b)", string(k.C), k.M)
}

// Interner hash-conses constraint keys to dense ids. The forward map is
// keyed by the raw key bytes; the reverse slice decodes ids back to keys
// for snapshots, file naming and diagnostics. It is safe for concurrent
// use: engines reach it under their owner's lock today (a Pool's queries
// resolve ids beside each other under a shard's read lock, never beside
// a write), and the table keeps its own lock so that safety does not rest
// on the caller. The steady-state path takes only a read lock and
// performs no allocation.
type Interner struct {
	mu   sync.RWMutex
	ids  map[string]ConstraintID
	keys []lattice.Key
}

// NewInterner creates an empty intern table.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]ConstraintID)}
}

// InternTuple returns the id of the constraint of C^t selected by mask,
// building the key in stack scratch so a cell visit allocates nothing
// once the constraint has been seen.
func (in *Interner) InternTuple(t *relation.Tuple, mask lattice.Mask) ConstraintID {
	var scratch [lattice.KeyScratch]byte
	buf := lattice.AppendKeyFromTuple(scratch[:0], t, mask)
	in.mu.RLock()
	id, ok := in.ids[string(buf)]
	in.mu.RUnlock()
	if ok {
		return id
	}
	return in.internSlow(buf)
}

// Intern returns (assigning if needed) the id of a canonical key. A key seen
// for the first time is kept as handed in, not copied: a snapshot restore
// interns slices of one string that holds all its keys.
func (in *Interner) Intern(k lattice.Key) ConstraintID {
	in.mu.RLock()
	id, ok := in.ids[string(k)]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[string(k)]; ok { // raced another interner
		return id
	}
	return in.add(k)
}

// grow makes room for n more keys; only an empty table's map can be sized.
func (in *Interner) grow(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.ids) == 0 {
		in.ids = make(map[string]ConstraintID, n)
	}
	in.keys = slices.Grow(in.keys, n)
}

// Lookup returns the id of k without assigning one; ok is false when the
// constraint has never been interned (hence no cell can exist for it), so
// probing absent constraints does not grow the table.
func (in *Interner) Lookup(k lattice.Key) (ConstraintID, bool) {
	in.mu.RLock()
	id, ok := in.ids[string(k)]
	in.mu.RUnlock()
	return id, ok
}

// LookupTuple is InternTuple without the assignment: ok is false when the
// constraint of C^t selected by mask has never been interned. A retraction
// and the skyline sizers probe with it, so undoing what was never counted,
// or sizing a constraint that has no cell, grows nothing.
func (in *Interner) LookupTuple(t *relation.Tuple, mask lattice.Mask) (ConstraintID, bool) {
	var scratch [lattice.KeyScratch]byte
	buf := lattice.AppendKeyFromTuple(scratch[:0], t, mask)
	in.mu.RLock()
	id, ok := in.ids[string(buf)]
	in.mu.RUnlock()
	return id, ok
}

func (in *Interner) internSlow(buf []byte) ConstraintID {
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[string(buf)]; ok { // raced another interner
		return id
	}
	return in.add(lattice.Key(buf)) // the one allocation: first sight of a constraint
}

// add assigns the next id to k; the caller holds the write lock.
func (in *Interner) add(k lattice.Key) ConstraintID {
	id := ConstraintID(len(in.keys))
	in.keys = append(in.keys, k)
	in.ids[string(k)] = id
	return id
}

// Key decodes an id back to its canonical constraint key.
func (in *Interner) Key(id ConstraintID) lattice.Key {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.keys[id]
}

// Len returns the number of interned constraints.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.keys)
}

// Cell is one µ(C,M) cell: the ids of its member tuples, in insertion
// order, and nothing else. An id is 32 bits wide (relation.MaxTuples is the
// checked limit). The oriented measure vectors are not stored: the
// algorithms keep one vector per tuple in an arena indexed by id, and a
// skyline scan reads a member's row there. Up to two members sit inline in
// the value, so a one-member cell — most of them — owns no heap object and
// neither does its first append. A cell Memory hands out with two or more
// is a range of its id arena with room for one more member. Dimension
// values are resolved through the algorithms' tuple registry on the rare
// paths that need them.
type Cell struct {
	n    int       // member count
	two  [2]uint32 // the members while many is nil
	many []uint32  // the members once in a list: an arena range, or the cell's own
}

// Len returns the number of member tuples.
func (c Cell) Len() int { return c.n }

// IDs returns the member ids in insertion order. The slice aliases the
// cell: it is valid until the cell is next mutated, and must not be
// written through.
func (c *Cell) IDs() []uint32 {
	if c.many != nil {
		return c.many
	}
	return c.two[:c.n]
}

// ID returns the i-th member's tuple id.
func (c Cell) ID(i int) int64 { return int64(c.IDs()[i]) }

// Append adds a member. An arena range takes it in place while it has room
// (it always has for one); an inline cell takes two, and its third member
// moves all three to a list of its own, which Save copies into the arena.
func (c *Cell) Append(id int64) {
	switch {
	case c.many != nil:
		c.many = append(c.many, uint32(id))
	case c.n < 2:
		c.two[c.n] = uint32(id)
	default:
		c.many = append(make([]uint32, 0, 4), c.two[0], c.two[1], uint32(id))
	}
	c.n++
}

// RemoveSorted deletes the members at the given ascending indices in one
// order-preserving compaction pass: a cell scan collects every member the
// candidate dominates and removes them together. A list stays a list,
// however few it keeps.
func (c *Cell) RemoveSorted(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	ids := c.IDs()
	dst, k := idxs[0], 0
	for i := idxs[0]; i < len(ids); i++ {
		if k < len(idxs) && idxs[k] == i {
			k++
			continue
		}
		ids[dst] = ids[i]
		dst++
	}
	if c.many != nil {
		c.many = c.many[:dst]
	}
	c.n = dst
}

// RemoveID deletes the member with the given tuple id (order-preserving),
// reporting whether a removal happened.
func (c *Cell) RemoveID(id int64) bool {
	for i, m := range c.IDs() {
		if int64(m) == id {
			c.RemoveSorted([]int{i})
			return true
		}
	}
	return false
}

// ContainsID reports whether the cell holds the tuple.
func (c Cell) ContainsID(id int64) bool {
	for _, m := range c.IDs() {
		if int64(m) == id {
			return true
		}
	}
	return false
}

// IDList returns a copy of the member tuple ids in insertion order
// (snapshots, query results, tests; not a hot path).
func (c Cell) IDList() []int64 {
	out := make([]int64, c.n)
	for i, m := range c.IDs() {
		out[i] = int64(m)
	}
	return out
}

// Stats reports store-level counters used by the paper's Figures 10 and 12:
// the number of tuple entries currently stored (Fig 10b) and file I/O
// operation counts (the cost driver of §VI-C).
type Stats struct {
	// StoredTuples is the current total number of tuple entries across all
	// cells (a tuple stored in k cells counts k times).
	StoredTuples int64
	// Cells is the current number of non-empty cells.
	Cells int64
	// Reads counts cell loads that had to fetch a non-empty cell
	// (file reads for the file store). Discovery's loads are the paper's
	// §VI I/O count; Peek, the read path's, counts none.
	Reads int64
	// Writes counts cell saves that persisted a change (file writes).
	Writes int64
}

// Store is the µ(C,M) abstraction. Cells are addressed by CellRef; the
// constraint half of a ref comes from the store's Interner, which is part
// of the store because id assignment must be coherent with cell
// addressing for the store's whole lifetime.
type Store interface {
	// Width returns the schema's measure count: cells are addressed by
	// subspace masks below 2^Width.
	Width() int
	// Interner returns the store's constraint intern table.
	Interner() *Interner
	// Load returns cell ref. The returned cell must be treated as owned by
	// the caller until the matching Save; the caller may mutate it in
	// place (append/remove) and must call Save with the final value if it
	// changed anything.
	Load(ref CellRef) Cell
	// Save persists the (possibly mutated) cell value.
	Save(ref CellRef, c Cell)
	// Keep names, ascending, the subspace masks the discoverer over the
	// store keeps cells in. It is called once, before the first Install.
	Keep(masks []subspace.Mask)
	// Install gives constraint c, which has no cell, a cell of tuple id
	// alone per kept mask; counters and observer move as per-cell Saves.
	Install(c ConstraintID, id uint32)
	// Stats returns a snapshot of the store counters.
	Stats() Stats
	// Close releases resources (files); the store must not be used after.
	Close() error
}

// denseMaxWidth bounds the measure width for which a block is 2^width slots
// indexed by subspace mask (128 KiB at width 14). Wider schemas keep only
// the live slots of a constraint, sorted.
const denseMaxWidth = 14

// slot is a cell as Memory keeps it: eight bytes and no pointer, so a block
// of slots is memory the collector never scans.
type slot struct {
	n   uint32 // member count; 0 = no cell
	ref uint32 // n == 1: the member itself; n >= 2: its range's offset in Memory.pages
}

// block holds every cell of one constraint, in one of two layouts chosen by
// the store's width. Dense: cells is 2^width slots indexed by subspace mask
// and masks stays nil. Sparse: cells holds the live slots only, ascending by
// subspace mask, and masks[i] is the mask of cells[i]. Either way the block
// is the one record of which of the constraint's cells are live. A
// one-member block has no slots: its cells are the kept masks', each
// holding the tuple one, until a Save changes one of them.
type block struct {
	cells []slot
	masks []uint32
	live  int32  // non-empty cells; 0 = the constraint has no cell and no storage
	one   uint32 // a one-member block's tuple
}

// single reports whether b is a one-member block.
func (b *block) single() bool { return b.cells == nil && b.live > 0 }

// Memory is the in-memory store. Each live constraint owns one block, so
// resolving (constraint id, subspace mask) is two array lookups with no
// hashing in the dense layout — the interner's ids are dense by construction
// and subspace masks are small — and an array lookup plus a binary search of
// a short list in the sparse one. A one-member cell — four in five of them —
// is its slot; the members of the others live in an id arena of fixed-size,
// pointer-free pages that never move. A block comes with its constraint's
// first cell and is released when its last cell empties, or is one-member:
// a tuple's id and no slots.
type Memory struct {
	in    *Interner
	width int

	blocks []block  // by constraint id
	kept   []uint32 // the masks a one-member block covers, ascending (Keep)

	// pages hold the members of every cell of n >= 2 in a range of
	// 1<<class(n) ids at an offset below top; the range's page is
	// offset>>pageBits, and pages never move. free[k] heads class k's
	// vacated ranges, chained through their first word (offset+1; 0 ends a
	// chain).
	pages [][]uint32
	top   int
	free  [33]uint32

	// loadedAt is 1 + the index, in loadedRef's block, of the slot a Load
	// has resolved to a non-empty cell while no Save has run since, and 0
	// when there is none: an index, so that a Load writes no pointer.
	loadedRef CellRef
	loadedAt  int

	stats Stats

	// observer, when set, is called when a constraint gains its first cell
	// (live=true: Save, Install or RestoreConstraint has just allocated its
	// block) and when it loses its last (live=false: Save has just released
	// the block). Cells coming and going under a constraint that keeps one
	// do not fire: which cells those are is read off the block (Masks).
	observer func(c ConstraintID, live bool)
}

// NewMemory creates an empty in-memory store for a schema with the given
// number of measures (cells are addressed by subspace masks below 2^width).
func NewMemory(width int) *Memory {
	return &Memory{in: NewInterner(), width: width}
}

// SetObserver installs the constraint lifecycle callback (see the observer
// field). The constraint is named by its interned id, no key decoded on the
// observer's behalf; one that wants the key bytes asks the Interner. The
// observer runs synchronously inside the store call under whatever lock the
// caller holds; it must not call back into the store's cells.
func (m *Memory) SetObserver(fn func(c ConstraintID, live bool)) {
	m.observer = fn
}

// Width implements Store.
func (m *Memory) Width() int { return m.width }

// dense reports which layout the store's blocks have.
func (m *Memory) dense() bool { return m.width <= denseMaxWidth }

// Interner implements Store.
func (m *Memory) Interner() *Interner { return m.in }

// at resolves a ref to its cell's slot, and to 1 + the slot's index in the
// block's cells if the block has that slot (not one-member, and in the
// sparse layout a live one), else 0.
func (m *Memory) at(ref CellRef) (slot, int) {
	cid, mask := RefParts(ref)
	if int(cid) >= len(m.blocks) || m.blocks[cid].live == 0 {
		return slot{}, 0
	}
	b := &m.blocks[cid]
	switch {
	case b.single():
		if _, kept := slices.BinarySearch(m.kept, mask); kept {
			return slot{n: 1, ref: b.one}, 0
		}
		return slot{}, 0
	case m.dense():
		return b.cells[mask], int(mask) + 1
	}
	if i, ok := slices.BinarySearch(b.masks, mask); ok {
		return b.cells[i], i + 1
	}
	return slot{}, 0
}

// spread gives one-member block b its slots, one per kept mask.
func (m *Memory) spread(b *block) {
	if m.dense() {
		b.cells = make([]slot, 1<<uint(m.width))
	} else {
		b.cells, b.masks = make([]slot, len(m.kept)), slices.Clone(m.kept)
	}
	for i, mask := range m.kept {
		if m.dense() {
			i = int(mask)
		}
		b.cells[i] = slot{n: 1, ref: b.one}
	}
}

// blockOf returns constraint c's block, growing the table to reach it.
func (m *Memory) blockOf(c ConstraintID) *block {
	for int(c) >= len(m.blocks) {
		m.blocks = append(m.blocks, block{})
	}
	return &m.blocks[c]
}

// bind stores s as the slot of ref; was is the slot it replaces, and the
// two are not both empty. The block comes with a constraint's first cell
// and goes with its last, and the observer hears of exactly those two.
func (m *Memory) bind(ref CellRef, was, s slot) {
	cid, mask := RefParts(ref)
	b := m.blockOf(cid)
	switch {
	case was.n == 0:
		if b.live++; b.live == 1 {
			if m.dense() {
				b.cells = make([]slot, 1<<uint(m.width))
			}
			if m.observer != nil {
				m.observer(cid, true)
			}
		}
	case s.n == 0:
		if b.live--; b.live == 0 {
			*b = block{}
			if m.observer != nil {
				m.observer(cid, false)
			}
			return
		}
	}
	if m.dense() {
		b.cells[mask] = s
		return
	}
	switch i, found := slices.BinarySearch(b.masks, mask); {
	case !found:
		b.masks = slices.Insert(b.masks, i, mask)
		b.cells = slices.Insert(b.cells, i, s)
	case s.n == 0:
		b.masks = slices.Delete(b.masks, i, i+1)
		b.cells = slices.Delete(b.cells, i, i+1)
	default:
		b.cells[i] = s
	}
}

// Masks appends the subspace masks of constraint c's live cells to buf,
// ascending, and returns it: the block read in the order the query surface
// pages through a constraint. Like Peek it touches no counter.
func (m *Memory) Masks(c ConstraintID, buf []uint32) []uint32 {
	if int(c) >= len(m.blocks) {
		return buf
	}
	b := &m.blocks[c]
	switch {
	case b.single():
		return append(buf, m.kept...)
	case !m.dense():
		return append(buf, b.masks...)
	}
	buf = slices.Grow(buf, int(b.live))
	for mask, s := range b.cells {
		if s.n > 0 {
			buf = append(buf, uint32(mask))
		}
	}
	return buf
}

// class is the size class of a list of n >= 2 members: a range of 1<<class
// ids, the power of two above n, so one more member always fits.
func class(n uint32) int { return bits.Len32(n) }

// pageBits sets the id pages' size, 2^pageBits ids (16 KiB). It was chosen
// by the daemon's peak RSS on the benchmark's single-row workloads, where
// 2^12-id pages read lowest of 2^12, 2^14 and 2^16. Against an arena grown
// by doubling, over ten pairs a workload on a 2-core machine, the median
// peak RSS moved −2.0 % (wide-single), −0.8 % (narrow-single), −3.5 %
// (narrow-batch-mixed) and +0.3 % (restart-follow, inside its 1.2 % spread).
const pageBits = 12

// alloc returns the offset of a range of class k: a vacated one if the class
// has one, else a new one at top. A range never straddles two pages: one
// that does not fit the current page's tail starts a new page, and the tail
// goes to the free lists. A range larger than a page takes a run of new
// pages backed by one allocation.
func (m *Memory) alloc(k int) uint32 {
	if head := m.free[k]; head != 0 {
		m.free[k] = *m.word(head - 1)
		return head - 1
	}
	size := 1 << k
	if at := m.top & (1<<pageBits - 1); at != 0 && at+size > 1<<pageBits {
		m.freeTail(1<<pageBits - at)
	}
	if m.top+size > math.MaxUint32 {
		panic("store: id arena full")
	}
	if m.top&(1<<pageBits-1) == 0 {
		run := make([]uint32, max(size, 1<<pageBits))
		for p := 0; p < len(run); p += 1 << pageBits {
			m.pages = append(m.pages, run[p:])
		}
	}
	off := m.top
	m.top += size
	return uint32(off)
}

// freeTail puts the last n ids of the current page on the free lists, one
// range per bit of n, and moves top to the next page. Ranges are at least
// four ids, so n is a sum of the classes' sizes.
func (m *Memory) freeTail(n int) {
	for n > 0 {
		k := bits.Len(uint(n)) - 1
		m.release(uint32(m.top), k)
		m.top += 1 << k
		n -= 1 << k
	}
}

// word returns the id at offset off.
func (m *Memory) word(off uint32) *uint32 {
	return &m.pages[off>>pageBits][off&(1<<pageBits-1)]
}

// ids returns the n ids from offset off, with room up to the range's end,
// the 1<<k ids of class k.
func (m *Memory) ids(off, n uint32, k int) []uint32 {
	at := off & (1<<pageBits - 1)
	return m.pages[off>>pageBits][at : at+n : at+1<<k]
}

// release puts the range at off, of class k, on its class's free list.
func (m *Memory) release(off uint32, k int) {
	*m.word(off) = m.free[k]
	m.free[k] = off + 1
}

// cell rebuilds the handed-out form of a slot. A list is the cell's range,
// not a copy, capped at the range's end: that is what lets the algorithms
// edit a cell in place between Load and Save.
func (m *Memory) cell(s slot) Cell {
	if s.n >= 2 {
		return Cell{n: int(s.n), many: m.ids(s.ref, s.n, class(s.n))}
	}
	return Cell{n: int(s.n), two: [2]uint32{s.ref}}
}

// Load implements Store. It remembers the slot it resolved for the
// matching Save.
func (m *Memory) Load(ref CellRef) Cell {
	s, i := m.at(ref)
	if s.n == 0 {
		m.loadedAt = 0
		return Cell{}
	}
	m.stats.Reads++
	m.loadedRef, m.loadedAt = ref, i
	return m.cell(s)
}

// Peek returns the cell at ref without bumping the Reads counter. Query
// paths use it: they run under a shared (read) lock where a counter write
// would race, and a follower answering reads must not drift its store
// counters away from the leader's (snapshot byte-identity).
func (m *Memory) Peek(ref CellRef) Cell {
	s, _ := m.at(ref)
	return m.cell(s)
}

// Save implements Store. The Save that follows a cell's Load writes the
// slot Load resolved; after a Save of another cell in between (TopDown
// re-homes evictees there) the slot is looked up again. Members are copied
// into a range only when their count changed class or the cell no longer
// points at its range (it outgrew it, and Append moved the list). A Save
// that changes a cell of a one-member block gives the block its slots first.
func (m *Memory) Save(ref CellRef, c Cell) {
	cid, _ := RefParts(ref)
	i := m.loadedAt
	m.loadedAt = 0
	var was slot
	if i > 0 && m.loadedRef == ref {
		was = m.blocks[cid].cells[i-1]
	} else {
		was, i = m.at(ref)
	}
	if was.n == 0 && c.n == 0 {
		return // empty → empty: nothing happened
	}
	ids := c.IDs()
	if i == 0 && int(cid) < len(m.blocks) && m.blocks[cid].single() {
		if was.n == 1 && c.n == 1 && ids[0] == was.ref {
			m.stats.Writes++
			return // saved unchanged
		}
		m.spread(&m.blocks[cid])
		was, i = m.at(ref)
	}
	s := slot{n: uint32(c.n)}
	moved := was.n >= 2 && (s.n < 2 || class(s.n) != class(was.n))
	switch {
	case s.n == 1:
		s.ref = ids[0]
	case s.n >= 2 && (was.n < 2 || moved):
		s.ref = m.alloc(class(s.n))
	case s.n >= 2:
		s.ref = was.ref
	}
	if s.n >= 2 {
		if dst := m.ids(s.ref, s.n, class(s.n)); &dst[0] != &ids[0] {
			copy(dst, ids)
		}
	}
	if moved {
		m.release(was.ref, class(was.n))
	}
	if was.n > 0 && s.n > 0 {
		m.blocks[cid].cells[i-1] = s
	} else {
		m.bind(ref, was, s)
	}
	m.stats.StoredTuples += int64(c.n) - int64(was.n)
	m.stats.Writes++
	switch {
	case was.n == 0:
		m.stats.Cells++
	case c.n == 0:
		m.stats.Cells--
	}
}

// Keep implements Store; one-member blocks rely on the set never changing.
func (m *Memory) Keep(masks []subspace.Mask) {
	if m.kept != nil && !slices.Equal(m.kept, masks) {
		panic(fmt.Sprintf("store: kept masks %v, already %v", masks, m.kept))
	}
	m.kept = slices.Clone(masks)
}

// Install implements Store: constraint c becomes a one-member block.
func (m *Memory) Install(c ConstraintID, id uint32) {
	b := m.blockOf(c)
	if len(m.kept) == 0 || b.live != 0 {
		panic(fmt.Sprintf("store: Install of constraint %d over %d kept masks and %d cells", c, len(m.kept), b.live))
	}
	*b = block{live: int32(len(m.kept)), one: id}
	k := int64(len(m.kept))
	m.stats.Writes += k
	m.stats.Cells += k
	m.stats.StoredTuples += k
	if m.observer != nil {
		m.observer(c, true)
	}
}

// Grow makes room for that many more constraints with cells, so a restore
// that knows their number fills the store's tables without growing them by
// doubling.
func (m *Memory) Grow(constraints int) {
	m.in.grow(constraints)
	m.blocks = slices.Grow(m.blocks, constraints)
}

// RestoreConstraint installs every cell of one constraint at once: snapshot
// restore's entry, one Intern, one block and one observer call where
// replaying the cells through Save would probe and bind per cell.
// masks are the subspace masks of the cells, ascending and at least one;
// sizes[i] is cell i's member count, at least one; ids holds the members of
// the cells one after another. It returns the id the constraint is interned
// under and the number of ids the cells took. The counters move as if each
// cell had been saved once. Cells that are exactly the kept masks, each
// holding one and the same tuple, become a one-member block. A constraint
// that already has a cell, or a mask outside the store's width, is refused
// with no cell changed.
func (m *Memory) RestoreConstraint(key lattice.Key, masks, sizes, ids []uint32) (ConstraintID, int, error) {
	if len(masks) == 0 {
		return 0, 0, fmt.Errorf("store: constraint %x restored without a cell", string(key))
	}
	if top := masks[len(masks)-1]; uint64(top) >= 1<<uint(m.width) {
		return 0, 0, fmt.Errorf("store: subspace mask %d in a store of %d measures", top, m.width)
	}
	cid := m.in.Intern(key)
	m.loadedAt = 0
	b := m.blockOf(cid)
	if b.live != 0 {
		return 0, 0, fmt.Errorf("store: constraint %x already has cells", string(key))
	}
	// Exactly the kept masks, each holding the same one tuple: one member.
	one, n, used := slices.Equal(masks, m.kept), len(masks), 0
	for i := 0; one && i < n; i++ {
		one = sizes[i] == 1 && ids[i] == ids[0]
	}
	switch {
	case one:
		b.one, used, masks = ids[0], n, nil
	case m.dense():
		b.cells = make([]slot, 1<<uint(m.width))
	default:
		b.cells = make([]slot, n)
		b.masks = slices.Clone(masks)
	}
	for i, mask := range masks {
		s := slot{n: sizes[i], ref: ids[used]}
		if s.n >= 2 {
			s.ref = m.alloc(class(s.n))
			copy(m.ids(s.ref, s.n, class(s.n)), ids[used:])
		}
		used += int(s.n)
		if m.dense() {
			b.cells[mask] = s
		} else {
			b.cells[i] = s
		}
	}
	b.live = int32(n)
	m.stats.Cells += int64(n)
	m.stats.Writes += int64(n)
	m.stats.StoredTuples += int64(used)
	if m.observer != nil {
		m.observer(cid, true)
	}
	return cid, used, nil
}

// LoadKey is Load addressed by logical key (invariant checkers); absent
// constraints read as empty without growing the intern table.
func (m *Memory) LoadKey(k CellKey) Cell {
	id, ok := m.in.Lookup(k.C)
	if !ok {
		return Cell{}
	}
	return m.Load(Ref(id, k.M))
}

// Stats implements Store.
func (m *Memory) Stats() Stats { return m.stats }

// RestoreStats overwrites the counters after a snapshot restore has
// replayed the cells, so the store reports the cumulative I/O of the
// original run rather than the replay.
func (m *Memory) RestoreStats(s Stats) { m.stats = s }

// Close implements Store.
func (m *Memory) Close() error { return nil }

// Live returns the number of cells constraint c has.
func (m *Memory) Live(c ConstraintID) int {
	if int(c) >= len(m.blocks) {
		return 0
	}
	return int(m.blocks[c].live)
}

// EachCell visits the cells of constraint c in ascending subspace-mask
// order: the block as a snapshot writes it. The cell is the live value —
// callers must not mutate it — and like Peek the visit touches no counter.
func (m *Memory) EachCell(c ConstraintID, fn func(mask subspace.Mask, cell Cell)) {
	if int(c) >= len(m.blocks) {
		return
	}
	b := &m.blocks[c]
	if b.single() {
		for _, mask := range m.kept {
			fn(mask, Cell{n: 1, two: [2]uint32{b.one}})
		}
		return
	}
	for i, s := range b.cells {
		if s.n == 0 {
			continue
		}
		mask := subspace.Mask(i)
		if !m.dense() {
			mask = b.masks[i]
		}
		fn(mask, m.cell(s))
	}
}

// Walk visits every non-empty cell in logical-key form, in ascending
// (constraint id, subspace mask) order — the order a snapshot writes them
// in; used by invariant checkers.
func (m *Memory) Walk(fn func(CellKey, Cell)) {
	for cid := range m.blocks {
		if m.blocks[cid].live == 0 {
			continue
		}
		key := m.in.Key(ConstraintID(cid))
		m.EachCell(ConstraintID(cid), func(mask subspace.Mask, c Cell) { fn(CellKey{C: key, M: mask}, c) })
	}
}

var _ Store = (*Memory)(nil)
