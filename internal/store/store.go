package store

import (
	"fmt"
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
// constraint has never been interned (hence no cell can exist for it).
// Query paths (SkylineSize) use this so probing absent constraints does
// not grow the table.
func (in *Interner) Lookup(k lattice.Key) (ConstraintID, bool) {
	in.mu.RLock()
	id, ok := in.ids[string(k)]
	in.mu.RUnlock()
	return id, ok
}

// LookupConstraint is Lookup for a materialised constraint, with the key
// built in stack scratch like InternTuple's: sizing a fact's skyline
// allocates nothing.
func (in *Interner) LookupConstraint(c lattice.Constraint) (ConstraintID, bool) {
	var scratch [lattice.KeyScratch]byte
	buf := c.AppendKey(scratch[:0])
	in.mu.RLock()
	id, ok := in.ids[string(buf)]
	in.mu.RUnlock()
	return id, ok
}

// LookupTuple is InternTuple without the assignment: ok is false when the
// constraint of C^t selected by mask has never been interned. A retraction
// probes with it, so undoing what was never counted grows nothing.
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
// skyline scan reads a member's row there. Most cells hold exactly one
// tuple; that member sits inline in the value, so such a cell owns no heap
// object. Dimension values are resolved through the algorithms' tuple
// registry on the rare paths that need them.
type Cell struct {
	n    int       // member count
	one  [1]uint32 // the member when n == 1
	many []uint32  // the members when n >= 2
}

// Len returns the number of member tuples.
func (c Cell) Len() int { return c.n }

// IDs returns the member ids in insertion order. The slice aliases the
// cell: it is valid until the cell is next mutated, and must not be
// written through.
func (c *Cell) IDs() []uint32 {
	if c.n <= 1 {
		return c.one[:c.n]
	}
	return c.many
}

// ID returns the i-th member's tuple id.
func (c Cell) ID(i int) int64 { return int64(c.IDs()[i]) }

// Append adds a member. The first member is stored inline; the second
// moves both to a list with room for four (the cells that outgrow the
// inline form average three members), which doubles from there.
func (c *Cell) Append(id int64) {
	switch c.n {
	case 0:
		c.one[0] = uint32(id)
	case 1:
		c.many = append(make([]uint32, 0, 4), c.one[0], uint32(id))
	default:
		c.many = append(c.many, uint32(id))
	}
	c.n++
}

// RemoveSorted deletes the members at the given ascending indices in one
// order-preserving compaction pass: the batched dominance scan collects
// every member the candidate dominates and removes them together.
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
	if dst >= 2 {
		c.many = c.many[:dst]
	} else {
		// Back to the inline form; the list is dropped, not kept for a
		// regrowth that most cells never see.
		c.one[0], c.many = ids[0], nil
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
	ref uint32 // n == 1: the member itself; n >= 2: its list's index in Memory.lists
}

// block holds every cell of one constraint, in one of two layouts chosen by
// the store's width. Dense: cells is 2^width slots indexed by subspace mask
// and masks stays nil. Sparse: cells holds the live slots only, ascending by
// subspace mask, and masks[i] is the mask of cells[i]. Either way the block
// is the one record of which of the constraint's cells are live.
type block struct {
	cells []slot
	masks []uint32
	live  int32 // non-empty slots; 0 = the constraint has no cell and no storage
}

// Memory is the in-memory store. Each live constraint owns one block, so
// resolving (constraint id, subspace mask) is two array lookups with no
// hashing in the dense layout — the interner's ids are dense by construction
// and subspace masks are small — and an array lookup plus a binary search of
// a short list in the sparse one. A one-member cell — four in five of them —
// is its slot; the member lists of the others are kept aside in lists, the
// only part of the store that holds pointers. A block comes with its
// constraint's first cell and is released when its last cell empties.
type Memory struct {
	in    *Interner
	width int

	blocks []block // by constraint id

	lists [][]uint32 // member lists of the cells with two or more members
	spare []uint32   // vacated indices of lists
	chunk []uint32   // what RestoreConstraint cuts its member lists from

	stats Stats

	// observer, when set, is called from Save when a constraint gains its
	// first cell (live=true: its block has just been allocated) and when it
	// loses its last (live=false: the block has just been released). Cells
	// coming and going under a constraint that keeps at least one do not
	// fire: which cells those are is read off the block (Masks).
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
// observer runs synchronously inside Save under whatever lock the caller
// holds; it must not call back into the store's cells.
func (m *Memory) SetObserver(fn func(c ConstraintID, live bool)) {
	m.observer = fn
}

// Width implements Store.
func (m *Memory) Width() int { return m.width }

// dense reports which layout the store's blocks have.
func (m *Memory) dense() bool { return m.width <= denseMaxWidth }

// Interner implements Store.
func (m *Memory) Interner() *Interner { return m.in }

// lookup resolves a ref to its slot, the zero slot when there is no cell.
func (m *Memory) lookup(ref CellRef) slot {
	cid, mask := RefParts(ref)
	if int(cid) >= len(m.blocks) || m.blocks[cid].live == 0 {
		return slot{}
	}
	b := &m.blocks[cid]
	if m.dense() {
		return b.cells[mask]
	}
	if i, ok := slices.BinarySearch(b.masks, mask); ok {
		return b.cells[i]
	}
	return slot{}
}

// bind stores s as the slot of ref; was is the slot it replaces, and the
// two are not both empty. The block comes with a constraint's first cell
// and goes with its last, and the observer hears of exactly those two.
func (m *Memory) bind(ref CellRef, was, s slot) {
	cid, mask := RefParts(ref)
	for int(cid) >= len(m.blocks) {
		m.blocks = append(m.blocks, block{})
	}
	b := &m.blocks[cid]
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
	if !m.dense() {
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

// cell rebuilds the handed-out form of a slot. A list is shared with the
// store, not copied: that is what lets the algorithms edit a cell in place
// between Load and Save.
func (m *Memory) cell(s slot) Cell {
	if s.n >= 2 {
		return Cell{n: int(s.n), many: m.lists[s.ref]}
	}
	return Cell{n: int(s.n), one: [1]uint32{s.ref}}
}

// Load implements Store.
func (m *Memory) Load(ref CellRef) Cell {
	s := m.lookup(ref)
	if s.n > 0 {
		m.stats.Reads++
	}
	return m.cell(s)
}

// Peek returns the cell at ref without bumping the Reads counter. Query
// paths use it: they run under a shared (read) lock where a counter write
// would race, and a follower answering reads must not drift its store
// counters away from the leader's (snapshot byte-identity).
func (m *Memory) Peek(ref CellRef) Cell { return m.cell(m.lookup(ref)) }

// Save implements Store. Everything is resolved again from ref, so a cell
// handed out by Load stays valid across Saves of other cells (TopDown
// re-homes evictees into other cells between one cell's Load and Save).
func (m *Memory) Save(ref CellRef, c Cell) {
	was := m.lookup(ref)
	if was.n == 0 && c.n == 0 {
		return // empty → empty: nothing happened
	}
	s := slot{n: uint32(c.n)}
	switch {
	case c.n == 1:
		s.ref = c.one[0]
	case c.n >= 2 && was.n >= 2:
		s.ref = was.ref
		m.lists[s.ref] = c.many
	case c.n >= 2:
		s.ref = m.keepList(c.many)
	}
	if was.n >= 2 && c.n < 2 {
		m.lists[was.ref] = nil
		m.spare = append(m.spare, was.ref)
	}
	m.bind(ref, was, s)
	m.stats.StoredTuples += int64(c.n) - int64(was.n)
	m.stats.Writes++
	switch {
	case was.n == 0:
		m.stats.Cells++
	case c.n == 0:
		m.stats.Cells--
	}
}

// keepList files a member list under a vacated index of lists, or a new one.
func (m *Memory) keepList(ids []uint32) uint32 {
	if n := len(m.spare); n > 0 {
		i := m.spare[n-1]
		m.spare = m.spare[:n-1]
		m.lists[i] = ids
		return i
	}
	m.lists = append(m.lists, ids)
	return uint32(len(m.lists) - 1)
}

// Grow makes room for that many more constraints with cells and that many
// more cells of two or more members, so a restore that knows both does not
// grow the store's tables by doubling.
func (m *Memory) Grow(constraints, lists int) {
	m.in.grow(constraints)
	m.blocks = slices.Grow(m.blocks, constraints)
	m.lists = slices.Grow(m.lists, lists)
}

// cut copies ids into the current chunk, starting another when it is full: a
// restore's member lists cost one allocation per few thousand, not one each.
// The copy has no spare capacity, so a cell that grows moves out of the chunk.
func (m *Memory) cut(ids []uint32) []uint32 {
	if len(ids) > cap(m.chunk)-len(m.chunk) {
		m.chunk = make([]uint32, 0, max(len(ids), 1<<14))
	}
	at := len(m.chunk)
	m.chunk = append(m.chunk, ids...)
	return m.chunk[at:len(m.chunk):len(m.chunk)]
}

// RestoreConstraint installs every cell of one constraint at once: snapshot
// restore's entry, one Intern, one block and one observer call where
// replaying the cells through Save would probe and bind per cell.
// masks are the subspace masks of the cells, ascending and at least one;
// sizes[i] is cell i's member count, at least one; ids holds the members of
// the cells one after another. It returns the id the constraint is interned
// under and the number of ids the cells took. The counters move as if each
// cell had been saved once. A constraint that already has a cell, or a mask
// outside the store's width, is refused with no cell changed.
func (m *Memory) RestoreConstraint(key lattice.Key, masks, sizes, ids []uint32) (ConstraintID, int, error) {
	if len(masks) == 0 {
		return 0, 0, fmt.Errorf("store: constraint %x restored without a cell", string(key))
	}
	if top := masks[len(masks)-1]; uint64(top) >= 1<<uint(m.width) {
		return 0, 0, fmt.Errorf("store: subspace mask %d in a store of %d measures", top, m.width)
	}
	cid := m.in.Intern(key)
	for int(cid) >= len(m.blocks) {
		m.blocks = append(m.blocks, block{})
	}
	b := &m.blocks[cid]
	if b.live != 0 {
		return 0, 0, fmt.Errorf("store: constraint %x already has cells", string(key))
	}
	if m.dense() {
		b.cells = make([]slot, 1<<uint(m.width))
	} else {
		b.cells = make([]slot, len(masks))
		b.masks = slices.Clone(masks)
	}
	used := 0
	for i, mask := range masks {
		n := int(sizes[i])
		s := slot{n: uint32(n), ref: ids[used]}
		if n >= 2 {
			s.ref = m.keepList(m.cut(ids[used : used+n]))
		}
		used += n
		if m.dense() {
			b.cells[mask] = s
		} else {
			b.cells[i] = s
		}
	}
	b.live = int32(len(masks))
	m.stats.Cells += int64(len(masks))
	m.stats.Writes += int64(len(masks))
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
