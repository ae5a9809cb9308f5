package store

import (
	"fmt"
	"math"
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
// constraint key plus the subspace mask. It appears on the snapshot/Walk
// boundary — the persisted form stays layout-independent — while the hot
// path speaks CellRef.
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

// Intern returns (assigning if needed) the id of a canonical key.
func (in *Interner) Intern(k lattice.Key) ConstraintID {
	in.mu.RLock()
	id, ok := in.ids[string(k)]
	in.mu.RUnlock()
	if ok {
		return id
	}
	return in.internSlow([]byte(k))
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

func (in *Interner) internSlow(buf []byte) ConstraintID {
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[string(buf)]; ok { // raced another interner
		return id
	}
	k := lattice.Key(buf) // the one allocation: first sight of a constraint
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

// Cell is one µ(C,M) cell as a single contiguous row store: each member
// tuple occupies a (1+W)-wide row in Rows — its id (stored bit-exactly as
// a float64 payload, never operated on arithmetically) followed by its
// W-wide oriented measure vector (larger always better). The skyline scan
// streams over one flat float64 array — contiguous cache lines — instead
// of chasing tuple pointers, and a cell's whole lifetime costs a single
// heap object. Dimension values are NOT stored; algorithms resolve them
// through their tuple registry on the rare paths that need them.
type Cell struct {
	// W is the measure-vector width (the schema's measure count); the row
	// stride is W+1.
	W int
	// Rows holds the packed member rows: [idBits, v_0, …, v_{W-1}]*.
	Rows []float64
}

// Stride returns the per-member row width, 1+W.
func (c Cell) Stride() int { return c.W + 1 }

// Len returns the number of member tuples.
func (c Cell) Len() int {
	if c.W == 0 {
		return 0
	}
	return len(c.Rows) / (c.W + 1)
}

// ID returns the i-th member's tuple id.
func (c Cell) ID(i int) int64 {
	return int64(math.Float64bits(c.Rows[i*(c.W+1)]))
}

// Row returns the i-th member's oriented vector.
func (c Cell) Row(i int) []float64 {
	s := i*(c.W+1) + 1
	return c.Rows[s : s+c.W]
}

// Append adds a member; vec must be W wide. A first append allocates
// exactly one row (measured cell populations average ~1 member); later
// appends double, so a growing cell's lifetime costs O(log n) heap
// objects instead of one per insertion.
func (c *Cell) Append(id int64, vec []float64) {
	need := 1 + c.W
	if cap(c.Rows)-len(c.Rows) < need {
		newCap := 2 * cap(c.Rows)
		if newCap < len(c.Rows)+need {
			newCap = len(c.Rows) + need
		}
		grown := make([]float64, len(c.Rows), newCap)
		copy(grown, c.Rows)
		c.Rows = grown
	}
	c.Rows = append(c.Rows, math.Float64frombits(uint64(id)))
	c.Rows = append(c.Rows, vec...)
}

// RemoveAt deletes the i-th member preserving order — the single removal
// path every algorithm shares.
func (c *Cell) RemoveAt(i int) {
	stride := c.W + 1
	copy(c.Rows[i*stride:], c.Rows[(i+1)*stride:])
	c.Rows = c.Rows[:len(c.Rows)-stride]
}

// RemoveSorted deletes the members at the given ascending indices in one
// order-preserving compaction pass. The batched dominance scan collects
// every row the candidate dominates and removes them together: one O(n)
// memmove instead of one per removal (RemoveAt restarts its copy at every
// call, so r removals cost O(r·n) there).
func (c *Cell) RemoveSorted(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	stride := c.W + 1
	n := c.Len()
	dst, k := idxs[0], 0
	for i := idxs[0]; i < n; i++ {
		if k < len(idxs) && idxs[k] == i {
			k++
			continue
		}
		copy(c.Rows[dst*stride:(dst+1)*stride], c.Rows[i*stride:(i+1)*stride])
		dst++
	}
	c.Rows = c.Rows[:dst*stride]
}

// RemoveID deletes the member with the given tuple id (order-preserving),
// reporting whether a removal happened.
func (c *Cell) RemoveID(id int64) bool {
	for i, n := 0, c.Len(); i < n; i++ {
		if c.ID(i) == id {
			c.RemoveAt(i)
			return true
		}
	}
	return false
}

// ContainsID reports whether the cell holds the tuple.
func (c Cell) ContainsID(id int64) bool {
	for i, n := 0, c.Len(); i < n; i++ {
		if c.ID(i) == id {
			return true
		}
	}
	return false
}

// IDList returns the member tuple ids in insertion order (snapshot and
// test support; not a hot path).
func (c Cell) IDList() []int64 {
	out := make([]int64, c.Len())
	for i := range out {
		out[i] = c.ID(i)
	}
	return out
}

// Clone returns a deep copy (snapshot/test support; stores hand out live
// slices).
func (c Cell) Clone() Cell {
	return Cell{W: c.W, Rows: append([]float64(nil), c.Rows...)}
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
	// (file reads for the file store).
	Reads int64
	// Writes counts cell saves that persisted a change (file writes).
	Writes int64
}

// Store is the µ(C,M) abstraction. Cells are addressed by CellRef; the
// constraint half of a ref comes from the store's Interner, which is part
// of the store because id assignment must be coherent with cell
// addressing for the store's whole lifetime.
type Store interface {
	// Width returns the cells' vector width (the schema's measure count).
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

// denseMaxWidth bounds the measure width for which Memory indexes cells
// by dense per-constraint subspace arrays (2^width int32 slots per active
// constraint — 64 KiB at width 14). Wider schemas fall back to a map.
const denseMaxWidth = 14

// Memory is the in-memory store. Cells live in append-only pages; the
// (constraint id, subspace mask) → cell resolution is a dense
// two-dimensional array lookup — slots[cid][mask] — with no hashing at
// all: the interner's ids are dense by construction and subspace masks
// are small, so the index is a few MiB even at millions of cells and
// stays cache-resident where a cell map would thrash. Saving a mutated
// existing cell writes its slot directly. Schemas wider than
// denseMaxWidth measures use a map index instead (the dense form would
// cost 4·2^m bytes per constraint).
type Memory struct {
	in    *Interner
	width int

	slots [][]int32         // dense index: per-cid mask → slab slot (-1 absent)
	idx   map[CellRef]int32 // fallback index when width > denseMaxWidth

	pages [][]Cell // fixed slabSize pages; slot i = pages[i>>slabShift][i&slabMask]
	next  int32    // first never-used slot
	free  []int32  // slots left behind by emptied cells

	stats Stats

	// observer, when set, is called from Save at every cell lifecycle
	// transition: created=true when a cell comes into existence,
	// created=false when an emptied cell is evicted. In-place updates of a
	// live cell do not fire — the cell's (constraint, mask) identity is
	// unchanged, which is all the incremental fact index tracks.
	observer func(c ConstraintID, m subspace.Mask, created bool)
}

// slabShift sizes Memory's cell pages: 4096 cells (~130 KiB) per page.
const (
	slabShift = 12
	slabSize  = 1 << slabShift
	slabMask  = slabSize - 1
)

// NewMemory creates an empty in-memory store for vectors of the given
// width (the schema's measure count).
func NewMemory(width int) *Memory {
	m := &Memory{in: NewInterner(), width: width}
	if width > denseMaxWidth {
		m.idx = make(map[CellRef]int32)
	}
	return m
}

// SetObserver installs the cell lifecycle callback (see the observer
// field). The cell is named the way Save was handed it — the interned
// constraint id and the subspace mask, no key decoded on its behalf; an
// observer that wants the key bytes asks the Interner, when it needs them.
// The observer runs synchronously inside Save under whatever lock the
// caller holds; it must not call back into the store's cells.
func (m *Memory) SetObserver(fn func(c ConstraintID, m subspace.Mask, created bool)) {
	m.observer = fn
}

// Width implements Store.
func (m *Memory) Width() int { return m.width }

// Interner implements Store.
func (m *Memory) Interner() *Interner { return m.in }

func (m *Memory) cellAt(i int32) *Cell {
	return &m.pages[i>>slabShift][i&slabMask]
}

// lookup resolves a ref to its slab slot, -1 when absent.
func (m *Memory) lookup(ref CellRef) int32 {
	if m.idx != nil {
		if i, ok := m.idx[ref]; ok {
			return i
		}
		return -1
	}
	cid, mask := RefParts(ref)
	if int(cid) >= len(m.slots) {
		return -1
	}
	s := m.slots[cid]
	if s == nil {
		return -1
	}
	return s[mask]
}

// setSlot binds (or, with -1, unbinds) a ref in the index.
func (m *Memory) setSlot(ref CellRef, i int32) {
	if m.idx != nil {
		if i < 0 {
			delete(m.idx, ref)
		} else {
			m.idx[ref] = i
		}
		return
	}
	cid, mask := RefParts(ref)
	for int(cid) >= len(m.slots) {
		m.slots = append(m.slots, nil)
	}
	s := m.slots[cid]
	if s == nil {
		if i < 0 {
			return
		}
		s = make([]int32, 1<<uint(m.width))
		for j := range s {
			s[j] = -1
		}
		m.slots[cid] = s
	}
	s[mask] = i
}

// Load implements Store.
func (m *Memory) Load(ref CellRef) Cell {
	i := m.lookup(ref)
	if i < 0 {
		return Cell{W: m.width}
	}
	m.stats.Reads++ // the index never holds empty cells
	return *m.cellAt(i)
}

// Peek returns the cell at ref without bumping the Reads counter. Query
// paths use it: they run under a shared (read) lock where a counter write
// would race, and a follower answering reads must not drift its store
// counters away from the leader's (snapshot byte-identity).
func (m *Memory) Peek(ref CellRef) Cell {
	i := m.lookup(ref)
	if i < 0 {
		return Cell{W: m.width}
	}
	return *m.cellAt(i)
}

// Save implements Store.
func (m *Memory) Save(ref CellRef, c Cell) {
	i := m.lookup(ref)
	switch {
	case len(c.Rows) == 0 && i >= 0:
		s := m.cellAt(i)
		m.stats.StoredTuples -= int64(s.Len())
		*s = Cell{}
		m.free = append(m.free, i)
		m.setSlot(ref, -1)
		m.stats.Cells--
		if m.observer != nil {
			cid, mask := RefParts(ref)
			m.observer(cid, mask, false)
		}
	case len(c.Rows) > 0 && i < 0:
		if n := len(m.free); n > 0 {
			i = m.free[n-1]
			m.free = m.free[:n-1]
		} else {
			if int(m.next)>>slabShift == len(m.pages) {
				m.pages = append(m.pages, make([]Cell, slabSize))
			}
			i = m.next
			m.next++
		}
		*m.cellAt(i) = c
		m.setSlot(ref, i)
		m.stats.StoredTuples += int64(c.Len())
		m.stats.Cells++
		if m.observer != nil {
			cid, mask := RefParts(ref)
			m.observer(cid, mask, true)
		}
	case len(c.Rows) > 0:
		s := m.cellAt(i)
		m.stats.StoredTuples += int64(c.Len() - s.Len())
		*s = c
	default:
		return // empty → empty: nothing happened
	}
	m.stats.Writes++
}

// LoadKey is Load addressed by logical key (snapshot restore, invariant
// checkers); absent constraints read as empty without growing the intern
// table.
func (m *Memory) LoadKey(k CellKey) Cell {
	id, ok := m.in.Lookup(k.C)
	if !ok {
		return Cell{W: m.width}
	}
	return m.Load(Ref(id, k.M))
}

// SaveKey is Save addressed by logical key (snapshot restore).
func (m *Memory) SaveKey(k CellKey, c Cell) {
	m.Save(Ref(m.in.Intern(k.C), k.M), c)
}

// Stats implements Store.
func (m *Memory) Stats() Stats { return m.stats }

// RestoreStats overwrites the counters after a snapshot restore has
// replayed the cells, so the store reports the cumulative I/O of the
// original run rather than the replay.
func (m *Memory) RestoreStats(s Stats) { m.stats = s }

// Close implements Store.
func (m *Memory) Close() error { return nil }

// Walk visits every non-empty cell in logical-key form; used by snapshot
// encoding and invariant checkers. The cell is the live value — callers
// must not mutate it.
func (m *Memory) Walk(fn func(CellKey, Cell)) {
	if m.idx != nil {
		for ref, i := range m.idx {
			id, mask := RefParts(ref)
			fn(CellKey{C: m.in.Key(id), M: mask}, *m.cellAt(i))
		}
		return
	}
	for cid, s := range m.slots {
		if s == nil {
			continue
		}
		var key lattice.Key
		for mask, i := range s {
			if i < 0 {
				continue
			}
			if key == "" {
				key = m.in.Key(ConstraintID(cid))
			}
			fn(CellKey{C: key, M: subspace.Mask(mask)}, *m.cellAt(i))
		}
	}
}

var _ Store = (*Memory)(nil)
