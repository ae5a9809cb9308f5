package store

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/relation"
	"repro/internal/subspace"
)

// File is the file-backed µ(C,M) store of the paper's §VI-C: "each
// non-empty µC,M is stored as a binary file. Since the size of µC,M for any
// particular constraint-measure pair is small, all tuples in the
// corresponding file are read into a memory buffer when the pair is
// visited. Insertion and deletion are then performed on the buffer. When an
// algorithm finishes processing the pair, the file is overwritten by the
// buffer's content."
//
// Files are named by the hex of the constraint key plus the subspace mask
// and sharded into 256 subdirectories by a simple byte fold, keeping
// directory sizes manageable for large lattices. A cell file is the cell:
// its member tuple ids in insertion order, four little-endian bytes each.
type File struct {
	dir   string
	in    *Interner
	width int
	stats Stats
	// cellSizes tracks the entry count of every non-empty cell so that
	// StoredTuples/Cells stay O(1); it mirrors what is on disk.
	cellSizes map[CellRef]int
	enc       []byte    // reused encode buffer
	kept      []uint32  // the masks Install fills (Keep)
	made      [256]bool // shard directories created so far
}

// NewFile creates (or reuses) dir as the store root. Each shard
// subdirectory is created by the first Save into it, so a small run makes
// only the directories it writes. Any pre-existing cell files are ignored
// (the paper's experiments always start from an empty store); use a fresh
// directory per run.
func NewFile(dir string, schema *relation.Schema) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	return &File{
		dir:       dir,
		in:        NewInterner(),
		width:     schema.NumMeasures(),
		cellSizes: make(map[CellRef]int),
	}, nil
}

// idSize is the encoded byte size of one cell member.
const idSize = 4

// path names ref's cell file and the shard directory it lives in.
func (f *File) path(ref CellRef) (string, byte) {
	id, mask := RefParts(ref)
	key := f.in.Key(id)
	name := hex.EncodeToString([]byte(key)) + fmt.Sprintf("-%x.cell", mask)
	var shard byte
	for i := 0; i < len(key); i++ {
		shard ^= key[i]
	}
	shard ^= byte(mask)
	return filepath.Join(f.dir, fmt.Sprintf("%02x", shard), name), shard
}

// Width implements Store.
func (f *File) Width() int { return f.width }

// Interner implements Store.
func (f *File) Interner() *Interner { return f.in }

// Load implements Store: reads the cell file into a fresh cell.
func (f *File) Load(ref CellRef) Cell {
	n, ok := f.cellSizes[ref]
	if !ok || n == 0 {
		return Cell{}
	}
	path, _ := f.path(ref)
	buf, err := os.ReadFile(path)
	if err != nil {
		// The size index says the file exists; treat loss as corruption.
		panic(fmt.Sprintf("store: cell %x vanished: %v", ref, err))
	}
	f.stats.Reads++
	if len(buf) != n*idSize {
		panic(fmt.Sprintf("store: cell %x corrupt: %d bytes for %d members", ref, len(buf), n))
	}
	var c Cell
	for ; len(buf) > 0; buf = buf[idSize:] {
		c.Append(int64(binary.LittleEndian.Uint32(buf)))
	}
	return c
}

// Save implements Store: overwrites (or deletes) the cell file.
func (f *File) Save(ref CellRef, c Cell) {
	old := f.cellSizes[ref]
	if c.Len() == 0 && old == 0 {
		return
	}
	path, shard := f.path(ref)
	if c.Len() == 0 {
		if err := os.Remove(path); err != nil {
			panic(fmt.Sprintf("store: remove cell %x: %v", ref, err))
		}
		delete(f.cellSizes, ref)
		f.stats.Cells--
		f.stats.StoredTuples -= int64(old)
		f.stats.Writes++
		return
	}
	f.enc = f.enc[:0]
	for _, id := range c.IDs() {
		f.enc = binary.LittleEndian.AppendUint32(f.enc, id)
	}
	if !f.made[shard] {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			panic(fmt.Sprintf("store: create shard dir: %v", err))
		}
		f.made[shard] = true
	}
	if err := os.WriteFile(path, f.enc, 0o644); err != nil {
		panic(fmt.Sprintf("store: write cell %x: %v", ref, err))
	}
	if old == 0 {
		f.stats.Cells++
	}
	f.stats.StoredTuples += int64(c.Len() - old)
	f.cellSizes[ref] = c.Len()
	f.stats.Writes++
}

// Keep implements Store.
func (f *File) Keep(masks []subspace.Mask) { f.kept = slices.Clone(masks) }

// Install implements Store as one Save, one cell file, per kept mask.
func (f *File) Install(c ConstraintID, id uint32) {
	for _, mask := range f.kept {
		f.Save(Ref(c, mask), Cell{n: 1, two: [2]uint32{id}})
	}
}

// Stats implements Store.
func (f *File) Stats() Stats { return f.stats }

// Close implements Store. The cell files are left on disk (they are the
// persisted state); callers remove the directory when done.
func (f *File) Close() error { return nil }

var _ Store = (*File)(nil)
