package persist

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"math"
	"slices"
)

// Format v1, read only: one gob-encoded struct per engine, a cell at a time
// with its constraint key repeated. State directories written before format
// v2 restore through it, and the next checkpoint over them writes v2. The
// field names are the gob contract.
type snapshotV1 struct {
	// Magic guards against decoding foreign files.
	Magic     string
	SchemaSig string
	Algorithm string
	MaxBound  int
	MaxMeas   int

	// DictValues[d] lists dimension d's values in code order.
	DictValues [][]string
	Tuples     []tupleV1
	Deleted    []int64
	// Counts is the prominence context-counter state; nil when prominence
	// is disabled.
	Counts map[string]int64
	// Cells come in no particular order (the oldest files were written from
	// a map).
	Cells []cellV1
	// Counters decodes as zero from files older than the field (gob
	// tolerates missing fields).
	Counters SnapCounters
}

type tupleV1 struct {
	Dims []int32
	Raw  []float64
}

type cellV1 struct {
	CKey string
	M    uint32
	IDs  []int64
}

const snapshotV1Magic = "situfact-snapshot-v1"

// decodeV1 reads a format v1 file into the flat form: cells grouped by
// constraint in order of first appearance (the ids a cell-by-cell replay
// would have interned them under) and sorted by mask within one, tombstones
// sorted, the context counts of live constraints kept and the rest only
// counted. What the values mean is left to validate, like decodeV2.
func decodeV1(data []byte) (*Snapshot, error) {
	var v snapshotV1
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return nil, corrupt("magic", "neither a format v2 snapshot nor a gob (v1) one: %v", err)
	}
	if v.Magic != snapshotV1Magic {
		return nil, corrupt("magic", "a gob stream, but not a snapshot")
	}
	s := &Snapshot{SnapshotHeader: SnapshotHeader{
		SchemaSig: v.SchemaSig, Algorithm: v.Algorithm,
		D: len(v.DictValues), MaxBound: v.MaxBound, MaxMeas: v.MaxMeas,
		Prominence: v.Counts != nil, Counters: v.Counters,
	}}
	s.Dict = v.DictValues
	s.N = len(v.Tuples)
	if s.N > 0 {
		s.M = len(v.Tuples[0].Raw)
	}
	for i, t := range v.Tuples {
		if len(t.Dims) != s.D || len(t.Raw) != s.M {
			return nil, corrupt("tuples", "tuple %d: %d codes and %d measures, the others have %d and %d", i, len(t.Dims), len(t.Raw), s.D, s.M)
		}
		s.Dims = append(s.Dims, t.Dims...)
		s.Raw = append(s.Raw, t.Raw...)
	}
	s.Deleted = v.Deleted
	slices.Sort(s.Deleted)

	// Group the cells: order[c] lists constraint c's cells by mask.
	index := make(map[string]int)
	var keys []string
	var order [][]int
	for i, c := range v.Cells {
		ci, ok := index[c.CKey]
		if !ok {
			ci = len(keys)
			index[c.CKey] = ci
			keys = append(keys, c.CKey)
			order = append(order, nil)
		}
		order[ci] = append(order[ci], i)
	}
	var flat []byte
	for ci, key := range keys {
		if len(key) != s.KeyLen() {
			return nil, corrupt("cells", "constraint %d: key of %d bytes under %d dimensions", ci, len(key), s.D)
		}
		flat = append(flat, key...)
		if s.Prominence {
			s.Counts = append(s.Counts, v.Counts[key])
		}
		cells := order[ci]
		slices.SortStableFunc(cells, func(a, b int) int { return cmp.Compare(v.Cells[a].M, v.Cells[b].M) })
		s.Live = append(s.Live, uint32(len(cells)))
		for j, i := range cells {
			c := v.Cells[i]
			s.Masks = append(s.Masks, c.M)
			s.Sizes = append(s.Sizes, uint32(len(c.IDs)))
			for _, id := range c.IDs {
				if id < 0 || id > math.MaxUint32 {
					return nil, corrupt("cells", "constraint %d: cell %d: member %d is no tuple id", ci, j, id)
				}
				s.IDs = append(s.IDs, uint32(id))
			}
		}
	}
	s.Keys = string(flat)

	var extra []string
	for key := range v.Counts {
		if _, live := index[key]; !live {
			extra = append(extra, key)
		}
	}
	slices.Sort(extra)
	for i, key := range extra {
		if len(key) != s.KeyLen() {
			return nil, corrupt("counts", "constraint %d: key of %d bytes under %d dimensions", i, len(key), s.D)
		}
	}
	s.CellLess = len(extra)
	return s, nil
}
