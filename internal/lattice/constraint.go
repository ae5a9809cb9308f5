package lattice

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/relation"
)

// Wildcard is the dimension-value code meaning "unbound" (the paper's *).
const Wildcard int32 = -1

// Constraint is a conjunctive constraint 〈v1, ..., vn〉 over the dimension
// space: Vals[i] is a dictionary code, or Wildcard when d_i is unbound.
// The zero-length Constraint is invalid; use Top(d) for ⊤.
type Constraint struct {
	Vals []int32
}

// Top returns the most general constraint ⊤ = 〈*, ..., *〉 over d dims.
func Top(d int) Constraint {
	vals := make([]int32, d)
	for i := range vals {
		vals[i] = Wildcard
	}
	return Constraint{Vals: vals}
}

// FromTuple returns the constraint that binds exactly the attributes in
// mask to t's dimension values (a member of C^t).
func FromTuple(t *relation.Tuple, mask Mask) Constraint {
	vals := make([]int32, len(t.Dims))
	for i := range vals {
		if mask&(1<<uint(i)) != 0 {
			vals[i] = t.Dims[i]
		} else {
			vals[i] = Wildcard
		}
	}
	return Constraint{Vals: vals}
}

// Bound returns the number of bound attributes, bound(C).
func (c Constraint) Bound() int {
	n := 0
	for _, v := range c.Vals {
		if v != Wildcard {
			n++
		}
	}
	return n
}

// BoundMask returns the bitmask of bound attributes.
func (c Constraint) BoundMask() Mask {
	var m Mask
	for i, v := range c.Vals {
		if v != Wildcard {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Satisfies reports whether tuple t satisfies c (Def. 4): every bound
// attribute of c equals t's value.
func (c Constraint) Satisfies(t *relation.Tuple) bool {
	for i, v := range c.Vals {
		if v != Wildcard && v != t.Dims[i] {
			return false
		}
	}
	return true
}

// Equal reports structural equality.
func (c Constraint) Equal(other Constraint) bool {
	if len(c.Vals) != len(other.Vals) {
		return false
	}
	for i, v := range c.Vals {
		if v != other.Vals[i] {
			return false
		}
	}
	return true
}

// Key returns the canonical store key of the constraint: the little-endian
// concatenation of uint32(Vals[i]) (Wildcard encodes as 0xFFFFFFFF).
// Constraints from different tuples that bind the same values produce equal
// keys, which is what makes the global µ(C,M) store shareable.
func (c Constraint) Key() Key {
	k := make([]byte, 0, 4*len(c.Vals))
	for _, v := range c.Vals {
		k = binary.LittleEndian.AppendUint32(k, uint32(v))
	}
	return Key(k)
}

// KeyScratch is the size of the stack buffer key-building callers hand to
// AppendKeyFromTuple: 4 bytes per dimension for the deepest lattice the
// algorithms accept (core.MaxLatticeDims = 16). A wider constraint still
// works; append spills its key to the heap.
const KeyScratch = 64

// Key is the canonical map key for a constraint. It is a plain string of
// bytes; see Constraint.Key.
type Key string

// ParseKey decodes a Key back into a Constraint over d dimensions.
func ParseKey(k Key, d int) (Constraint, error) {
	if len(k) != 4*d {
		return Constraint{}, fmt.Errorf("lattice: key has %d bytes, want %d for d=%d", len(k), 4*d, d)
	}
	vals := make([]int32, d)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32([]byte(k[4*i : 4*i+4])))
	}
	return Constraint{Vals: vals}, nil
}

// KeyFromTuple builds the store key for the member of C^t selected by mask
// without materialising a Constraint. It must stay byte-identical to
// FromTuple(t, mask).Key().
func KeyFromTuple(t *relation.Tuple, mask Mask) Key {
	return Key(AppendKeyFromTuple(make([]byte, 0, 4*len(t.Dims)), t, mask))
}

// AppendKeyFromTuple appends the key bytes of the C^t member selected by
// mask to dst and returns the extended slice. With a caller-provided stack
// scratch it derives a key with zero heap allocation — the store interner's
// fast path. The byte layout is identical to Constraint.Key.
func AppendKeyFromTuple(dst []byte, t *relation.Tuple, mask Mask) []byte {
	for i := range t.Dims {
		v := Wildcard
		if mask&(1<<uint(i)) != 0 {
			v = t.Dims[i]
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// Format renders the constraint using decoded dimension values, in the
// paper's style: "team=Celtics ∧ opp_team=Nets", or "⊤" when unbound.
func (c Constraint) Format(s *relation.Schema, dict *relation.Dict) string {
	var parts []string
	for i, v := range c.Vals {
		if v == Wildcard {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%s", s.Dim(i).Name, dict.Decode(i, v)))
	}
	if len(parts) == 0 {
		return "⊤"
	}
	return strings.Join(parts, " ∧ ")
}

// Mask identifies a member of a per-tuple lattice C^t: bit i set means
// attribute d_i is bound (to the tuple's value).
type Mask = uint32

// FullMask returns ⊥(C^t) for d dimensions: all attributes bound.
func FullMask(d int) Mask { return (1 << uint(d)) - 1 }

// PopCount returns the number of bound attributes of mask, bound(C).
func PopCount(m Mask) int { return bits.OnesCount32(m) }

// CountMasks returns |{m : popcount(m) ≤ maxBound}| over d dimensions,
// i.e. the size of the (possibly d̂-truncated) per-tuple lattice.
func CountMasks(d, maxBound int) int {
	if maxBound < 0 || maxBound >= d {
		return 1 << uint(d)
	}
	total := 0
	choose := 1
	for k := 0; k <= maxBound; k++ {
		total += choose
		choose = choose * (d - k) / (k + 1)
	}
	return total
}
