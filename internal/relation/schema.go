// Package relation defines the data model of the situational-fact system:
// schemas with dimension and measure attributes, dictionary-encoded tuples,
// and the append-only table abstraction the discovery algorithms run over.
//
// The model follows Section III of Sultana et al., ICDE 2014: a relation
// R(D;M) where D is a set of categorical dimension attributes on which
// conjunctive constraints are defined and M is a set of numeric measure
// attributes on which skyline dominance is defined.
package relation

import (
	"fmt"
	"strings"
)

// Direction states which ordering of a measure attribute is preferred when
// deciding dominance. The paper (Def. 2) allows "better" to mean larger or
// smaller per attribute; e.g. NBA points are LargerBetter while fouls are
// SmallerBetter.
type Direction int8

const (
	// LargerBetter means greater values dominate smaller ones.
	LargerBetter Direction = iota
	// SmallerBetter means smaller values dominate greater ones.
	SmallerBetter
)

// String returns a human-readable name for the direction.
func (d Direction) String() string {
	switch d {
	case LargerBetter:
		return "larger-better"
	case SmallerBetter:
		return "smaller-better"
	default:
		return fmt.Sprintf("Direction(%d)", int8(d))
	}
}

// DimAttr describes one dimension attribute.
type DimAttr struct {
	// Name is the attribute name, e.g. "player" or "opp_team".
	Name string
}

// MeasureAttr describes one measure attribute together with its preferred
// ordering.
type MeasureAttr struct {
	// Name is the attribute name, e.g. "points".
	Name string
	// Direction states whether larger or smaller raw values are better.
	Direction Direction
}

// Schema describes a relation R(D;M). A Schema is immutable after
// construction; share it freely across goroutines.
type Schema struct {
	name     string
	dims     []DimAttr
	measures []MeasureAttr

	dimIndex     map[string]int
	measureIndex map[string]int
}

// NewSchema builds a schema from dimension and measure attribute lists.
// It returns an error when an attribute list is empty, a name is blank, or
// names collide (across both lists: attribute names must be unique).
func NewSchema(name string, dims []DimAttr, measures []MeasureAttr) (*Schema, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("relation: schema %q needs at least one dimension attribute", name)
	}
	if len(measures) == 0 {
		return nil, fmt.Errorf("relation: schema %q needs at least one measure attribute", name)
	}
	if len(dims) > MaxDims {
		return nil, fmt.Errorf("relation: schema %q has %d dimension attributes; max is %d", name, len(dims), MaxDims)
	}
	if len(measures) > MaxMeasures {
		return nil, fmt.Errorf("relation: schema %q has %d measure attributes; max is %d", name, len(measures), MaxMeasures)
	}
	s := &Schema{
		name:         name,
		dims:         append([]DimAttr(nil), dims...),
		measures:     append([]MeasureAttr(nil), measures...),
		dimIndex:     make(map[string]int, len(dims)),
		measureIndex: make(map[string]int, len(measures)),
	}
	seen := make(map[string]bool, len(dims)+len(measures))
	for i, d := range s.dims {
		if strings.TrimSpace(d.Name) == "" {
			return nil, fmt.Errorf("relation: schema %q: dimension %d has a blank name", name, i)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("relation: schema %q: duplicate attribute name %q", name, d.Name)
		}
		seen[d.Name] = true
		s.dimIndex[d.Name] = i
	}
	for i, m := range s.measures {
		if strings.TrimSpace(m.Name) == "" {
			return nil, fmt.Errorf("relation: schema %q: measure %d has a blank name", name, i)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("relation: schema %q: duplicate attribute name %q", name, m.Name)
		}
		if m.Direction != LargerBetter && m.Direction != SmallerBetter {
			return nil, fmt.Errorf("relation: schema %q: measure %q has invalid direction %d", name, m.Name, m.Direction)
		}
		seen[m.Name] = true
		s.measureIndex[m.Name] = i
	}
	return s, nil
}

// MaxDims bounds the number of dimension attributes. The per-tuple
// constraint lattice is manipulated as a bitmask, so 30 is a hard
// correctness bound; practical workloads (the paper uses d ≤ 8) are far
// below it.
const MaxDims = 30

// MaxMeasures bounds the number of measure attributes; measure subspaces
// are bitmasks too. The paper uses m ≤ 7.
const MaxMeasures = 30

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// NumDims returns |D|.
func (s *Schema) NumDims() int { return len(s.dims) }

// NumMeasures returns |𝕄|.
func (s *Schema) NumMeasures() int { return len(s.measures) }

// Dim returns the i-th dimension attribute.
func (s *Schema) Dim(i int) DimAttr { return s.dims[i] }

// Measure returns the i-th measure attribute.
func (s *Schema) Measure(i int) MeasureAttr { return s.measures[i] }

// Dims returns a copy of the dimension attribute list.
func (s *Schema) Dims() []DimAttr { return append([]DimAttr(nil), s.dims...) }

// Measures returns a copy of the measure attribute list.
func (s *Schema) Measures() []MeasureAttr { return append([]MeasureAttr(nil), s.measures...) }

// DimIndex returns the position of the named dimension attribute, or -1.
func (s *Schema) DimIndex(name string) int {
	if i, ok := s.dimIndex[name]; ok {
		return i
	}
	return -1
}

// MeasureIndex returns the position of the named measure attribute, or -1.
func (s *Schema) MeasureIndex(name string) int {
	if i, ok := s.measureIndex[name]; ok {
		return i
	}
	return -1
}

// String renders the schema as R(D;M) with directions, for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteString("(")
	for i, d := range s.dims {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.Name)
	}
	b.WriteString("; ")
	for i, m := range s.measures {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(m.Name)
		if m.Direction == SmallerBetter {
			b.WriteString("↓")
		} else {
			b.WriteString("↑")
		}
	}
	b.WriteString(")")
	return b.String()
}
