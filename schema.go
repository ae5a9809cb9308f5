package situfact

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Schema describes a relation R(D;M): an ordered set of categorical
// dimension attributes (on which contexts are defined) and numeric measure
// attributes (on which skyline dominance is defined). Build one with
// NewSchemaBuilder.
type Schema struct {
	rs *relation.Schema
}

// DimensionNames returns the dimension attribute names in order.
func (s *Schema) DimensionNames() []string {
	out := make([]string, s.rs.NumDims())
	for i := range out {
		out[i] = s.rs.Dim(i).Name
	}
	return out
}

// String renders the schema.
func (s *Schema) String() string { return s.rs.String() }

// SchemaBuilder assembles a Schema fluently.
type SchemaBuilder struct {
	name     string
	dims     []relation.DimAttr
	measures []relation.MeasureAttr
}

// NewSchemaBuilder starts a schema with the given relation name.
func NewSchemaBuilder(name string) *SchemaBuilder {
	return &SchemaBuilder{name: name}
}

// Dimension appends a dimension attribute.
func (b *SchemaBuilder) Dimension(name string) *SchemaBuilder {
	b.dims = append(b.dims, relation.DimAttr{Name: name})
	return b
}

// Measure appends a measure attribute with its preferred direction.
func (b *SchemaBuilder) Measure(name string, dir Direction) *SchemaBuilder {
	b.measures = append(b.measures, relation.MeasureAttr{Name: name, Direction: dir})
	return b
}

// Build validates and returns the schema.
func (b *SchemaBuilder) Build() (*Schema, error) {
	rs, err := relation.NewSchema(b.name, b.dims, b.measures)
	if err != nil {
		return nil, err
	}
	return &Schema{rs: rs}, nil
}

// WrapSchema adapts an internal schema; used by the harness and examples
// that obtain schemas from the workload generators.
func WrapSchema(rs *relation.Schema) *Schema { return &Schema{rs: rs} }

// MeasureSpec is one measure attribute as parsed by ParseSchema.
type MeasureSpec struct {
	Name      string
	Direction Direction
}

// ParseSchema builds a schema from the comma-separated attribute lists the
// command-line tools (cmd/situfact, cmd/situfactd) share: dims names the
// dimension columns; measures names the measure columns, a '-' prefix
// selecting smaller-is-better (e.g. "points,assists,-fouls"). Whitespace
// around names is trimmed. The parsed measure specs are returned alongside
// for callers that need per-measure directions (wire formats, CSV column
// mapping).
func ParseSchema(relation, dims, measures string) (*Schema, []MeasureSpec, error) {
	if dims == "" || measures == "" {
		return nil, nil, fmt.Errorf("situfact: dimension and measure lists are both required")
	}
	b := NewSchemaBuilder(relation)
	for _, d := range strings.Split(dims, ",") {
		b.Dimension(strings.TrimSpace(d))
	}
	var specs []MeasureSpec
	for _, m := range strings.Split(measures, ",") {
		m = strings.TrimSpace(m)
		dir := LargerBetter
		if strings.HasPrefix(m, "-") {
			dir = SmallerBetter
			m = strings.TrimSpace(m[1:])
		}
		b.Measure(m, dir)
		specs = append(specs, MeasureSpec{Name: m, Direction: dir})
	}
	schema, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return schema, specs, nil
}
