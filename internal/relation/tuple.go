package relation

import (
	"errors"
	"fmt"
	"strings"
)

// Tuple is one row of R(D;M). Dimension values are dictionary-encoded
// (see Dict); measure values are stored twice:
//
//   - Raw holds the values exactly as supplied, for display.
//   - Oriented holds values normalised so that LARGER IS ALWAYS BETTER
//     (smaller-better attributes are negated at ingest). All dominance
//     logic operates on Oriented, which keeps the hot comparison loop
//     branch-free with respect to per-attribute directions.
//
// A Tuple is immutable after Table.Append returns it.
type Tuple struct {
	// ID is the arrival position of the tuple (0-based) in the append-only
	// table; it doubles as a timestamp.
	ID int64
	// Dims holds the dictionary codes of the dimension values.
	Dims []int32
	// Raw holds measure values as supplied.
	Raw []float64
	// Oriented holds measure values with smaller-better attributes negated,
	// so that v1 > v2 always means "v1 is better".
	Oriented []float64
}

// NewTuple builds a detached tuple (not yet in any table) from encoded
// dimensions and raw measures; the schema supplies orientation.
func NewTuple(s *Schema, id int64, dims []int32, raw []float64) (*Tuple, error) {
	if len(dims) != s.NumDims() {
		return nil, fmt.Errorf("relation: tuple has %d dimension values, schema %q has %d", len(dims), s.Name(), s.NumDims())
	}
	if len(raw) != s.NumMeasures() {
		return nil, fmt.Errorf("relation: tuple has %d measure values, schema %q has %d", len(raw), s.Name(), s.NumMeasures())
	}
	t := &Tuple{
		ID:       id,
		Dims:     append([]int32(nil), dims...),
		Raw:      append([]float64(nil), raw...),
		Oriented: make([]float64, len(raw)),
	}
	for i, v := range raw {
		if s.Measure(i).Direction == SmallerBetter {
			t.Oriented[i] = -v
		} else {
			t.Oriented[i] = v
		}
	}
	return t, nil
}

// Format renders the tuple with decoded dimension values for diagnostics.
func (t *Tuple) Format(s *Schema, dict *Dict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t%d[", t.ID)
	for i, code := range t.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", s.Dim(i).Name, dict.Decode(i, code))
	}
	b.WriteString(" | ")
	for i, v := range t.Raw {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%g", s.Measure(i).Name, v)
	}
	b.WriteString("]")
	return b.String()
}

// Dict maintains per-dimension dictionaries mapping string values to dense
// int32 codes and back. Codes are assigned in first-seen order, starting at
// zero, independently per dimension attribute.
//
// Dict is not safe for concurrent mutation; the table that owns it
// serialises access.
type Dict struct {
	encode []map[string]int32
	decode [][]string
}

// NewDict creates dictionaries for a schema's dimension attributes.
func NewDict(s *Schema) *Dict {
	d := &Dict{
		encode: make([]map[string]int32, s.NumDims()),
		decode: make([][]string, s.NumDims()),
	}
	for i := range d.encode {
		d.encode[i] = make(map[string]int32)
	}
	return d
}

// Encode interns value for dimension dim and returns its code, assigning a
// fresh code on first sight.
func (d *Dict) Encode(dim int, value string) int32 {
	if c, ok := d.encode[dim][value]; ok {
		return c
	}
	c := int32(len(d.decode[dim]))
	d.encode[dim][value] = c
	d.decode[dim] = append(d.decode[dim], value)
	return c
}

// Lookup returns the code for value in dimension dim without interning;
// ok is false when the value has never been seen.
func (d *Dict) Lookup(dim int, value string) (code int32, ok bool) {
	c, ok := d.encode[dim][value]
	return c, ok
}

// Decode maps a code back to its string value. Unknown codes render as
// "?<code>" rather than panicking, so diagnostics stay usable.
func (d *Dict) Decode(dim int, code int32) string {
	if code < 0 || int(code) >= len(d.decode[dim]) {
		return fmt.Sprintf("?%d", code)
	}
	return d.decode[dim][code]
}

// Values returns dimension dim's values in code order. Callers must not
// mutate the slice.
func (d *Dict) Values(dim int) []string { return d.decode[dim] }

// Cardinality returns |dom(d_i)| seen so far for dimension dim.
func (d *Dict) Cardinality(dim int) int { return len(d.decode[dim]) }

// Table is the append-only relation R the discovery algorithms observe.
// Tuples are appended one at a time; the full history is retained for
// oracle verification, baselines, and for the paper's BruteForce and
// BaselineSeq algorithms which scan it.
type Table struct {
	schema *Schema
	dict   *Dict
	tuples []*Tuple
	limit  int64 // MaxTuples; a field so that a test can reach it
}

// MaxTuples is the number of tuples a table accepts. A tuple's ID is its
// position in the table, and the µ cells of the discovery algorithms keep
// their members as 32-bit ids.
const MaxTuples = 1 << 32

// ErrTableFull is wrapped by the error Append and AppendEncoded return for
// the row past the limit; the refused call leaves the table as it was.
var ErrTableFull = errors.New("table holds as many tuples as 32-bit tuple ids can name")

// NewTable creates an empty table over schema.
func NewTable(schema *Schema) *Table {
	return &Table{schema: schema, dict: NewDict(schema), limit: MaxTuples}
}

// nextID returns the ID the next appended tuple takes, or the error that
// refuses it.
func (tb *Table) nextID() (int64, error) {
	id := int64(len(tb.tuples))
	if id >= tb.limit {
		return 0, fmt.Errorf("%w (%d)", ErrTableFull, tb.limit)
	}
	return id, nil
}

// Schema returns the table's schema.
func (tb *Table) Schema() *Schema { return tb.schema }

// Dict returns the table's dimension-value dictionary.
func (tb *Table) Dict() *Dict { return tb.dict }

// Len returns the number of tuples appended so far.
func (tb *Table) Len() int { return len(tb.tuples) }

// At returns the i-th tuple in arrival order.
func (tb *Table) At(i int) *Tuple { return tb.tuples[i] }

// Tuples returns the backing slice of all tuples in arrival order. Callers
// must not mutate it.
func (tb *Table) Tuples() []*Tuple { return tb.tuples }

// CheckRow returns the error Append refuses a row of the wrong shape with:
// a dimension or measure count the schema does not have.
func (tb *Table) CheckRow(dims []string, measures []float64) error {
	if len(dims) != tb.schema.NumDims() {
		return fmt.Errorf("relation: append: got %d dimension values, want %d", len(dims), tb.schema.NumDims())
	}
	if len(measures) != tb.schema.NumMeasures() {
		return fmt.Errorf("relation: append: got %d measure values, want %d", len(measures), tb.schema.NumMeasures())
	}
	return nil
}

// Append interns the dimension strings, orients the measures, assigns the
// next ID and appends the tuple, returning it. A refused row leaves the
// table and its dictionary as they were.
func (tb *Table) Append(dims []string, measures []float64) (*Tuple, error) {
	if err := tb.CheckRow(dims, measures); err != nil {
		return nil, err
	}
	id, err := tb.nextID()
	if err != nil {
		return nil, fmt.Errorf("relation: append: %w", err)
	}
	codes := make([]int32, len(dims))
	for i, v := range dims {
		codes[i] = tb.dict.Encode(i, v)
	}
	t, err := NewTuple(tb.schema, id, codes, measures)
	if err != nil {
		return nil, err
	}
	tb.tuples = append(tb.tuples, t)
	return t, nil
}

// AppendEncoded appends a tuple whose dimension values are already codes.
// It is used by generators that produce codes directly; the dictionary is
// extended with synthetic names on demand so decoding still works.
func (tb *Table) AppendEncoded(dims []int32, measures []float64) (*Tuple, error) {
	if len(dims) != tb.schema.NumDims() {
		return nil, fmt.Errorf("relation: append-encoded: got %d dimension values, want %d", len(dims), tb.schema.NumDims())
	}
	id, err := tb.nextID()
	if err != nil {
		return nil, fmt.Errorf("relation: append-encoded: %w", err)
	}
	t, err := NewTuple(tb.schema, id, dims, measures)
	if err != nil {
		return nil, err
	}
	for i, c := range dims {
		if c < 0 {
			return nil, fmt.Errorf("relation: append-encoded: negative code %d for dimension %d", c, i)
		}
		for int(c) >= tb.dict.Cardinality(i) {
			tb.dict.Encode(i, fmt.Sprintf("%s#%d", tb.schema.Dim(i).Name, tb.dict.Cardinality(i)))
		}
	}
	tb.tuples = append(tb.tuples, t)
	return t, nil
}

// EncodedSize returns the byte size of one tuple under schema s in the
// fixed-width binary layout of the paper's file store (§VI-C: "each non-empty
// µC,M is stored as a binary file"): an int64 id, an int32 per dimension and
// a float64 per measure. The stores keep ids only; Fig 10a's memory estimate
// prices a stored entry at this size.
func EncodedSize(s *Schema) int {
	return 8 + 4*s.NumDims() + 8*s.NumMeasures()
}
