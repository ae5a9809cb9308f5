package relation

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableAppendAndDict(t *testing.T) {
	tb := NewTable(testSchema(t))
	t1, err := tb.Append([]string{"Wesley", "Feb", "1994-95", "Celtics", "Nets"}, []float64{2, 5, 2, 3})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	t2, err := tb.Append([]string{"Wesley", "Feb", "1994-95", "Celtics", "Timberwolves"}, []float64{3, 5, 3, 1})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if t1.ID != 0 || t2.ID != 1 {
		t.Errorf("IDs = %d, %d; want 0, 1", t1.ID, t2.ID)
	}
	if tb.Len() != 2 || tb.At(1) != t2 {
		t.Errorf("table bookkeeping broken: len=%d", tb.Len())
	}
	// Same strings must intern to the same codes.
	if t1.Dims[0] != t2.Dims[0] || t1.Dims[3] != t2.Dims[3] {
		t.Errorf("interning failed: %v vs %v", t1.Dims, t2.Dims)
	}
	if t1.Dims[4] == t2.Dims[4] {
		t.Errorf("distinct values share a code: %v vs %v", t1.Dims, t2.Dims)
	}
	if got := tb.Dict().Decode(4, t2.Dims[4]); got != "Timberwolves" {
		t.Errorf("Decode = %q, want Timberwolves", got)
	}
	if got := tb.Dict().Cardinality(4); got != 2 {
		t.Errorf("Cardinality(opp_team) = %d, want 2", got)
	}
	if _, ok := tb.Dict().Lookup(4, "Nets"); !ok {
		t.Error("Lookup(Nets) failed")
	}
	if _, ok := tb.Dict().Lookup(4, "Bulls"); ok {
		t.Error("Lookup(Bulls) should miss")
	}
}

func TestOrientation(t *testing.T) {
	tb := NewTable(testSchema(t))
	tu, err := tb.Append([]string{"A", "B", "C", "D", "E"}, []float64{10, 4, 7, 3})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	// fouls (index 3) is smaller-better → negated.
	want := []float64{10, 4, 7, -3}
	for i, v := range want {
		if tu.Oriented[i] != v {
			t.Errorf("Oriented[%d] = %g, want %g", i, tu.Oriented[i], v)
		}
	}
	if tu.Raw[3] != 3 {
		t.Errorf("Raw[3] = %g, want 3", tu.Raw[3])
	}
}

func TestAppendArityErrors(t *testing.T) {
	tb := NewTable(testSchema(t))
	if _, err := tb.Append([]string{"only-one"}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("Append accepted wrong dimension arity")
	}
	if _, err := tb.Append([]string{"a", "b", "c", "d", "e"}, []float64{1}); err == nil {
		t.Error("Append accepted wrong measure arity")
	}
	if _, err := tb.AppendEncoded([]int32{1}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("AppendEncoded accepted wrong arity")
	}
	if _, err := tb.AppendEncoded([]int32{-2, 0, 0, 0, 0}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("AppendEncoded accepted negative code")
	}
}

// TestTableLimit drives both append paths to a lowered row limit and past
// it: the row at position limit−1 is the last one accepted and carries the
// last id a cell can hold, the rows at limit and limit+1 are refused with
// ErrTableFull and an error that names the limit, and a refused row leaves
// neither a tuple nor a dictionary entry behind.
func TestTableLimit(t *testing.T) {
	const limit = 5
	appends := map[string]func(tb *Table, i int) (*Tuple, error){
		"Append": func(tb *Table, i int) (*Tuple, error) {
			return tb.Append([]string{fmt.Sprint("p", i), "Feb", "1994-95", "Celtics", "Nets"}, []float64{1, 2, 3, 4})
		},
		"AppendEncoded": func(tb *Table, i int) (*Tuple, error) {
			return tb.AppendEncoded([]int32{int32(i), 0, 0, 0, 0}, []float64{1, 2, 3, 4})
		},
	}
	for name, appendRow := range appends {
		t.Run(name, func(t *testing.T) {
			tb := NewTable(testSchema(t))
			if tb.limit != MaxTuples || MaxTuples-1 != math.MaxUint32 {
				t.Fatalf("a new table accepts %d tuples, MaxTuples is %d: the last id must be %d",
					tb.limit, int64(MaxTuples), uint32(math.MaxUint32))
			}
			tb.limit = limit
			for _, tc := range []struct {
				row  int // position of the row being appended
				full bool
			}{
				{0, false}, {1, false}, {2, false}, {3, false},
				{limit - 1, false},
				{limit, true},
				{limit + 1, true},
			} {
				tu, err := appendRow(tb, tc.row)
				if !tc.full {
					if err != nil || tu.ID != int64(tc.row) {
						t.Fatalf("row %d of %d: tuple %+v, error %v", tc.row, limit, tu, err)
					}
					continue
				}
				if !errors.Is(err, ErrTableFull) || tu != nil {
					t.Fatalf("row %d of %d: tuple %+v, error %v, want ErrTableFull", tc.row, limit, tu, err)
				}
				if !strings.Contains(err.Error(), fmt.Sprint(limit)) {
					t.Errorf("row %d: error %q does not name the limit %d", tc.row, err, limit)
				}
				if tb.Len() != limit || tb.Dict().Cardinality(0) != limit {
					t.Errorf("row %d: the refused append left %d tuples and %d player values, want %d and %d",
						tc.row, tb.Len(), tb.Dict().Cardinality(0), limit, limit)
				}
			}
		})
	}
}

func TestAppendEncodedExtendsDict(t *testing.T) {
	tb := NewTable(testSchema(t))
	tu, err := tb.AppendEncoded([]int32{3, 0, 1, 2, 0}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("AppendEncoded: %v", err)
	}
	if got := tb.Dict().Cardinality(0); got != 4 {
		t.Errorf("dict cardinality(player) = %d, want 4 (codes 0..3 backfilled)", got)
	}
	if name := tb.Dict().Decode(0, tu.Dims[0]); !strings.HasPrefix(name, "player#") {
		t.Errorf("synthetic name = %q, want player#N", name)
	}
}

func TestTupleFormat(t *testing.T) {
	tb := NewTable(testSchema(t))
	tu, _ := tb.Append([]string{"Wesley", "Feb", "1995-96", "Celtics", "Nets"}, []float64{12, 13, 5, 2})
	got := tu.Format(tb.Schema(), tb.Dict())
	for _, want := range []string{"player=Wesley", "opp_team=Nets", "points=12", "fouls=2"} {
		if !strings.Contains(got, want) {
			t.Errorf("Format = %q, missing %q", got, want)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := testSchema(t)
	tb := NewTable(s)
	for i := 0; i < 10; i++ {
		if _, err := tb.AppendEncoded(
			[]int32{int32(i % 3), int32(i % 2), int32(i % 5), int32(i % 4), int32(i % 7)},
			[]float64{float64(i), float64(i * i), -float64(i), float64(i) / 3}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	buf := EncodeTuples(s, tb.Tuples())
	if len(buf) != 10*EncodedSize(s) {
		t.Fatalf("encoded size = %d, want %d", len(buf), 10*EncodedSize(s))
	}
	back, err := DecodeTuples(buf, s)
	if err != nil {
		t.Fatalf("DecodeTuples: %v", err)
	}
	if len(back) != 10 {
		t.Fatalf("decoded %d tuples, want 10", len(back))
	}
	for i, orig := range tb.Tuples() {
		got := back[i]
		if got.ID != orig.ID {
			t.Errorf("tuple %d: ID = %d, want %d", i, got.ID, orig.ID)
		}
		for j := range orig.Dims {
			if got.Dims[j] != orig.Dims[j] {
				t.Errorf("tuple %d dim %d: %d != %d", i, j, got.Dims[j], orig.Dims[j])
			}
		}
		for j := range orig.Raw {
			if got.Raw[j] != orig.Raw[j] || got.Oriented[j] != orig.Oriented[j] {
				t.Errorf("tuple %d measure %d: raw %g/%g oriented %g/%g",
					i, j, got.Raw[j], orig.Raw[j], got.Oriented[j], orig.Oriented[j])
			}
		}
	}
}

func TestCodecErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := DecodeTuples(make([]byte, EncodedSize(s)-1), s); err == nil {
		t.Error("DecodeTuples accepted truncated buffer")
	}
	if _, _, err := DecodeTuple(nil, s); err == nil {
		t.Error("DecodeTuple accepted empty buffer")
	}
}

// Property: encode∘decode is the identity on arbitrary measure vectors.
func TestCodecProperty(t *testing.T) {
	s := testSchema(t)
	f := func(id int64, d0, d1, d2, d3, d4 uint8, m0, m1, m2, m3 float64) bool {
		tu, err := NewTuple(s, id, []int32{int32(d0), int32(d1), int32(d2), int32(d3), int32(d4)},
			[]float64{m0, m1, m2, m3})
		if err != nil {
			return false
		}
		buf := EncodeTuple(nil, s, tu)
		back, rest, err := DecodeTuple(buf, s)
		if err != nil || len(rest) != 0 {
			return false
		}
		if back.ID != tu.ID {
			return false
		}
		for i := range tu.Dims {
			if back.Dims[i] != tu.Dims[i] {
				return false
			}
		}
		for i := range tu.Raw {
			// NaN round-trips bit-exactly through Float64bits; compare bits
			// via != only for non-NaN.
			if back.Raw[i] != tu.Raw[i] && (tu.Raw[i] == tu.Raw[i] || back.Raw[i] == back.Raw[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := testSchema(t)
	tb := NewTable(s)
	rows := [][]string{
		{"Bogues", "Feb", "1991-92", "Hornets", "Hawks"},
		{"Seikaly", "Feb", "1991-92", "Heat", "Hawks"},
		{"Sherman", "Dec", "1993-94", "Celtics", "Nets"},
	}
	meas := [][]float64{{4, 12, 5, 2}, {24, 5, 15, 3}, {13, 13, 5, 1}}
	for i := range rows {
		if _, err := tb.Append(rows[i], meas[i]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	tb2 := NewTable(s)
	n, err := ReadCSV(&buf, tb2)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if n != 3 || tb2.Len() != 3 {
		t.Fatalf("read %d rows, want 3", n)
	}
	for i := range rows {
		got := tb2.At(i)
		for j := range rows[i] {
			if v := tb2.Dict().Decode(j, got.Dims[j]); v != rows[i][j] {
				t.Errorf("row %d dim %d = %q, want %q", i, j, v, rows[i][j])
			}
		}
		for j := range meas[i] {
			if got.Raw[j] != meas[i][j] {
				t.Errorf("row %d measure %d = %g, want %g", i, j, got.Raw[j], meas[i][j])
			}
		}
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	s := testSchema(t)
	tb := NewTable(s)
	n, err := ReadCSV(strings.NewReader("A,B,C,D,E,1,2,3,4\n"), tb)
	if err != nil || n != 1 {
		t.Fatalf("ReadCSV = %d, %v; want 1 row", n, err)
	}
}

func TestReadCSVBadMeasure(t *testing.T) {
	s := testSchema(t)
	tb := NewTable(s)
	if _, err := ReadCSV(strings.NewReader("A,B,C,D,E,1,2,x,4\n"), tb); err == nil {
		t.Error("ReadCSV accepted non-numeric measure")
	}
}
