package relation

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
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
// ErrTableFull and an error that names the limit, and a refused row — past
// the limit, or one measure short before it — leaves neither a tuple nor a
// dictionary entry behind.
func TestTableLimit(t *testing.T) {
	const limit = 5
	appends := map[string]func(tb *Table, i int, measures []float64) (*Tuple, error){
		"Append": func(tb *Table, i int, measures []float64) (*Tuple, error) {
			return tb.Append([]string{fmt.Sprint("p", i), "Feb", "1994-95", "Celtics", "Nets"}, measures)
		},
		"AppendEncoded": func(tb *Table, i int, measures []float64) (*Tuple, error) {
			return tb.AppendEncoded([]int32{int32(i), 0, 0, 0, 0}, measures)
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
				row   int // position of the row being appended
				short bool
				full  bool
			}{
				{0, false, false}, {1, false, false},
				{2, true, false},
				{2, false, false}, {3, false, false},
				{limit - 1, false, false},
				{limit, false, true},
				{limit + 1, false, true},
			} {
				measures := []float64{1, 2, 3, 4}
				if tc.short {
					measures = measures[:3]
				}
				tu, err := appendRow(tb, tc.row, measures)
				switch {
				case tc.short:
					if err == nil || !strings.Contains(err.Error(), "3 measure values") || tu != nil {
						t.Fatalf("row %d, a measure short: tuple %+v, error %v", tc.row, tu, err)
					}
				case tc.full:
					if !errors.Is(err, ErrTableFull) || tu != nil {
						t.Fatalf("row %d of %d: tuple %+v, error %v, want ErrTableFull", tc.row, limit, tu, err)
					}
					if !strings.Contains(err.Error(), fmt.Sprint(limit)) {
						t.Errorf("row %d: error %q does not name the limit %d", tc.row, err, limit)
					}
				default:
					if err != nil || tu.ID != int64(tc.row) {
						t.Fatalf("row %d of %d: tuple %+v, error %v", tc.row, limit, tu, err)
					}
					continue
				}
				if want := min(tc.row, limit); tb.Len() != want || tb.Dict().Cardinality(0) != want {
					t.Errorf("row %d: the refused append left %d tuples and %d player values, want %d and %d",
						tc.row, tb.Len(), tb.Dict().Cardinality(0), want, want)
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
