package relation

import (
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("gamelog",
		[]DimAttr{{Name: "player"}, {Name: "month"}, {Name: "season"}, {Name: "team"}, {Name: "opp_team"}},
		[]MeasureAttr{
			{Name: "points", Direction: LargerBetter},
			{Name: "assists", Direction: LargerBetter},
			{Name: "rebounds", Direction: LargerBetter},
			{Name: "fouls", Direction: SmallerBetter},
		})
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValid(t *testing.T) {
	s := testSchema(t)
	if got, want := s.NumDims(), 5; got != want {
		t.Errorf("NumDims = %d, want %d", got, want)
	}
	if got, want := s.NumMeasures(), 4; got != want {
		t.Errorf("NumMeasures = %d, want %d", got, want)
	}
	if s.Dim(0).Name != "player" || s.Measure(3).Name != "fouls" {
		t.Errorf("attribute order not preserved: %v %v", s.Dims(), s.Measures())
	}
	if s.Measure(3).Direction != SmallerBetter {
		t.Errorf("fouls direction = %v, want smaller-better", s.Measure(3).Direction)
	}
}

func TestNewSchemaErrors(t *testing.T) {
	cases := []struct {
		name     string
		dims     []DimAttr
		measures []MeasureAttr
		wantSub  string
	}{
		{"no dims", nil, []MeasureAttr{{Name: "m"}}, "at least one dimension"},
		{"no measures", []DimAttr{{Name: "d"}}, nil, "at least one measure"},
		{"blank dim", []DimAttr{{Name: " "}}, []MeasureAttr{{Name: "m"}}, "blank name"},
		{"blank measure", []DimAttr{{Name: "d"}}, []MeasureAttr{{Name: ""}}, "blank name"},
		{"dup dims", []DimAttr{{Name: "x"}, {Name: "x"}}, []MeasureAttr{{Name: "m"}}, "duplicate"},
		{"dup across", []DimAttr{{Name: "x"}}, []MeasureAttr{{Name: "x"}}, "duplicate"},
		{"bad direction", []DimAttr{{Name: "d"}}, []MeasureAttr{{Name: "m", Direction: 9}}, "invalid direction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSchema("r", tc.dims, tc.measures)
			if err == nil {
				t.Fatalf("NewSchema succeeded, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestSchemaTooManyAttrs(t *testing.T) {
	dims := make([]DimAttr, MaxDims+1)
	for i := range dims {
		dims[i] = DimAttr{Name: strings.Repeat("d", i+1)}
	}
	if _, err := NewSchema("r", dims, []MeasureAttr{{Name: "m"}}); err == nil {
		t.Error("NewSchema accepted more than MaxDims dimensions")
	}
}

func TestSchemaIndexLookups(t *testing.T) {
	s := testSchema(t)
	if got := s.DimIndex("season"); got != 2 {
		t.Errorf("DimIndex(season) = %d, want 2", got)
	}
	if got := s.DimIndex("nope"); got != -1 {
		t.Errorf("DimIndex(nope) = %d, want -1", got)
	}
	if got := s.MeasureIndex("rebounds"); got != 2 {
		t.Errorf("MeasureIndex(rebounds) = %d, want 2", got)
	}
	if got := s.MeasureIndex("nope"); got != -1 {
		t.Errorf("MeasureIndex(nope) = %d, want -1", got)
	}
}

func TestSchemaString(t *testing.T) {
	s := testSchema(t)
	str := s.String()
	for _, want := range []string{"gamelog", "player", "fouls↓", "points↑"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}
