package situfact

import (
	"errors"
	"strings"
	"testing"
)

func gamelogSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchemaBuilder("gamelog").
		Dimension("player").Dimension("month").Dimension("season").
		Dimension("team").Dimension("opp_team").
		Measure("points", LargerBetter).
		Measure("assists", LargerBetter).
		Measure("rebounds", LargerBetter).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var table1Rows = []struct {
	d []string
	m []float64
}{
	{[]string{"Bogues", "Feb", "1991-92", "Hornets", "Hawks"}, []float64{4, 12, 5}},
	{[]string{"Seikaly", "Feb", "1991-92", "Heat", "Hawks"}, []float64{24, 5, 15}},
	{[]string{"Sherman", "Dec", "1993-94", "Celtics", "Nets"}, []float64{13, 13, 5}},
	{[]string{"Wesley", "Feb", "1994-95", "Celtics", "Nets"}, []float64{2, 5, 2}},
	{[]string{"Wesley", "Feb", "1994-95", "Celtics", "Timberwolves"}, []float64{3, 5, 3}},
	{[]string{"Strickland", "Jan", "1995-96", "Blazers", "Celtics"}, []float64{27, 18, 8}},
	{[]string{"Wesley", "Feb", "1995-96", "Celtics", "Nets"}, []float64{12, 13, 5}},
}

func TestEngineEndToEnd(t *testing.T) {
	eng, err := New(gamelogSchema(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Algorithm() != "SBottomUp" {
		t.Errorf("default algorithm = %q", eng.Algorithm())
	}
	var last *Arrival
	for _, r := range table1Rows {
		last, err = eng.Append(r.d, r.m)
		if err != nil {
			t.Fatal(err)
		}
	}
	if eng.Len() != 7 || last.TupleID != 6 {
		t.Fatalf("Len=%d TupleID=%d", eng.Len(), last.TupleID)
	}
	if len(last.Facts) != 195 {
		t.Fatalf("t7 facts = %d, want 195", len(last.Facts))
	}
	// Facts must be sorted by descending prominence.
	for i := 1; i < len(last.Facts); i++ {
		if last.Facts[i].Prominence > last.Facts[i-1].Prominence {
			t.Fatal("facts not sorted by prominence")
		}
	}
	if last.Facts[0].Prominence != 5 {
		t.Errorf("max prominence = %g, want 5", last.Facts[0].Prominence)
	}
	top := last.Top(3)
	if len(top) != 3 {
		t.Errorf("Top(3) = %d facts", len(top))
	}
	prom := last.Prominent(3)
	if len(prom) == 0 {
		t.Fatal("no prominent facts at τ=3")
	}
	for _, f := range prom {
		if f.Prominence != 5 {
			t.Errorf("prominent fact with non-max prominence %g", f.Prominence)
		}
	}
	if got := last.Prominent(100); got != nil {
		t.Errorf("Prominent(100) = %v", got)
	}
	// Fact rendering.
	s := prom[0].String()
	if !strings.Contains(s, "prominence") {
		t.Errorf("Fact.String() = %q, missing prominence", s)
	}
	m := eng.Metrics()
	if m.Tuples != 7 || m.Facts == 0 || m.StoredTuples == 0 {
		t.Errorf("implausible metrics: %+v", m)
	}
}

func TestEngineAlgorithms(t *testing.T) {
	// Every algorithm must agree on |S_t7| through the public API.
	for _, algo := range []Algorithm{AlgoBruteForce, AlgoBaselineSeq, AlgoBaselineIdx, AlgoCCSC,
		AlgoBottomUp, AlgoTopDown, AlgoSBottomUp, AlgoSTopDown} {
		opt := Options{Algorithm: algo}
		switch algo {
		case AlgoBruteForce, AlgoBaselineSeq, AlgoBaselineIdx, AlgoCCSC:
			opt.DisableProminence = true
		}
		eng, err := New(gamelogSchema(t), opt)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var last *Arrival
		for _, r := range table1Rows {
			last, err = eng.Append(r.d, r.m)
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(last.Facts) != 195 {
			t.Errorf("%s: |S_t7| = %d, want 195", algo, len(last.Facts))
		}
		eng.Close()
	}
}

func TestEngineFileStore(t *testing.T) {
	eng, err := New(gamelogSchema(t), Options{Algorithm: AlgoSTopDown, StoreDir: t.TempDir() + "/cells"})
	if err != nil {
		t.Fatal(err)
	}
	var last *Arrival
	for _, r := range table1Rows {
		last, err = eng.Append(r.d, r.m)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(last.Facts) != 195 {
		t.Errorf("file-backed |S_t7| = %d, want 195", len(last.Facts))
	}
	if eng.Metrics().Writes == 0 {
		t.Error("file store did no writes")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineOptionErrors(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil schema accepted")
	}
	err := func() error {
		_, err := New(gamelogSchema(t), Options{Algorithm: "nope"})
		return err
	}()
	if err == nil {
		t.Error("unknown algorithm accepted")
	} else {
		// The message must list alternatives and carry exactly one
		// package prefix (no "situfact: core:" stutter).
		if !strings.Contains(err.Error(), "sbottomup") {
			t.Errorf("unknown-algorithm error lists no alternatives: %v", err)
		}
		if strings.Contains(err.Error(), "core:") {
			t.Errorf("internal package prefix leaked: %v", err)
		}
	}
	// Prominence requires a lattice algorithm.
	if _, err := New(gamelogSchema(t), Options{Algorithm: AlgoBaselineSeq}); err == nil {
		t.Error("prominence with baseline accepted")
	}
	if _, err := New(gamelogSchema(t), Options{Algorithm: AlgoBaselineSeq, DisableProminence: true}); err != nil {
		t.Errorf("baseline without prominence rejected: %v", err)
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := gamelogSchema(t)
	if got := s.DimensionNames(); len(got) != 5 || got[0] != "player" {
		t.Errorf("DimensionNames = %v", got)
	}
	if !strings.Contains(s.String(), "gamelog") {
		t.Errorf("String = %q", s.String())
	}
	if _, err := NewSchemaBuilder("bad").Build(); err == nil {
		t.Error("empty schema accepted")
	}
}

func TestArrivalArityError(t *testing.T) {
	eng, err := New(gamelogSchema(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Append([]string{"x"}, []float64{1, 2, 3}); err == nil {
		t.Error("bad arity accepted")
	}
}

func TestEngineDelete(t *testing.T) {
	eng, err := New(gamelogSchema(t), Options{Algorithm: AlgoBottomUp})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range table1Rows[:6] {
		if _, err := eng.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	// Delete t6 (Strickland, ID 5) and t3 (Sherman, ID 2) — two of t7's
	// three dominators; afterwards t7's fact set must grow accordingly.
	if err := eng.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(2); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 4 {
		t.Errorf("Len after deletes = %d, want 4", eng.Len())
	}
	if err := eng.Delete(2); err == nil {
		t.Error("double delete accepted")
	}
	if err := eng.Delete(99); err == nil {
		t.Error("deleting unknown id accepted")
	}
	last, err := eng.Append(table1Rows[6].d, table1Rows[6].m)
	if err != nil {
		t.Fatal(err)
	}
	// With only t2 (sharing month=Feb) left as a dominator, exclusion-
	// count: t2 dominates t7 in {p},{r},{p,r} with C ⊆ {month}: 6 pairs →
	// 224−6 = 218 facts.
	if len(last.Facts) != 218 {
		t.Errorf("|S_t7| after deletions = %d, want 218", len(last.Facts))
	}
	// Context counts must reflect the deletions: month=Feb context is now
	// t1,t2,t4,t5,t7 minus none (deleted rows were Dec/Jan) = 5.
	for _, f := range last.Facts {
		if len(f.Conditions) == 1 && f.Conditions[0].Attr == "month" && f.Conditions[0].Value == "Feb" {
			if f.ContextSize != 5 {
				t.Errorf("month=Feb context size = %d, want 5", f.ContextSize)
			}
			break
		}
	}
	// TopDown engines must refuse deletion.
	td, err := New(gamelogSchema(t), Options{Algorithm: AlgoTopDown})
	if err != nil {
		t.Fatal(err)
	}
	td.Append(table1Rows[0].d, table1Rows[0].m)
	if err := td.Delete(0); err == nil {
		t.Error("TopDown engine accepted Delete")
	}
}

func TestEngineUpdate(t *testing.T) {
	eng, err := New(gamelogSchema(t), Options{Algorithm: AlgoSBottomUp})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range table1Rows[:6] {
		if _, err := eng.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	// Correct t6's stat line downwards; the replacement must no longer
	// suppress t7's full-space facts the way the original did.
	arr, err := eng.Update(5, table1Rows[5].d, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if arr.TupleID != 6 || eng.Len() != 6 {
		t.Fatalf("Update arrival id=%d len=%d", arr.TupleID, eng.Len())
	}
	last, err := eng.Append(table1Rows[6].d, table1Rows[6].m)
	if err != nil {
		t.Fatal(err)
	}
	// Exclusions now come from t2 (6 pairs) and t3 (16 pairs) with the
	// ⊤-overlap of the four point-subspaces counted once: 224−(6+16−2)=204.
	if len(last.Facts) != 204 {
		t.Errorf("|S_t7| after update = %d, want 204", len(last.Facts))
	}
	if _, err := eng.Update(99, table1Rows[0].d, table1Rows[0].m); err == nil {
		t.Error("Update of unknown id accepted")
	}
}

// TestEngineUpdateErrorPaths: an Update that fails leaves the engine as it
// was — Len, the tuples and dictionary, the context counts and every µ cell,
// so every fact the tuple it names is in. A replacement of the wrong shape
// is refused with the error Append gives that row (which Append, too,
// refuses without a trace) before the original is retracted.
func TestEngineUpdateErrorPaths(t *testing.T) {
	eng, err := New(gamelogSchema(t), Options{Algorithm: AlgoBottomUp})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, r := range table1Rows[:6] {
		if _, err := eng.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Delete(1); err != nil {
		t.Fatal(err)
	}
	row := table1Rows[6]
	for _, tc := range []struct {
		name     string
		id       int64
		dims     []string
		measures []float64

		err  error  // a sentinel the error wraps, or
		text string // the error's text: Append's for this row
	}{
		{"wrong dims", 5, []string{"x"}, row.m, nil, "relation: append: got 1 dimension values, want 5"},
		{"wrong measures", 5, row.d, row.m[:2], nil, "relation: append: got 2 measure values, want 3"},
		{"unknown id", 99, row.d, row.m, ErrNotFound, ""},
		{"negative id", -1, row.d, row.m, ErrNotFound, ""},
		{"deleted id", 1, row.d, row.m, ErrAlreadyDeleted, ""},
	} {
		before, n := eng.logicalContent(), eng.Len()
		_, err := eng.Update(tc.id, tc.dims, tc.measures)
		switch {
		case err == nil:
			t.Errorf("%s: Update(%d) accepted", tc.name, tc.id)
		case tc.err != nil && !errors.Is(err, tc.err):
			t.Errorf("%s: Update(%d) = %v, want %v", tc.name, tc.id, err, tc.err)
		case tc.text != "" && err.Error() != tc.text:
			t.Errorf("%s: Update(%d) = %q, want %q", tc.name, tc.id, err, tc.text)
		}
		if tc.text != "" {
			if _, err := eng.Append(tc.dims, tc.measures); err == nil || err.Error() != tc.text {
				t.Errorf("%s: Append = %v, want %q", tc.name, err, tc.text)
			}
		}
		if eng.Len() != n {
			t.Errorf("%s: the failed Update changed Len from %d to %d", tc.name, n, eng.Len())
		}
		diffLines(t, tc.name+": engine after the failed Update", eng.logicalContent(), before)
	}
	// Update on a non-deleting algorithm surfaces the capability error.
	td, err := New(gamelogSchema(t), Options{Algorithm: AlgoSTopDown})
	if err != nil {
		t.Fatal(err)
	}
	defer td.Close()
	td.Append(table1Rows[0].d, table1Rows[0].m)
	if _, err := td.Update(0, table1Rows[0].d, table1Rows[0].m); err == nil ||
		!strings.Contains(err.Error(), "BottomUp") {
		t.Errorf("Update on STopDown: %v", err)
	}
}

func TestNarrate(t *testing.T) {
	f := Fact{
		Conditions:  []Condition{{Attr: "team", Value: "Pacers"}, {Attr: "opp_team", Value: "Bulls"}},
		Measures:    []string{"points", "rebounds", "assists"},
		ContextSize: 312,
		SkylineSize: 1,
		Prominence:  312,
	}
	got := Narrate(f, "Paul George", map[string]float64{"points": 21, "rebounds": 11, "assists": 5})
	for _, want := range []string{"Paul George", "21 points", "team=Pacers", "opp_team=Bulls", "1 of 1", "out of 312"} {
		if !strings.Contains(got, want) {
			t.Errorf("Narrate = %q, missing %q", got, want)
		}
	}
	// Unconstrained fact.
	f2 := Fact{Measures: []string{"points"}}
	got2 := Narrate(f2, "X", nil)
	if !strings.Contains(got2, "entire history") {
		t.Errorf("Narrate(⊤) = %q", got2)
	}
	if f2.String() == "" || !strings.Contains(f2.String(), "⊤") {
		t.Errorf("Fact.String(⊤) = %q", f2.String())
	}
}
