package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The golden segment pins the journal's bytes on disk the way the v2
// snapshot fixtures pin the snapshot's: one single append, one batch of two
// (AppendAll, as pipelined ingest journals), one delete and one noop (what
// earlier builds' repairs burned an LSN with). Today's writer must reproduce
// the file byte for byte and today's reader must replay it to the same
// records.
const goldenSegment = "golden_segment.seg"

func goldenRecords() (single Record, batch []Record, del, noop Record) {
	single = Record{Type: RecAppend, Shard: 1, Dims: []string{"Bogues", "Feb", "Hornets"}, Measures: []float64{4, 12.5, -0.0}}
	batch = []Record{
		{Type: RecAppend, Shard: 0, Dims: []string{"Seikaly", "", "Heat"}, Measures: []float64{24, math.Inf(1), 15}},
		{Type: RecAppend, Shard: 3, Dims: []string{"Ševčík", "Dec", "Celtics"}, Measures: []float64{13, 13, 5}},
	}
	del = Record{Type: RecDelete, Shard: 1, TupleID: 300}
	noop = Record{Type: RecNoop}
	return
}

func TestGoldenWALSegment(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", goldenSegment))
	if err != nil {
		t.Fatal(err)
	}
	single, batch, del, noop := goldenRecords()

	// Writer: the same operations produce the same file.
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(single); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendAll(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(del); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(noop); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(w.segmentPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("today's writer produced %d bytes that are not testdata/%s (%d bytes): the journal format drifted", len(got), goldenSegment, len(want))
	}

	// Reader: the checked-in file, dropped into an empty log directory,
	// replays to the records in LSN order and the log continues after them.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(w.segmentPath(1))), want, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantRecs := append(append([]Record{single}, batch...), del, noop)
	var recs []Record
	if err := r.Replay(func(rec Record) error { recs = append(recs, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(wantRecs) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(wantRecs))
	}
	for i, rec := range recs {
		wantRecs[i].LSN = uint64(i + 1)
		if !recordsEqual(rec, wantRecs[i]) {
			t.Errorf("record %d = %+v, want %+v", i, rec, wantRecs[i])
		}
	}
	if next, err := r.Append(noop); err != nil || next != uint64(len(wantRecs))+1 {
		t.Errorf("append after the golden records got LSN %d (%v), want %d", next, err, len(wantRecs)+1)
	}
}
