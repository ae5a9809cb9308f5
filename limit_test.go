package situfact

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/relation"
)

// lowerTupleLimit lowers the row limit of e's table. The real limit — 2^32
// rows, what a 32-bit cell member can name — is out of a test's reach, and
// relation keeps the field unexported so that nothing but a test moves it.
func lowerTupleLimit(t *testing.T, e *Engine, limit int64) {
	t.Helper()
	f := reflect.ValueOf(e.table).Elem().FieldByName("limit")
	if !f.IsValid() || f.Kind() != reflect.Int64 {
		t.Fatal("relation.Table has no int64 field named limit")
	}
	*(*int64)(unsafe.Pointer(f.UnsafeAddr())) = limit
}

// TestAppendPastTupleLimit: the row that no longer fits a 32-bit tuple id
// is a failed append — an error wrapping relation.ErrTableFull — that
// leaves the engine as it was: nothing discovered, counted or stored for
// it, deletes and reads unaffected.
func TestAppendPastTupleLimit(t *testing.T) {
	const limit = 4
	eng, err := New(gamelogSchema(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	lowerTupleLimit(t, eng, limit)
	for i, r := range table1Rows[:limit] {
		if arr, err := eng.Append(r.d, r.m); err != nil || arr.TupleID != int64(i) {
			t.Fatalf("row %d: arrival %+v, error %v", i, arr, err)
		}
	}
	before := eng.Metrics()
	for _, r := range table1Rows[limit : limit+2] {
		arr, err := eng.Append(r.d, r.m)
		if !errors.Is(err, relation.ErrTableFull) || arr != nil {
			t.Fatalf("append past the limit: arrival %+v, error %v, want ErrTableFull", arr, err)
		}
	}
	if got := eng.Metrics(); got != before || eng.Len() != limit {
		t.Errorf("the refused appends moved the engine: %d tuples, metrics %+v, were %+v", eng.Len(), got, before)
	}
	if err := eng.Delete(limit - 1); err != nil {
		t.Errorf("delete in a full table: %v", err)
	}
	// Ids are positions and are never reused: a delete frees no room.
	if _, err := eng.Append(table1Rows[limit].d, table1Rows[limit].m); !errors.Is(err, relation.ErrTableFull) {
		t.Errorf("append after a delete in a full table: %v, want ErrTableFull", err)
	}
}

// TestPoolAppendPastTupleLimit: through a pool with a journal, the row a
// full shard refuses fails its caller (and is not a WAL failure), fails a
// batch's row alone, and recovery replays its record into the same
// refusal — the recovered pool equals one that was only ever offered the
// accepted rows, with no acknowledged row missing.
func TestPoolAppendPastTupleLimit(t *testing.T) {
	const limit = 3
	newPool := func() *Pool {
		p, err := NewPool(gamelogSchema(t), PoolOptions{Shards: 1, ShardDim: "team"})
		if err != nil {
			t.Fatal(err)
		}
		lowerTupleLimit(t, p.shards[0].eng, limit)
		return p
	}
	f := newPoolFixture(t)
	reference := newPool()
	defer reference.Close()
	live := newPool()
	w := f.openWAL(t, live)
	if err := live.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	for _, r := range table1Rows[:limit] {
		if _, err := live.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
		if _, err := reference.Append(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	r := table1Rows[limit]
	if arr, err := live.Append(r.d, r.m); !errors.Is(err, relation.ErrTableFull) || errors.Is(err, ErrWALFailed) || arr != nil {
		t.Fatalf("append to a full shard: arrival %+v, error %v, want ErrTableFull", arr, err)
	}
	arrs, err := live.AppendBatch([]Row{{Dims: r.d, Measures: r.m}})
	if !errors.Is(err, relation.ErrTableFull) || len(arrs) != 1 || arrs[0] != nil {
		t.Fatalf("batch to a full shard: arrivals %v, error %v, want one nil arrival and ErrTableFull", arrs, err)
	}
	if live.Len() != limit || live.Metrics() != reference.Metrics() {
		t.Fatalf("the refused rows moved the pool: %d tuples, metrics %+v, want %d and %+v",
			live.Len(), live.Metrics(), limit, reference.Metrics())
	}
	live.Close() // simulated crash
	w.Close()

	recovered := newPool()
	defer recovered.Close()
	w2 := f.openWAL(t, recovered)
	defer w2.Close()
	stats, err := recovered.ReplayWAL(w2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != limit || stats.Failed != 2 {
		t.Fatalf("replay stats = %+v, want %d applied / 2 failed", stats, limit)
	}
	if recovered.Len() != limit || recovered.Metrics() != reference.Metrics() {
		t.Errorf("recovered pool: %d tuples, metrics %+v, want %d and %+v",
			recovered.Len(), recovered.Metrics(), limit, reference.Metrics())
	}
}
