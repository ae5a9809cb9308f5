package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	situfact "repro"
)

// TestServerPipelineEquivalence runs the same stream through the daemon
// (handlers → shard writer queues → committer) and through an
// in-process Pool that calls the write path inline: every arrival's
// facts, the merged work counters and the leaderboard must be
// identical, and the daemon's /v1/metrics must account for every
// operation in its ingest block.
func TestServerPipelineEquivalence(t *testing.T) {
	cfg := gamelogConfig(2, "")
	s, ts := startServer(t, cfg)
	defer s.close()
	ref, err := situfact.NewPool(s.schema, situfact.PoolOptions{Shards: 2, ShardDim: "team"})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	sameArrival := func(label string, got *arrivalResponse, want *situfact.Arrival) {
		t.Helper()
		if id := fmt.Sprintf("%d:%d", want.Shard, want.TupleID); got.ID != id || got.FactCount != len(want.Facts) {
			t.Fatalf("%s: daemon arrival %s/%d facts, inline pool %s/%d", label, got.ID, got.FactCount, id, len(want.Facts))
		}
		wantFacts := make([]factWire, len(want.Facts))
		for i, f := range want.Facts {
			wantFacts[i] = toWireFact(f)
		}
		if !sameJSON(t, got.Facts, wantFacts) {
			t.Fatalf("%s: facts diverged:\n daemon %+v\n inline %+v", label, got.Facts, wantFacts)
		}
	}

	var rows []rowWire
	rows = append(rows, table1...)
	rows = append(rows, wesley)
	var deleted int
	for i, row := range rows {
		want, err := ref.Append(row.Dims, row.Measures)
		if err != nil {
			t.Fatal(err)
		}
		var got arrivalResponse
		doJSON(t, http.MethodPost, ts.URL+"/v1/tuples", reqOf(row), &got)
		sameArrival(fmt.Sprintf("row %d", i), &got, want)
		// Retract one mid-stream row on both sides: deletes ride the same
		// per-shard queues as appends.
		if i == 2 {
			if err := ref.Delete(want.Shard, want.TupleID); err != nil {
				t.Fatal(err)
			}
			if resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/tuples/"+got.ID, nil, nil); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete %s: status %d", got.ID, resp.StatusCode)
			}
			deleted++
		}
	}
	// Batch through both too.
	batch := make([]situfact.Row, len(rows))
	for i, row := range rows {
		batch[i] = situfact.Row{Dims: row.Dims, Measures: row.Measures}
	}
	wantBatch, err := ref.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	var gotBatch batchResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/tuples:batch", batchRequest{Rows: rows}, &gotBatch)
	for i := range wantBatch {
		g, w := gotBatch.Arrivals[i], wantBatch[i]
		if id := fmt.Sprintf("%d:%d", w.Shard, w.TupleID); g.ID != id || g.FactCount != len(w.Facts) {
			t.Fatalf("batch row %d: daemon %s/%d facts, inline pool %s/%d", i, g.ID, g.FactCount, id, len(w.Facts))
		}
	}

	var gotM metricsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &gotM)
	if want := toWireMetrics(ref.Metrics()); gotM.Merged != want {
		t.Errorf("daemon merged metrics %+v, inline pool %+v", gotM.Merged, want)
	}
	if gotM.Len != ref.Len() {
		t.Errorf("daemon len %d, inline pool %d", gotM.Len, ref.Len())
	}
	wantTop, err := ref.TopFacts(64)
	if err != nil {
		t.Fatal(err)
	}
	var gotTop topFactsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/facts/top?k=64", nil, &gotTop)
	if len(gotTop.Facts) != len(wantTop) {
		t.Fatalf("leaderboard has %d facts, inline pool %d", len(gotTop.Facts), len(wantTop))
	}
	for i := range wantTop {
		if want := toQueryFactWire(&wantTop[i]); !sameJSON(t, gotTop.Facts[i], want) {
			t.Errorf("leaderboard entry %d diverged:\n daemon %+v\n inline %+v", i, gotTop.Facts[i], want)
		}
	}

	// The ingest block must account for every operation.
	ing := gotM.Ingest
	if !ing.Pipeline {
		t.Fatal("leader reports ingest.pipeline = false")
	}
	wantOps := uint64(2*len(rows) + deleted)
	if ing.Enqueued != wantOps {
		t.Errorf("ingest.enqueued = %d, want %d", ing.Enqueued, wantOps)
	}
	if ing.QueueDepth != 0 {
		t.Errorf("ingest.queue_depth = %d after quiescence, want 0", ing.QueueDepth)
	}
	if ing.Batches == 0 || ing.MeanBatch <= 0 {
		t.Errorf("ingest batch summary empty: %+v", ing)
	}
	if len(ing.PerShard) != 2 {
		t.Fatalf("ingest.per_shard has %d rows, want 2", len(ing.PerShard))
	}
	var perShardOps uint64
	var hist uint64
	for _, sh := range ing.PerShard {
		perShardOps += sh.Enqueued
	}
	for _, c := range ing.BatchHist {
		hist += c
	}
	if perShardOps != wantOps {
		t.Errorf("per-shard enqueued sums to %d, want %d", perShardOps, wantOps)
	}
	if hist != ing.Batches {
		t.Errorf("batch_hist sums to %d, want %d batches", hist, ing.Batches)
	}
}

// sameJSON reports whether two values have the same wire rendering.
func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestServerPipelineRecovery checkpoints and restarts a daemon with a
// WAL: recovery (which applies its records inline, before the pipeline
// starts) must hand the restarted daemon identical state.
func TestServerPipelineRecovery(t *testing.T) {
	stateDir := t.TempDir()
	cfg := gamelogConfig(2, stateDir)
	cfg.wal = true
	s, ts := startServer(t, cfg)
	for _, row := range table1 {
		doJSON(t, http.MethodPost, ts.URL+"/v1/tuples", reqOf(row), nil)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail past the checkpoint, then stop without snapshotting: the WAL
	// must carry it into the restarted daemon.
	doJSON(t, http.MethodPost, ts.URL+"/v1/tuples", reqOf(wesley), nil)
	var before metricsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &before)
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := startServer(t, cfg)
	defer s2.close()
	var after metricsResponse
	doJSON(t, http.MethodGet, ts2.URL+"/v1/metrics", nil, &after)
	if after.Merged != before.Merged {
		t.Errorf("recovered merged metrics %+v, want %+v", after.Merged, before.Merged)
	}
	if after.Len != before.Len {
		t.Errorf("recovered len %d, want %d", after.Len, before.Len)
	}
	if !after.Ingest.Pipeline {
		t.Error("recovered daemon is not running the pipeline")
	}
	// Replay ran inline: the fresh pipeline has seen no ops.
	if after.Ingest.Enqueued != 0 {
		t.Errorf("recovery enqueued %d ops onto the pipeline; replay must run inline", after.Ingest.Enqueued)
	}
}
