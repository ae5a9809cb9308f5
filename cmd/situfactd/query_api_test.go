package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	situfact "repro"
)

// getFacts fetches one /v1/facts page and decodes it, asserting the
// status code.
func getFacts(t *testing.T, url string, wantStatus int) factsResponse {
	t.Helper()
	status, body := getBody(t, url)
	if status != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", url, status, wantStatus, body)
	}
	var page factsResponse
	if wantStatus == http.StatusOK {
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return page
}

// TestFactsEndpoint exercises GET /v1/facts over the Table I mini-world:
// filters constrain results exactly, pagination is a lossless partition
// of the unpaginated listing, and malformed parameters are rejected.
func TestFactsEndpoint(t *testing.T) {
	_, ts := startServer(t, gamelogConfig(2, ""))
	for _, row := range append(append([]situfact.Row{}, table1...), wesley) {
		if resp := doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest rejected: status %d", resp.StatusCode)
		}
	}

	drain := func(limit int) []queryFactWire {
		var facts []queryFactWire
		cursor := ""
		for {
			url := fmt.Sprintf("%s/v1/facts?limit=%d", ts.URL, limit)
			if cursor != "" {
				url += "&cursor=" + cursor
			}
			page := getFacts(t, url, http.StatusOK)
			facts = append(facts, page.Facts...)
			if page.NextCursor == "" {
				return facts
			}
			cursor = page.NextCursor
		}
	}
	all := factsResponse{Facts: drain(500)}
	if len(all.Facts) == 0 {
		t.Fatal("unfiltered listing returned no facts")
	}

	// Pagination partitions the listing: draining limit=7 pages must
	// reproduce the limit=500 drain exactly, in order.
	if paged := drain(7); !reflect.DeepEqual(paged, all.Facts) {
		t.Errorf("paginated listing diverged: %d facts at limit=7 vs %d at limit=500", len(paged), len(all.Facts))
	}

	// A condition filter returns exactly the facts carrying it. (The
	// paper's global prominence-5 reading of month=Feb | {assists} is a
	// single-shard story — root example_test covers it; here contexts
	// are per-shard, so only the filter contract is asserted.)
	feb := getFacts(t, ts.URL+"/v1/facts?where=month=Feb&measures=assists", http.StatusOK)
	if len(feb.Facts) == 0 {
		t.Fatal("where=month=Feb&measures=assists returned no facts")
	}
	bare := false
	for _, f := range feb.Facts {
		found := false
		for _, c := range f.Conditions {
			if c.Attr == "month" && c.Value == "Feb" {
				found = true
			}
		}
		if !found {
			t.Errorf("fact %q lacks the month=Feb condition", f.Text)
		}
		if len(f.Measures) != 1 || f.Measures[0] != "assists" {
			t.Errorf("fact %q is not an {assists} fact", f.Text)
		}
		if len(f.Conditions) == 1 {
			bare = true
		}
	}
	if !bare {
		t.Error("no single-condition month=Feb | {assists} fact in the listing")
	}

	// A tuple filter returns only facts whose skyline holds that tuple.
	ref := all.Facts[0]
	tupleURL := fmt.Sprintf("%s/v1/facts?tuple=%d:%d", ts.URL, ref.Shard, ref.TupleIDs[0])
	tp := getFacts(t, tupleURL, http.StatusOK)
	if len(tp.Facts) == 0 {
		t.Fatalf("tuple filter %d:%d returned no facts", ref.Shard, ref.TupleIDs[0])
	}
	for _, f := range tp.Facts {
		if f.Shard != ref.Shard {
			t.Errorf("tuple-filtered fact %q from shard %d, want %d", f.Text, f.Shard, ref.Shard)
		}
		holds := false
		for _, id := range f.TupleIDs {
			if id == ref.TupleIDs[0] {
				holds = true
			}
		}
		if !holds {
			t.Errorf("tuple-filtered fact %q does not hold tuple %d", f.Text, ref.TupleIDs[0])
		}
	}

	for _, bad := range []string{
		"where=nokey",
		"where=bogus=x",
		"where=month=Feb&where=month=Jan",
		"measures=bogus",
		"shard=-2",
		"limit=0",
		"cursor=!!!not-base64!!!",
		"tuple=0",
	} {
		getFacts(t, ts.URL+"/v1/facts?"+bad, http.StatusBadRequest)
	}
	// An out-of-range shard is a lookup miss, not a malformed query.
	getFacts(t, ts.URL+"/v1/facts?shard=9", http.StatusNotFound)
}

// TestTupleEndpoint exercises GET /v1/tuples/{id}: round-trip of a
// stored row, delete visibility, 404 for unknown ids, and the bare-id
// ambiguity guard on multi-shard pools.
func TestTupleEndpoint(t *testing.T) {
	s, ts := startServer(t, gamelogConfig(2, ""))
	for _, row := range table1 {
		if resp := doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest rejected: status %d", resp.StatusCode)
		}
	}
	shard := s.db().ShardFor(table1[0].Dims[3]) // team routes the row

	var tu tupleResponse
	url := fmt.Sprintf("%s/v1/tuples/%d:0", ts.URL, shard)
	if resp := doJSON(t, "GET", url, nil, &tu); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if tu.ID != fmt.Sprintf("%d:0", shard) || tu.Shard != shard || tu.TupleID != 0 || tu.Deleted {
		t.Errorf("tuple wire = %+v", tu)
	}
	if len(tu.Dims) != 5 || len(tu.Measures) != 3 {
		t.Errorf("tuple carries %d dims, %d measures; want 5, 3", len(tu.Dims), len(tu.Measures))
	}

	if resp := doJSON(t, "DELETE", url, nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE %s: status %d", url, resp.StatusCode)
	}
	if resp := doJSON(t, "GET", url, nil, &tu); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s after delete: status %d", url, resp.StatusCode)
	}
	if !tu.Deleted {
		t.Error("deleted tuple not marked deleted")
	}

	if status, _ := getBody(t, ts.URL+"/v1/tuples/0:999"); status != http.StatusNotFound {
		t.Errorf("unknown tuple: status %d, want 404", status)
	}
	if status, body := getBody(t, ts.URL+"/v1/tuples/3"); status != http.StatusBadRequest {
		t.Errorf("bare id on a 2-shard pool: status %d (%s), want 400", status, body)
	}
}

// TestReadCache verifies the TTL'd read cache: repeat queries are served
// from cache byte-identically, and the hit/miss counters surface in
// /v1/metrics.
func TestReadCache(t *testing.T) {
	cfg := gamelogConfig(1, "")
	cfg.readCacheTTL = time.Minute
	_, ts := startServer(t, cfg)
	for _, row := range table1 {
		if resp := doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest rejected: status %d", resp.StatusCode)
		}
	}

	url := ts.URL + "/v1/facts?limit=10&where=month=Feb"
	_, first := getBody(t, url)
	_, second := getBody(t, url)
	if !bytes.Equal(first, second) {
		t.Errorf("cached response differs from the filled one:\n%s\n%s", first, second)
	}
	_, t1 := getBody(t, ts.URL+"/v1/facts/top?k=5")
	_, t2 := getBody(t, ts.URL+"/v1/facts/top?k=5")
	if !bytes.Equal(t1, t2) {
		t.Error("cached leaderboard differs from the filled one")
	}

	m := getMetrics(t, ts.URL)
	if !m.ReadCache.Enabled {
		t.Fatal("read cache not reported enabled")
	}
	if m.ReadCache.Misses < 2 || m.ReadCache.Hits < 2 {
		t.Errorf("read cache counters hits=%d misses=%d, want >= 2 each", m.ReadCache.Hits, m.ReadCache.Misses)
	}
	if m.ReadCache.Entries < 2 {
		t.Errorf("read cache holds %d entries, want >= 2", m.ReadCache.Entries)
	}
}

// TestReadCacheKeys pins the /v1/facts cache key: with the cache on, a
// where value holding '&' or '|' must not be served the entry of the
// conditions it spells, and a permutation of the same wheres must share
// one entry. Every body must equal what a cacheless daemon answers.
func TestReadCacheKeys(t *testing.T) {
	_, ref := startServer(t, gamelogConfig(1, ""))
	const two = "where=opp_team=Nets&where=team=Celtics"
	cases := []struct {
		name, second string
		entries      int
	}{
		{"ampersand inside a value", "where=opp_team=Nets%26team=Celtics", 2},
		{"bar inside a value", "where=opp_team=Nets%7Cteam=Celtics", 2},
		{"permuted wheres", "where=team=Celtics&where=opp_team=Nets", 1},
	}
	for _, row := range table1 {
		doJSON(t, "POST", ref.URL+"/v1/tuples", reqOf(row), nil)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := gamelogConfig(1, "")
			cfg.readCacheTTL = time.Minute
			_, ts := startServer(t, cfg)
			for _, row := range table1 {
				doJSON(t, "POST", ts.URL+"/v1/tuples", reqOf(row), nil)
			}
			for _, q := range []string{two, tc.second} {
				_, got := getBody(t, ts.URL+"/v1/facts?limit=2&"+q)
				if _, want := getBody(t, ref.URL+"/v1/facts?limit=2&"+q); !bytes.Equal(got, want) {
					t.Errorf("%s: cached daemon answered\n%s\nwant\n%s", q, got, want)
				}
			}
			if n := getMetrics(t, ts.URL).ReadCache.Entries; n != tc.entries {
				t.Errorf("read cache holds %d entries, want %d", n, tc.entries)
			}
		})
	}
}
