package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	situfact "repro"
)

// FuzzParseTupleID throws arbitrary strings at the "<shard>:<tuple_id>"
// parser used by DELETE /v1/tuples/{id} and GET /v1/tuples/{id}. It must
// never panic, and any id it accepts must have a canonical form that
// parses back to the same (shard, tuple) pair — otherwise two spellings
// of one id could name different tuples.
func FuzzParseTupleID(f *testing.F) {
	f.Add("2:17")
	f.Add("17")
	f.Add("0:0")
	f.Add("-1:-1")
	f.Add("1:2:3")
	f.Add(":")
	f.Add("")
	f.Add("+1:07")
	f.Add("9999999999999999999999:1")
	f.Fuzz(func(t *testing.T, id string) {
		shard, tuple, err := parseTupleID(id, situfact.AllShards, 1)
		if err != nil {
			return
		}
		canon := fmt.Sprintf("%d:%d", shard, tuple)
		shard2, tuple2, err := parseTupleID(canon, situfact.AllShards, 1)
		if err != nil {
			t.Fatalf("canonical form %q of accepted id %q does not re-parse: %v", canon, id, err)
		}
		if shard2 != shard || tuple2 != tuple {
			t.Fatalf("id %q parsed as (%d,%d) but canonical %q re-parsed as (%d,%d)",
				id, shard, tuple, canon, shard2, tuple2)
		}
	})
}

// FuzzParseFactsQuery feeds arbitrary raw query strings through
// url.ParseQuery into the GET /v1/facts parameter parser. Invariants for
// accepted queries: the page limit is clamped to [1, factsMaxLimit], a
// tuple filter always carries a concrete shard, and parsing is
// deterministic (the derived cache key in particular — two parses of the
// same query must hit the same cache entry).
func FuzzParseFactsQuery(f *testing.F) {
	cfg := gamelogConfig(2, "")
	s, err := newServer(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer s.close()

	f.Add("shard=1&where=month=Feb&limit=10")
	f.Add("where=team=t1&where=player=p3&measures=points,assists")
	f.Add("tuple=1:44&cursor=djF8MHww")
	f.Add("tuple=12&shard=0")
	f.Add("limit=0")
	f.Add("limit=99999&shard=-2")
	f.Add("where=nokey&where==&measures=,")
	f.Add("cursor=!!!not-base64!!!")
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		fq, err := s.parseFactsQuery(s.db(), q)
		if err != nil {
			return
		}
		if fq.limit < 1 || fq.limit > factsMaxLimit {
			t.Fatalf("query %q: limit %d outside [1, %d]", raw, fq.limit, factsMaxLimit)
		}
		if fq.filter.WithTuple && fq.filter.Shard < 0 {
			t.Fatalf("query %q: tuple filter without a concrete shard: %+v", raw, fq.filter)
		}
		if fq.key == "" {
			t.Fatalf("query %q: empty cache key", raw)
		}
		fq2, err := s.parseFactsQuery(s.db(), q)
		if err != nil {
			t.Fatalf("query %q: second parse failed: %v", raw, err)
		}
		if fq2.key != fq.key {
			t.Fatalf("query %q: non-deterministic cache key: %q vs %q", raw, fq.key, fq2.key)
		}
	})
}

// FuzzDecodeBody throws arbitrary bodies at the ingest decoder, as an
// append and as a batch. A body it accepts is exactly one JSON value of the
// request type: the whole body is one valid JSON value, it decodes to what
// json.Unmarshal makes of it, and the body followed by any further byte
// that is not space is refused. A refusal is a 400 (413 past the cap),
// never a panic.
func FuzzDecodeBody(f *testing.F) {
	row := `{"dims":["Bogues","Feb","1991-92","Hornets","Hawks"],"measures":[4,12,5]}`
	for _, body := range []string{
		row,
		row + " " + row,
		row + "}",
		row + "]",
		row + " \n",
		`{"rows":[` + row + `],"top":2}`,
		`{"rows":[` + row + `]} {"rows":[]}`,
		`{"rows":[` + row + `]}]`,
		`{"dims":[],"measures":[],"bogus":1}`,
		`null`,
		``,
	} {
		f.Add(body)
	}
	targets := []func() any{func() any { return new(tupleRequest) }, func() any { return new(batchRequest) }}
	decode := func(t *testing.T, body string, v any) bool {
		rec := httptest.NewRecorder()
		ok := decodeBody(rec, httptest.NewRequest("POST", "/v1/tuples", strings.NewReader(body)), 1<<20, v)
		if !ok && rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("body %q refused with status %d", body, rec.Code)
		}
		return ok
	}
	f.Fuzz(func(t *testing.T, body string) {
		for _, mk := range targets {
			got := mk()
			if !decode(t, body, got) {
				continue
			}
			want := mk()
			if !json.Valid([]byte(body)) || json.Unmarshal([]byte(body), want) != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("accepted %q as %T %+v: not the one JSON value it holds", body, got, got)
			}
			for _, tail := range []string{"}", "]", "x", "0", "{}", body} {
				if strings.TrimSpace(tail) != "" && decode(t, body+tail, mk()) {
					t.Fatalf("accepted %q followed by %q", body, tail)
				}
			}
		}
	})
}
