package main

// The query endpoints: GET /v1/facts pages through the live fact set with
// filters, GET /v1/tuples/{id} is a point read of one ingested row. Both
// are read-only — they sit on Pool.QueryFacts/Pool.Tuple, which take each
// shard's read lock only for the page being built — and /v1/facts runs
// through the TTL'd singleflight cache when -read-cache-ttl is set.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	situfact "repro"
)

// factsQuery is a parsed GET /v1/facts request.
type factsQuery struct {
	filter situfact.FactFilter
	cursor string
	limit  int
	// key is the canonical cache key: parameters in a fixed order,
	// where-conditions sorted and escaped, so equivalent requests share
	// one entry and different ones never do.
	key string
}

const (
	factsDefaultLimit = 50
	factsMaxLimit     = 500
)

// parseFactsQuery maps the URL parameters onto a FactFilter:
//
//	shard=N            restrict to one shard (default: all)
//	where=attr=value   require a constraint value (repeatable, ANDed)
//	measures=a,b       restrict to facts over exactly these measures
//	tuple=S:T          facts whose skyline contains tuple T of shard S
//	cursor=...         resume token from a previous page
//	limit=N            page size (default 50, max 500)
//
// Validation of attribute and measure names against the schema happens in
// Pool.planQuery; this layer only handles wire syntax.
func (s *server) parseFactsQuery(pool *situfact.Pool, q url.Values) (factsQuery, error) {
	var fq factsQuery
	fq.filter.Shard = situfact.AllShards
	fq.filter.TupleID = -1
	if v := q.Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fq, fmt.Errorf("bad shard %q", v)
		}
		fq.filter.Shard = n
	}
	wheres := append([]string(nil), q["where"]...)
	sort.Strings(wheres)
	for i, w := range wheres {
		attr, val, found := strings.Cut(w, "=")
		if !found || attr == "" {
			return fq, fmt.Errorf("bad where %q: want attr=value", w)
		}
		fq.filter.Conditions = append(fq.filter.Conditions, situfact.Condition{Attr: attr, Value: val})
		// Escaped for the key, so an '&' or '|' inside a value cannot
		// pass for a separator: where=a=x&where=b=y and where=a=x%26b=y
		// are different queries and must not share an entry.
		wheres[i] = url.QueryEscape(w)
	}
	if v := q.Get("measures"); v != "" {
		for _, m := range strings.Split(v, ",") {
			m = strings.TrimSpace(m)
			if m == "" {
				return fq, fmt.Errorf("bad measures %q: empty name", v)
			}
			fq.filter.Measures = append(fq.filter.Measures, m)
		}
	}
	if v := q.Get("tuple"); v != "" {
		// shard= names the shard of a bare id.
		shard, tupleID, err := parseTupleID(v, fq.filter.Shard, pool.Shards())
		if err != nil {
			return fq, err
		}
		if fq.filter.Shard >= 0 && fq.filter.Shard != shard {
			return fq, fmt.Errorf("tuple %q names shard %d but shard=%d was also given", v, shard, fq.filter.Shard)
		}
		fq.filter.Shard = shard
		fq.filter.WithTuple = true
		fq.filter.TupleID = tupleID
	}
	fq.cursor = q.Get("cursor")
	fq.limit = factsDefaultLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return fq, fmt.Errorf("bad limit %q", v)
		}
		fq.limit = min(n, factsMaxLimit)
	}
	fq.key = fmt.Sprintf("facts|%d|%s|%s|%v|%d|%s|%d",
		fq.filter.Shard, strings.Join(wheres, "&"), strings.Join(fq.filter.Measures, ","),
		fq.filter.WithTuple, fq.filter.TupleID, fq.cursor, fq.limit)
	return fq, nil
}

func (s *server) handleFacts(w http.ResponseWriter, r *http.Request) {
	pool := s.db()
	fq, err := s.parseFactsQuery(pool, r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	if s.cache != nil {
		// A cache fill is shared by every request coalesced onto it; one
		// client's disconnect must not poison the others' response. The
		// fill stays bounded by the query itself, not by this request.
		ctx = context.WithoutCancel(ctx)
	}
	s.serveCached(w, fq.key, func() ([]byte, error) {
		page, err := pool.QueryFactsContext(ctx, fq.filter, fq.cursor, fq.limit)
		if err != nil {
			return nil, err
		}
		resp := factsResponse{Facts: make([]queryFactWire, len(page.Facts)), NextCursor: page.NextCursor}
		for i := range page.Facts {
			resp.Facts[i] = toQueryFactWire(&page.Facts[i])
		}
		return marshalBody(resp)
	})
}

func (s *server) handleTuple(w http.ResponseWriter, r *http.Request) {
	pool := s.db()
	shard, tupleID, err := parseTupleID(r.PathValue("id"), situfact.AllShards, pool.Shards())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	info, err := pool.Tuple(shard, tupleID)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, situfact.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeErr(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, tupleResponse{
		ID:       fmt.Sprintf("%d:%d", info.Shard, info.TupleID),
		Shard:    info.Shard,
		TupleID:  info.TupleID,
		Dims:     info.Dims,
		Measures: info.Measures,
		Deleted:  info.Deleted,
	})
}

// serveCached writes fill's body through the read cache when one is
// configured (so concurrent identical requests share a fill), directly
// otherwise. Fill errors are mapped like any query error.
func (s *server) serveCached(w http.ResponseWriter, key string, fill func() ([]byte, error)) {
	var body []byte
	var err error
	if s.cache != nil {
		body, err = s.cache.Get(key, fill)
	} else {
		body, err = fill()
	}
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, situfact.ErrNotFound):
			status = http.StatusNotFound
		case errors.Is(err, context.DeadlineExceeded):
			// The -request-timeout budget ran out mid scan: the daemon is
			// overloaded, not the request malformed.
			w.Header().Set("Retry-After", "1")
			status = http.StatusServiceUnavailable
		case errors.Is(err, context.Canceled):
			return // client gone; nobody is reading the response
		}
		writeErr(w, status, err.Error())
		return
	}
	writeRawJSON(w, http.StatusOK, body)
}

// marshalBody renders a response body exactly as writeJSON's Encoder would
// (trailing newline included), so cached and uncached responses are
// byte-identical.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeRawJSON writes an already-rendered JSON body.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		return // client went away; nothing to do
	}
}

// toQueryFactWire converts one queried fact.
func toQueryFactWire(f *situfact.QueryFact) queryFactWire {
	conds := make([]conditionWire, len(f.Conditions))
	for i, c := range f.Conditions {
		conds[i] = conditionWire{Attr: c.Attr, Value: c.Value}
	}
	return queryFactWire{
		Shard:       f.Shard,
		Conditions:  conds,
		Measures:    f.Measures,
		ContextSize: f.ContextSize,
		SkylineSize: f.SkylineSize,
		Prominence:  f.Prominence,
		TupleIDs:    f.TupleIDs,
		Text:        f.String(),
	}
}
