package main

// The load generator: closed-loop writers (a feed adapter waits for its
// durable ack before sending the next event) and a reader that is either
// open-loop at a fixed rate beside the writers (independent dashboard
// users; timed from when each read was due) or a closed-loop sweep of a
// quiet daemon.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"
)

// newConn returns a client that holds exactly one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// tally is what one generator goroutine observed.
type tally struct {
	latMs     []float64 // per timed request past the warm-up
	lateMs    []float64 // open-loop reader: how late each request was sent
	attempted int
	failed    int
	reqBytes  int64 // writers only
	respBytes int64
	rows      int   // rows acknowledged
	wrong     error // first answer that disagreed with the gate
}

func (t *tally) add(o tally) {
	t.latMs = append(t.latMs, o.latMs...)
	t.lateMs = append(t.lateMs, o.lateMs...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
	t.rows += o.rows
	if t.wrong == nil {
		t.wrong = o.wrong
	}
}

// arrivalJSON is the part of an append acknowledgement the gate checks.
type arrivalJSON struct {
	ID        string `json:"id"`
	FactCount int    `json:"fact_count"`
	Facts     []struct {
		Text string `json:"text"`
	} `json:"facts"`
}

// gate holds the expected answers.
type gate struct {
	st     *stream
	rows   []expect    // from the reference pool
	oracle map[int]int // from brute force
}

func (g *gate) check(ri int, a *arrivalJSON) error {
	if a == nil {
		return fmt.Errorf("row %d: no arrival in the response", ri)
	}
	if want := fmt.Sprintf("%d:%d", g.st.shardOf[ri], g.st.tupleID[ri]); a.ID != want {
		return fmt.Errorf("row %d: acked as %s, its shard substream position is %s", ri, a.ID, want)
	}
	if n, ok := g.oracle[ri]; ok && a.FactCount != n {
		return fmt.Errorf("row %d (%s): fact_count %d, brute force (Alg. 2) finds %d", ri, a.ID, a.FactCount, n)
	}
	e := g.rows[ri]
	if a.FactCount != e.factCount {
		return fmt.Errorf("row %d (%s): fact_count %d, reference pool %d", ri, a.ID, a.FactCount, e.factCount)
	}
	if e.top != nil {
		if len(a.Facts) != len(e.top) {
			return fmt.Errorf("row %d (%s): %d top facts, reference pool %d", ri, a.ID, len(a.Facts), len(e.top))
		}
		for i, f := range a.Facts {
			if f.Text != e.top[i] {
				return fmt.Errorf("row %d (%s): top fact %d is %q, reference pool %q", ri, a.ID, i, f.Text, e.top[i])
			}
		}
	}
	return nil
}

// write sends one connection's requests in order, each after the previous
// one's response, timing send → full response. The first warm requests
// are sent but not sampled. span, when non-nil, is told each sampled
// request's rows and interval.
func write(client *http.Client, base string, list []op, g *gate, warm int, span func(rows []int, start, end time.Time)) tally {
	var t tally
	t.latMs = make([]float64, 0, len(list))
	for i, o := range list {
		start := time.Now()
		status, body, err := send(client, o.method, base+o.path, o.body)
		lat := time.Since(start)
		t.attempted++
		t.reqBytes += int64(len(o.body))
		t.respBytes += int64(len(body))
		want := http.StatusOK
		if o.method == "DELETE" {
			want = http.StatusNoContent
		}
		if err != nil || status != want {
			t.failed++
			if t.wrong == nil {
				t.wrong = fmt.Errorf("%s %s: status %d, err %v: %s", o.method, o.path, status, err, tail(string(body), 200))
			}
			continue
		}
		if i >= warm {
			t.latMs = append(t.latMs, float64(lat)/float64(time.Millisecond))
			if span != nil {
				span(o.rows, start, start.Add(lat))
			}
		}
		t.rows += len(o.rows)
		if err := checkAck(o, body, g); err != nil && t.wrong == nil {
			t.wrong = err
		}
	}
	return t
}

func checkAck(o op, body []byte, g *gate) error {
	switch {
	case o.method == "DELETE":
		return nil
	case o.path == "/v1/tuples":
		var a arrivalJSON
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("POST /v1/tuples: %w", err)
		}
		return g.check(o.rows[0], &a)
	default:
		var b struct {
			Arrivals []*arrivalJSON `json:"arrivals"`
			Error    string         `json:"error"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("POST /v1/tuples:batch: %w", err)
		}
		if b.Error != "" || len(b.Arrivals) != len(o.rows) {
			return fmt.Errorf("POST /v1/tuples:batch: %d arrivals for %d rows, error %q", len(b.Arrivals), len(o.rows), b.Error)
		}
		for i, ri := range o.rows {
			if err := g.check(ri, b.Arrivals[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// send issues one request and reads the whole response.
func send(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, answer, err
}

// reader cycles a fixed list of dashboard reads: mostly cursor pages of one
// team's facts, with the leaderboard and a point read mixed in. Three
// quarters are pages, so both the median and the tail are a page's.
// ?source=live is left out on purpose: it ranks every stored fact group per
// fill (≈0.7 s at 330 000 groups on the baseline machine), so one of them
// in the cycle would turn every read metric into a measurement of that scan
// and its lock hold. It is measured in-process as query.top_us.
type reader struct {
	client *http.Client
	base   string
	teams  []string // where=team= values, cycled as each walk ends
	ids    []string // tuple handles for point reads
	n      int      // reads issued
	team   int
	cursor string
	id     int
}

var readCycle = [8]string{"page", "page", "top", "page", "page", "tuple", "page", "page"}

func newReader(base string, st *stream, rows int) *reader {
	r := &reader{client: newConn(), base: base}
	seen := map[string]bool{}
	for i := 0; i < rows; i++ {
		if v := st.rows[i].Dims[st.shardDim]; !seen[v] {
			seen[v] = true
			r.teams = append(r.teams, v)
		}
	}
	sort.Strings(r.teams)
	for i := 0; i < rows; i += max(1, rows/64) {
		r.ids = append(r.ids, fmt.Sprintf("%d:%d", st.shardOf[i], st.tupleID[i]))
	}
	return r
}

// next issues the next read of the cycle and reports whether it succeeded.
func (r *reader) next() bool {
	kind := readCycle[r.n%len(readCycle)]
	r.n++
	var path string
	switch kind {
	case "page":
		q := url.Values{"limit": {"50"}, "where": {"team=" + r.teams[r.team%len(r.teams)]}}
		if r.cursor != "" {
			q.Set("cursor", r.cursor)
		}
		path = "/v1/facts?" + q.Encode()
	case "top":
		path = "/v1/facts/top?k=10"
	case "tuple":
		path = "/v1/tuples/" + r.ids[r.id%len(r.ids)]
		r.id++
	}
	status, body, err := send(r.client, "GET", r.base+path, nil)
	if err != nil || status != http.StatusOK || len(body) == 0 || body[0] != '{' {
		return false
	}
	if kind == "page" {
		// Resume this team's walk, or move to the next team when it ends.
		if r.cursor, err = lastCursor(body); err != nil {
			return false
		}
		if r.cursor == "" {
			r.team++
		}
	}
	return true
}

// sweep issues n reads back to back.
func (r *reader) sweep(n int) tally {
	var t tally
	for i := 0; i < n; i++ {
		start := time.Now()
		ok := r.next()
		t.latMs = append(t.latMs, float64(time.Since(start))/float64(time.Millisecond))
		t.count(ok)
	}
	return t
}

func (t *tally) count(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// openLoop issues reads on a fixed schedule of rate per second until stop
// closes. A read's latency runs from when it was DUE, so a stall charges
// every read it delayed; how late the generator itself sent each read is
// kept beside it.
func (r *reader) openLoop(rate int, stop <-chan struct{}) tally {
	var t tally
	period := time.Second / time.Duration(rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return t
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return t
			default:
			}
		}
		sent := time.Now()
		ok := r.next()
		t.latMs = append(t.latMs, float64(time.Since(due))/float64(time.Millisecond))
		t.lateMs = append(t.lateMs, float64(sent.Sub(due))/float64(time.Millisecond))
		t.count(ok)
	}
}
