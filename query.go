package situfact

import (
	"cmp"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/factindex"
	"repro/internal/lattice"
	"repro/internal/store"
	"repro/internal/subspace"
)

// The pool's read path: point lookups of stored tuples and paginated,
// filtered scans of the current fact set (under BottomUp's Invariant 1 —
// the engines a pool runs — every (context, subspace) cell of the µ store
// IS a contextual skyline, i.e. a group of situational facts). Reads
// take each shard's read lock only while collecting that
// shard's page, so they ride alongside ingest instead of stalling it —
// and, through the same methods, a read-only follower serves the exact
// query surface the leader does.
//
// Determinism contract: results are ordered by (shard, constraint key,
// subspace mask) — coordinates that are a pure function of the logical
// cell, independent of interning order or store layout. A leader and a
// follower that hold the same logical state therefore return bit-identical
// pages for the same query, which is what the replication tests assert.

// FactFilter selects facts for Pool.QueryFacts. The zero value selects
// everything.
type FactFilter struct {
	// Shard restricts the scan to one shard; negative scans all shards.
	// The zero value selects shard 0; use -1 (or AllShards) for all.
	Shard int
	// Conditions, when non-empty, keep only facts whose context binds
	// every listed attribute to exactly the listed value. Attributes not
	// listed are unconstrained (bound or wildcard).
	Conditions []Condition
	// Measures, when non-empty, keeps only facts over exactly this measure
	// subspace (order-insensitive).
	Measures []string
	// WithTuple, when true, keeps only facts whose contextual skyline
	// contains TupleID. Tuple ids are per-shard coordinates, so it
	// requires Shard >= 0.
	WithTuple bool
	TupleID   int64
}

// AllShards is the FactFilter.Shard value that scans every shard.
const AllShards = -1

// QueryFact is one fact group of a query result: one (context, subspace)
// cell of a shard's µ store, i.e. one contextual skyline.
type QueryFact struct {
	Shard       int         `json:"shard"`
	Conditions  []Condition `json:"conditions,omitempty"`
	Measures    []string    `json:"measures"`
	ContextSize int64       `json:"context_size,omitempty"`
	SkylineSize int         `json:"skyline_size"`
	Prominence  float64     `json:"prominence,omitempty"`
	// TupleIDs are the skyline members (per-shard tuple ids), ascending.
	TupleIDs []int64 `json:"tuple_ids"`

	// Pagination coordinates (constraint key bytes + subspace mask);
	// internal, carried so the pool can order results and mint cursors.
	sortKey  string
	sortMask uint32
}

// String renders the fact group in the paper's notation.
func (q QueryFact) String() string {
	f := Fact{
		Conditions: q.Conditions, Measures: q.Measures,
		ContextSize: q.ContextSize, SkylineSize: q.SkylineSize,
		Prominence: q.Prominence,
	}
	return f.String()
}

// FactPage is one page of Pool.QueryFacts results.
type FactPage struct {
	Facts []QueryFact
	// NextCursor resumes the scan after the last returned fact; empty
	// when the scan may be complete. (A cursor can point past the final
	// fact, in which case the next page is empty with an empty cursor.)
	NextCursor string
}

// TupleInfo is one stored tuple, decoded, as returned by Pool.Tuple.
type TupleInfo struct {
	Shard    int       `json:"shard"`
	TupleID  int64     `json:"tuple_id"`
	Dims     []string  `json:"dims"`
	Measures []float64 `json:"measures"`
	Deleted  bool      `json:"deleted"`
}

// queryPlan is a FactFilter validated against the schema: condition and
// measure names resolved to dimension indices and a subspace mask. Values
// stay as strings — they resolve per shard, against each shard's own
// dictionary.
type queryPlan struct {
	condDims []int
	condVals []string
	mask     subspace.Mask
	haveMask bool
	tuple    bool
	tupleID  int64
}

func (p *Pool) planQuery(f FactFilter) (queryPlan, error) {
	var q queryPlan
	rs := p.schema.rs
	seen := make(map[int]string, len(f.Conditions))
	for _, c := range f.Conditions {
		dim := rs.DimIndex(c.Attr)
		if dim < 0 {
			return q, fmt.Errorf("situfact: query: unknown dimension attribute %q", c.Attr)
		}
		if prev, dup := seen[dim]; dup {
			if prev != c.Value {
				return q, fmt.Errorf("situfact: query: attribute %q constrained to both %q and %q",
					c.Attr, prev, c.Value)
			}
			continue
		}
		seen[dim] = c.Value
		q.condDims = append(q.condDims, dim)
		q.condVals = append(q.condVals, c.Value)
	}
	for _, name := range f.Measures {
		i := rs.MeasureIndex(name)
		if i < 0 {
			return q, fmt.Errorf("situfact: query: unknown measure attribute %q", name)
		}
		q.mask |= 1 << uint(i)
		q.haveMask = true
	}
	if f.WithTuple {
		if f.Shard < 0 {
			return q, fmt.Errorf("situfact: query: a tuple filter needs a shard (tuple ids are per-shard)")
		}
		if f.TupleID < 0 {
			return q, fmt.Errorf("situfact: query: negative tuple id %d", f.TupleID)
		}
		q.tuple = true
		q.tupleID = f.TupleID
	}
	return q, nil
}

// queryCursor is a decoded pagination cursor: resume strictly after the
// cell (key, mask) of the given shard.
type queryCursor struct {
	shard int
	key   string
	mask  uint32
}

const cursorVersion = "v1"

func encodeCursor(c queryCursor) string {
	raw := fmt.Sprintf("%s|%d|%s|%d", cursorVersion, c.shard, hex.EncodeToString([]byte(c.key)), c.mask)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

func decodeCursor(s string) (queryCursor, error) {
	var c queryCursor
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return c, fmt.Errorf("situfact: query: malformed cursor")
	}
	parts := strings.Split(string(raw), "|")
	if len(parts) != 4 || parts[0] != cursorVersion {
		return c, fmt.Errorf("situfact: query: malformed cursor")
	}
	shard, err := strconv.Atoi(parts[1])
	if err != nil || shard < 0 {
		return c, fmt.Errorf("situfact: query: malformed cursor")
	}
	key, err := hex.DecodeString(parts[2])
	if err != nil {
		return c, fmt.Errorf("situfact: query: malformed cursor")
	}
	mask, err := strconv.ParseUint(parts[3], 10, 32)
	if err != nil {
		return c, fmt.Errorf("situfact: query: malformed cursor")
	}
	c.shard, c.key, c.mask = shard, string(key), uint32(mask)
	return c, nil
}

// QueryFacts returns the pool's fact groups matching the filter, ordered
// by (shard, constraint key, subspace mask), up to limit of them
// (limit <= 0 = no cap) starting after the cursor ("" = from the start).
// It reads the incremental fact index: per shard, one O(log n) seek to
// the resume position and an O(page) forward walk, never collecting or
// sorting the shard's full fact set. Each shard's read lock is held only
// while that shard's cells are collected — one shard at a time, never
// across the whole call — so queries and ingest interleave per shard.
// The tests' reference scan (scanFacts, query_oracle_test.go) must return
// bit-identical pages, cursors included.
func (p *Pool) QueryFacts(f FactFilter, cursor string, limit int) (FactPage, error) {
	return p.QueryFactsContext(context.Background(), f, cursor, limit)
}

// QueryFactsContext is QueryFacts with a cancellation point between
// shards: a ctx that ends mid-scan (client disconnect, request
// deadline) stops before the next shard's lock is taken and returns
// ctx's error. The per-shard work itself is not interrupted — a shard's
// read lock is held only for one page fragment, which is the bounded
// unit of work.
func (p *Pool) QueryFactsContext(ctx context.Context, f FactFilter, cursor string, limit int) (FactPage, error) {
	if f.Shard >= len(p.shards) {
		return FactPage{}, fmt.Errorf("situfact: query: shard %d of %d: %w", f.Shard, len(p.shards), ErrNotFound)
	}
	plan, err := p.planQuery(f)
	if err != nil {
		return FactPage{}, err
	}
	var cur *queryCursor
	if cursor != "" {
		c, err := decodeCursor(cursor)
		if err != nil {
			return FactPage{}, err
		}
		if c.shard >= len(p.shards) {
			return FactPage{}, fmt.Errorf("situfact: query: malformed cursor")
		}
		if f.Shard >= 0 && c.shard != f.Shard {
			return FactPage{}, fmt.Errorf("situfact: query: cursor belongs to a different query")
		}
		cur = &c
	}
	first, last := 0, len(p.shards)-1
	if f.Shard >= 0 {
		first, last = f.Shard, f.Shard
	}
	var page FactPage
	for shard := first; shard <= last; shard++ {
		if cur != nil && shard < cur.shard {
			continue
		}
		if err := ctx.Err(); err != nil {
			return FactPage{}, fmt.Errorf("situfact: query: %w", err)
		}
		var after *queryCursor
		if cur != nil && shard == cur.shard {
			after = cur
		}
		want := 0
		if limit > 0 {
			want = limit - len(page.Facts)
		}
		s := &p.shards[shard]
		s.mu.RLock()
		facts, more, err := s.eng.queryFactsSeek(plan, shard, after, want)
		s.mu.RUnlock()
		if err != nil {
			return FactPage{}, err
		}
		page.Facts = append(page.Facts, facts...)
		if limit > 0 && len(page.Facts) == limit {
			// More may follow: later cells of this shard, or any later
			// shard. Only the last matching cell of the last shard ends
			// the scan with certainty.
			if more || shard < last {
				qf := page.Facts[len(page.Facts)-1]
				page.NextCursor = encodeCursor(queryCursor{
					shard: shard, key: qf.sortKey, mask: qf.sortMask,
				})
			}
			return page, nil
		}
	}
	return page, nil
}

// factFromCell builds the QueryFact for one matching cell: c is the cell at
// ent, and cons must be the parse of ent.Key. It is the single construction
// point shared by the served path and the tests' reference scan, so the two
// emit bit-identical facts.
func (e *Engine) factFromCell(shard int, ent factindex.Entry, c store.Cell, cons lattice.Constraint) QueryFact {
	d := e.table.Dict()
	qf := QueryFact{
		Shard:       shard,
		Measures:    subspace.Names(subspace.Mask(ent.Mask), e.schema),
		SkylineSize: c.Len(),
		TupleIDs:    c.IDList(),
		sortKey:     ent.Key,
		sortMask:    ent.Mask,
	}
	slices.Sort(qf.TupleIDs)
	for dim, v := range cons.Vals {
		if v < 0 {
			continue
		}
		qf.Conditions = append(qf.Conditions, Condition{
			Attr:  e.schema.Dim(dim).Name,
			Value: d.Decode(dim, v),
		})
	}
	if e.counter != nil {
		qf.ContextSize = e.counter.SizeOf(ent.ID)
		if qf.SkylineSize > 0 {
			qf.Prominence = float64(qf.ContextSize) / float64(qf.SkylineSize)
		}
	}
	return qf
}

// keyAfterPrefix returns the smallest byte string ordering strictly after
// every string with the given prefix, and false when none exists (the
// prefix is empty or all 0xFF — i.e. nothing past it).
func keyAfterPrefix(prefix string) (string, bool) {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			b := []byte(prefix[:i+1])
			b[i]++
			return string(b), true
		}
	}
	return "", false
}

// queryFactsSeek collects up to want fact groups (want <= 0 = all)
// matching the plan, in (constraint key, subspace mask) order, starting
// strictly after the cursor position (nil = from the start), by seeking
// the shard's incremental fact index instead of walking the store. more
// reports whether at least one further matching cell follows the returned
// ones. Filter predicates are pushed down as re-seeks: a condition or
// subspace mismatch skips the whole non-matching key run in one O(log n)
// jump rather than visiting its cells. The caller holds the shard's read
// lock, which is what makes iterating the live tree safe.
func (e *Engine) queryFactsSeek(q queryPlan, shard int, after *queryCursor, want int) (facts []QueryFact, more bool, err error) {
	mem, fidx := e.mem, e.fidx
	// Resolve condition values against this shard's dictionary: a value
	// the shard never saw matches nothing here (other shards may hold it).
	d := e.table.Dict()
	condCodes := make([]int32, len(q.condDims))
	for i, dim := range q.condDims {
		code, ok := d.Lookup(dim, q.condVals[i])
		if !ok {
			return nil, false, nil
		}
		condCodes[i] = code
	}
	nd := e.schema.NumDims()
	keyLen := 4 * nd
	// Condition predicates as fixed key blocks, in increasing key-offset
	// order: the first mismatching block (leftmost) determines where the
	// matching key region continues, so pushdown must compare left to
	// right regardless of the order the filter listed the conditions.
	type condBlock struct {
		off  int
		want string
	}
	blocks := make([]condBlock, len(q.condDims))
	for i, dim := range q.condDims {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(condCodes[i]))
		blocks[i] = condBlock{off: 4 * dim, want: string(b[:])}
	}
	slices.SortFunc(blocks, func(a, b condBlock) int { return cmp.Compare(a.off, b.off) })
	// The index hands out a constraint's cells as one run of masks: its key
	// is parsed on the first cell of the run that reaches the page.
	var cons lattice.Constraint
	parsedFor := ""

	var it *factindex.Iter
	switch {
	case after == nil:
		it = fidx.Seek("", 0)
	case after.mask == ^uint32(0):
		it = fidx.Seek(after.key+"\x00", 0)
	default:
		it = fidx.Seek(after.key, after.mask+1)
	}
	for it.Valid() {
		// The key alone decides the pushdown: a constraint the conditions
		// rule out is left without its cells being read.
		key, _ := it.Constraint()
		if len(key) != keyLen {
			// Surface exactly the error the reference scan would (via ParseKey).
			_, perr := lattice.ParseKey(lattice.Key(key), nd)
			return nil, false, fmt.Errorf("situfact: query: shard %d: %w", shard, perr)
		}
		seeked := false
		for _, b := range blocks {
			got := key[b.off : b.off+4]
			if got == b.want {
				continue
			}
			if got < b.want {
				// The matching region for this prefix starts at the wanted
				// block value; jump to it.
				it.SeekGE(key[:b.off]+b.want, 0)
			} else if next, ok := keyAfterPrefix(key[:b.off]); ok {
				// Already past the wanted value under this prefix: no key
				// with the prefix can match anymore; skip the whole prefix.
				it.SeekGE(next, 0)
			} else {
				return facts, false, nil // nothing orders after the prefix
			}
			seeked = true
			break
		}
		if seeked {
			continue
		}
		ent := it.Entry()
		if ent.Mask == uint32(e.hidden) {
			it.Next() // the full space, last of its constraint's masks
			continue
		}
		if q.haveMask && ent.Mask != uint32(q.mask) {
			if ent.Mask < uint32(q.mask) {
				it.SeekGE(ent.Key, uint32(q.mask))
			} else {
				// Keys are fixed-length, so key+"\x00" orders after every
				// (key, mask) pair and before any other key.
				it.SeekGE(ent.Key+"\x00", 0)
			}
			continue
		}
		c := mem.Peek(store.Ref(ent.ID, subspace.Mask(ent.Mask)))
		if q.tuple && !c.ContainsID(q.tupleID) {
			it.Next()
			continue
		}
		if want > 0 && len(facts) == want {
			return facts, true, nil // the page is full and a match follows it
		}
		if ent.Key != parsedFor {
			var perr error
			if cons, perr = lattice.ParseKey(lattice.Key(ent.Key), nd); perr != nil {
				return nil, false, fmt.Errorf("situfact: query: shard %d: %w", shard, perr)
			}
			parsedFor = ent.Key
		}
		facts = append(facts, e.factFromCell(shard, ent, c, cons))
		it.Next()
	}
	return facts, false, nil
}

// TopFacts returns the k highest-prominence fact groups currently live
// across all shards — the paper's §VII ranking |σ_C(R)| / |λ_M(σ_C(R))|
// over the current µ-store state, deletes included. Order: prominence
// descending, then (shard, constraint key, subspace mask) ascending, so
// ties break deterministically and leader and follower agree byte for
// byte. Each shard contributes its own k best, found under its read lock
// by a walk over its constraints (Engine.topFacts), and only those are
// materialised; scanTopFacts (query_oracle_test.go), which materialises
// and sorts every fact group, is the reference it must equal.
func (p *Pool) TopFacts(k int) ([]QueryFact, error) {
	if k <= 0 {
		return nil, nil
	}
	var all []QueryFact
	for shard := range p.shards {
		s := &p.shards[shard]
		s.mu.RLock()
		facts, err := s.eng.topFacts(shard, k)
		s.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		all = append(all, facts...)
	}
	slices.SortFunc(all, func(a, b QueryFact) int {
		return cmp.Or(cmp.Compare(b.Prominence, a.Prominence), cmp.Compare(a.Shard, b.Shard),
			strings.Compare(a.sortKey, b.sortKey), cmp.Compare(a.sortMask, b.sortMask))
	})
	return all[:min(k, len(all))], nil
}

// topCell is a candidate of a shard's top k: its prominence and the index
// entry that finds its cell again.
type topCell struct {
	prom float64
	ent  factindex.Entry
}

// bestCells orders cells as TopFacts ranks them within a shard and keeps
// the first k.
func bestCells(cells []topCell, k int) []topCell {
	slices.SortFunc(cells, func(a, b topCell) int {
		if c := cmp.Compare(b.prom, a.prom); c != 0 {
			return c
		}
		return cmp.Or(strings.Compare(a.ent.Key, b.ent.Key), cmp.Compare(a.ent.Mask, b.ent.Mask))
	})
	return cells[:min(k, len(cells))]
}

// topFacts returns the shard's k highest-prominence fact groups, best
// first; the caller holds the shard's read lock. It is a threshold walk
// over the fact index's constraints, not its cells: ctx(C) = |σ_C(R)|,
// read under the id the index item carries, bounds the prominence of every
// cell of C (a live skyline has at least one tuple), so a constraint whose
// ctx is strictly below the bar — the k-th best prominence among the
// candidates when they were last cut back to k — is stepped over whole.
// Strictly, because a cell that equals the bar may still win the (key,
// mask) tie-break. Candidates gather up to 2k before each cut, so keeping
// them costs O(log k) a cell. Without a counter every ctx is 0, nothing is
// skipped and the answer is the first k cells in key order.
func (e *Engine) topFacts(shard, k int) ([]QueryFact, error) {
	mem, fidx := e.mem, e.fidx
	var best []topCell
	bar := -1.0 // below every prominence until k candidates have been seen
	for it := fidx.Seek("", 0); it.Valid(); it.NextConstraint() {
		key, id := it.Constraint()
		ctx := 0.0
		if e.counter != nil {
			ctx = float64(e.counter.SizeOf(id))
		}
		if ctx < bar {
			continue // stepped over whole: its block is never read
		}
		for _, mask := range it.Masks() {
			if mask == uint32(e.hidden) {
				continue
			}
			size := mem.Peek(store.Ref(id, mask)).Len()
			if prom := ctx / float64(size); prom >= bar {
				best = append(best, topCell{prom, factindex.Entry{Key: key, ID: id, Mask: mask}})
				if len(best)/2 >= k {
					best = bestCells(best, k)
					bar = best[k-1].prom
				}
			}
		}
	}
	best = bestCells(best, k)
	facts := make([]QueryFact, len(best))
	for i, c := range best {
		cons, err := lattice.ParseKey(lattice.Key(c.ent.Key), e.schema.NumDims())
		if err != nil {
			return nil, fmt.Errorf("situfact: query: shard %d: %w", shard, err)
		}
		cell := mem.Peek(store.Ref(c.ent.ID, subspace.Mask(c.ent.Mask)))
		facts[i] = e.factFromCell(shard, c.ent, cell, cons)
	}
	return facts, nil
}

// factGroups is the number of fact groups the read path serves: the live
// cells, less the hidden full-space ones. The caller holds the shard's read
// lock.
func (e *Engine) factGroups() int64 {
	n := e.mem.Stats().Cells
	if e.hidden != 0 {
		for c, end := store.ConstraintID(0), e.mem.Interner().Len(); int(c) < end; c++ {
			if e.mem.Peek(store.Ref(c, e.hidden)).Len() > 0 {
				n--
			}
		}
	}
	return n
}

// Tuple returns stored tuple tupleID of the given shard, decoded, under
// the shard's read lock.
func (p *Pool) Tuple(shard int, tupleID int64) (TupleInfo, error) {
	if shard < 0 || shard >= len(p.shards) {
		return TupleInfo{}, fmt.Errorf("situfact: pool: shard %d of %d: %w", shard, len(p.shards), ErrNotFound)
	}
	s := &p.shards[shard]
	s.mu.RLock()
	info, err := s.eng.tupleInfo(tupleID)
	s.mu.RUnlock()
	if err != nil {
		return TupleInfo{}, err
	}
	info.Shard = shard
	return info, nil
}

// tupleInfo decodes one stored tuple. The caller holds the shard's read
// lock.
func (e *Engine) tupleInfo(tupleID int64) (TupleInfo, error) {
	if tupleID < 0 || tupleID >= int64(e.table.Len()) {
		return TupleInfo{}, fmt.Errorf("situfact: tuple %d: %w", tupleID, ErrNotFound)
	}
	tu := e.table.Tuples()[tupleID]
	d := e.table.Dict()
	info := TupleInfo{
		TupleID:  tupleID,
		Dims:     make([]string, len(tu.Dims)),
		Measures: append([]float64(nil), tu.Raw...),
		Deleted:  e.deleted[tupleID],
	}
	for i, code := range tu.Dims {
		info.Dims[i] = d.Decode(i, code)
	}
	return info, nil
}
