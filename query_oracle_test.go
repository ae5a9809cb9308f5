package situfact

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/factindex"
	"repro/internal/lattice"
	"repro/internal/store"
)

// The reference read path: a full walk of each shard's µ store, sorted
// and filtered per query — O(n) per page where the served path
// (Pool.QueryFacts over the incremental fact index) is O(page). It was
// the product's read path before the index and is kept here, verbatim,
// as the reference the history checker's read checks and
// BenchmarkPoolQueryDeepCursor compare against; scanTopFacts ranks its
// output for the leaderboard's tests.

// scanFacts is QueryFacts answered by the reference scan. The filter and
// cursor must be valid (the tests take them from QueryFacts itself).
func (p *Pool) scanFacts(f FactFilter, cursor string, limit int) (FactPage, error) {
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
		s := &p.shards[shard]
		s.mu.RLock()
		facts, err := s.eng.queryFacts(plan, shard)
		s.mu.RUnlock()
		if err != nil {
			return FactPage{}, err
		}
		sort.Slice(facts, func(i, j int) bool {
			if facts[i].sortKey != facts[j].sortKey {
				return facts[i].sortKey < facts[j].sortKey
			}
			return facts[i].sortMask < facts[j].sortMask
		})
		for i := range facts {
			qf := facts[i]
			if cur != nil && shard == cur.shard {
				if qf.sortKey < cur.key || (qf.sortKey == cur.key && qf.sortMask <= cur.mask) {
					continue
				}
			}
			page.Facts = append(page.Facts, qf)
			if limit > 0 && len(page.Facts) == limit {
				// More may follow: later cells of this shard, or any later
				// shard. Only the very last cell of the last shard ends the
				// scan with certainty.
				if i < len(facts)-1 || shard < last {
					page.NextCursor = encodeCursor(queryCursor{
						shard: shard, key: qf.sortKey, mask: qf.sortMask,
					})
				}
				return page, nil
			}
		}
	}
	return page, nil
}

// scanTopFacts is TopFacts answered the way it was served before the
// threshold walk: materialise every fact group of every shard, sort them
// all, keep k. O(cells) where the walk is O(live constraints + k); kept,
// with its comparator, as the reference the history checker and the
// leaderboard's tests compare against. The facts come from the
// reference scan of the store, so the oracle does not read the index the
// walk steps through.
func (p *Pool) scanTopFacts(k int) ([]QueryFact, error) {
	if k <= 0 {
		return nil, nil
	}
	var all []QueryFact
	for shard := range p.shards {
		s := &p.shards[shard]
		s.mu.RLock()
		facts, err := s.eng.queryFacts(queryPlan{}, shard)
		s.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		all = append(all, facts...)
	}
	slices.SortFunc(all, func(a, b QueryFact) int {
		switch {
		case a.Prominence != b.Prominence:
			return cmp.Compare(b.Prominence, a.Prominence)
		case a.Shard != b.Shard:
			return cmp.Compare(a.Shard, b.Shard)
		case a.sortKey != b.sortKey:
			return strings.Compare(a.sortKey, b.sortKey)
		}
		return cmp.Compare(a.sortMask, b.sortMask)
	})
	if k < len(all) {
		all = all[:k]
	}
	return all, nil
}

// queryFacts collects the shard engine's fact groups matching the plan: the
// store's cells over subspaces within the m̂ cap. The caller holds the
// shard's read lock.
func (e *Engine) queryFacts(q queryPlan, shard int) ([]QueryFact, error) {
	mem := e.mem
	// Resolve condition values against this shard's dictionary: a value
	// the shard never saw matches nothing here (other shards may hold it).
	d := e.table.Dict()
	condCodes := make([]int32, len(q.condDims))
	for i, dim := range q.condDims {
		code, ok := d.Lookup(dim, q.condVals[i])
		if !ok {
			return nil, nil
		}
		condCodes[i] = code
	}
	nd := e.schema.NumDims()
	var out []QueryFact
	var walkErr error
	mem.Walk(func(k store.CellKey, c store.Cell) {
		if walkErr != nil {
			return
		}
		if q.haveMask && k.M != q.mask || e.maxMeasure > 0 && bits.OnesCount32(uint32(k.M)) > e.maxMeasure {
			return
		}
		if q.tuple && !c.ContainsID(q.tupleID) {
			return
		}
		cons, err := lattice.ParseKey(k.C, nd)
		if err != nil {
			walkErr = fmt.Errorf("situfact: query: shard %d: %w", shard, err)
			return
		}
		for i, dim := range q.condDims {
			if cons.Vals[dim] != condCodes[i] {
				return
			}
		}
		id, _ := mem.Interner().Lookup(k.C)
		out = append(out, e.factFromCell(shard, factindex.Entry{Key: string(k.C), ID: id, Mask: uint32(k.M)}, c, cons))
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return out, nil
}
