package situfact

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/factindex"
	"repro/internal/lattice"
	"repro/internal/prominence"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subspace"
)

// Sentinel errors for Delete/Update outcomes; test with errors.Is. The
// returned errors wrap these with the offending shard/tuple in the text.
var (
	// ErrNotFound reports a shard or tuple id that does not exist.
	ErrNotFound = errors.New("not found")
	// ErrAlreadyDeleted reports a tuple that was already retracted.
	ErrAlreadyDeleted = errors.New("already deleted")
	// ErrDeleteUnsupported reports a Delete against an engine whose
	// algorithm cannot retract tuples (only the BottomUp family can).
	ErrDeleteUnsupported = errors.New("delete unsupported")
)

// Direction selects the preferred ordering of a measure attribute.
type Direction = relation.Direction

// Measure direction values.
const (
	LargerBetter  = relation.LargerBetter
	SmallerBetter = relation.SmallerBetter
)

// Algorithm names a discovery algorithm from the paper.
type Algorithm string

// The available algorithms. STopDown and SBottomUp share computation
// across measure subspaces (§V-C); the baselines exist mainly for
// benchmarking. Algorithm names resolve through core.NewDiscoverer's table
// of the eight.
const (
	AlgoBruteForce  Algorithm = "bruteforce"
	AlgoBaselineSeq Algorithm = "baselineseq"
	AlgoBaselineIdx Algorithm = "baselineidx"
	AlgoCCSC        Algorithm = "ccsc"
	AlgoBottomUp    Algorithm = "bottomup"
	AlgoTopDown     Algorithm = "topdown"
	AlgoSBottomUp   Algorithm = "sbottomup"
	AlgoSTopDown    Algorithm = "stopdown"
)

// Algorithms returns the names of every registered algorithm, sorted.
func Algorithms() []string { return core.Algorithms() }

// Options configures an Engine. The zero value selects SBottomUp (the
// paper's fastest in-memory algorithm) with prominence tracking, no caps,
// and in-memory storage.
type Options struct {
	// Algorithm selects the discovery algorithm; empty = SBottomUp.
	Algorithm Algorithm
	// MaxBoundDims is the paper's d̂: constraints may bind at most this
	// many dimension attributes. 0 or negative = no cap.
	MaxBoundDims int
	// MaxMeasureDims is the paper's m̂: measure subspaces contain at most
	// this many attributes. 0 or negative = no cap.
	MaxMeasureDims int
	// StoreDir, when non-empty, selects the file-backed µ(C,M) store
	// rooted at this directory (the paper's FS* variants), for a single
	// Engine: only the lattice algorithms use a store, and a Pool refuses
	// one, since its reads are served from the in-memory store's fact index.
	StoreDir string
	// DisableProminence turns off context counting and fact scoring;
	// Arrival.Facts then carries prominence 0. Prominence requires a
	// lattice algorithm (BottomUp/TopDown family).
	DisableProminence bool
}

// Condition is one bound attribute of a fact's context, e.g. team=Celtics.
type Condition struct {
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// Fact is one discovered situational fact, decoded for human consumption.
//
// Conditions and Measures are read-only: the facts of one arrival that
// share a context (or a measure subspace) share one backing array for it.
// The slices are capped at their length, so appending to one copies and
// leaves the neighbours alone; writing an element in place does not.
type Fact struct {
	// Conditions is the conjunctive context constraint; empty means the
	// whole table.
	Conditions []Condition `json:"conditions"`
	// Measures names the attributes of the measure subspace.
	Measures []string `json:"measures"`
	// ContextSize is |σ_C(R)| including the new tuple (0 when prominence
	// tracking is disabled).
	ContextSize int64 `json:"context_size,omitempty"`
	// SkylineSize is |λ_M(σ_C(R))| including the new tuple (0 when
	// prominence tracking is disabled).
	SkylineSize int `json:"skyline_size,omitempty"`
	// Prominence is ContextSize/SkylineSize (0 when tracking is disabled).
	Prominence float64 `json:"prominence,omitempty"`
}

// String renders the fact in the paper's notation.
func (f Fact) String() string {
	var b strings.Builder
	if len(f.Conditions) == 0 {
		b.WriteString("⊤")
	}
	for i, c := range f.Conditions {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(c.Attr)
		b.WriteByte('=')
		b.WriteString(c.Value)
	}
	b.WriteString(" | {")
	b.WriteString(strings.Join(f.Measures, ", "))
	b.WriteString("}")
	if f.SkylineSize > 0 {
		fmt.Fprintf(&b, " (prominence %.3g = %d/%d)", f.Prominence, f.ContextSize, f.SkylineSize)
	}
	return b.String()
}

// Arrival reports the outcome of appending one tuple.
type Arrival struct {
	// TupleID is the arrival position (0-based). For Pool arrivals it is
	// the position within the owning shard's substream.
	TupleID int64
	// Shard is the index of the pool shard that processed the arrival; 0
	// for a standalone Engine.
	Shard int
	// Facts are the situational facts pertinent to this arrival, sorted by
	// descending prominence when tracking is enabled: all of them, or the
	// first of that ranking under a cap (Pool.AppendContext).
	Facts []Fact
	// FactCount is the number of facts the arrival has, carried or not.
	FactCount int
}

// Top returns the k highest-prominence facts of those carried.
func (a *Arrival) Top(k int) []Fact {
	if k <= 0 || k >= len(a.Facts) {
		return a.Facts
	}
	return a.Facts[:k]
}

// Prominent returns the facts attaining the arrival's maximum prominence,
// provided it is at least tau — the paper's §VII definition — among those
// carried. It returns nil when prominence tracking is disabled.
func (a *Arrival) Prominent(tau float64) []Fact {
	if len(a.Facts) == 0 || a.Facts[0].SkylineSize == 0 {
		return nil
	}
	best := a.Facts[0].Prominence
	if best < tau {
		return nil
	}
	out := make([]Fact, 0, 4)
	for _, f := range a.Facts {
		if f.Prominence != best {
			break
		}
		out = append(out, f)
	}
	return out
}

// Metrics is a snapshot of the engine's work counters.
type Metrics struct {
	// Tuples, Comparisons, Traversed, Facts mirror core.Metrics.
	Tuples      int64 `json:"tuples"`
	Comparisons int64 `json:"comparisons"`
	Traversed   int64 `json:"traversed"`
	Facts       int64 `json:"facts"`
	// StoredTuples and Cells describe the µ store (Fig 10b's quantity).
	StoredTuples int64 `json:"stored_tuples"`
	Cells        int64 `json:"cells"`
	// Reads and Writes count cell loads and saves (only the file store does
	// real I/O): discovery's and deletion repair's, the paper's §VI I/O
	// count, plus under the TopDown family the loads that size the skylines
	// of an arrival's ranked facts.
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
}

// Add accumulates o into m field-by-field; the one place the counter list
// is spelled out for merging (Pool.Metrics, per-shard monitoring views).
func (m *Metrics) Add(o Metrics) {
	m.Tuples += o.Tuples
	m.Comparisons += o.Comparisons
	m.Traversed += o.Traversed
	m.Facts += o.Facts
	m.StoredTuples += o.StoredTuples
	m.Cells += o.Cells
	m.Reads += o.Reads
	m.Writes += o.Writes
}

// Engine is the streaming discovery engine. It is not safe for concurrent
// use; arrivals are inherently ordered.
type Engine struct {
	schema  *relation.Schema
	table   *relation.Table
	disc    core.Discoverer
	sizer   core.SkylineSizer
	counter *core.ContextCounter
	ranker  prominence.Ranker // arrival's ranking scratch, kept warm
	deleted map[int64]bool

	// mem is the in-memory µ store of a BottomUp-family engine, resolved
	// once at construction, and fidx orders its live constraints by key for
	// the read path. Both are nil for every other engine (TopDown, the
	// baselines, the file store): only under Invariant 1 is a stored cell
	// the contextual skyline a read reports, and a Pool runs no other
	// engine. The store's constraint-lifecycle observer keeps fidx current,
	// so EVERY mutation path — ingest, delete, WAL replay, snapshot-restore
	// cell replay, follower tail apply — does without its own hook.
	mem  *store.Memory
	fidx *factindex.Index
	// hidden is the full measure space 𝕄 when an m̂ cap leaves it out of the
	// reported subspaces, 0 otherwise. SBottomUp keeps µ(C, 𝕄) under the cap
	// to share its full-space comparisons with the subspace passes (§V-C);
	// those cells are not facts, and the read path steps over them.
	hidden subspace.Mask

	dec factDecoder

	// construction parameters retained for snapshots
	algorithm  Algorithm
	maxBound   int
	maxMeasure int
}

// New creates an engine over the schema.
func New(schema *Schema, opt Options) (*Engine, error) {
	if schema == nil || schema.rs == nil {
		return nil, fmt.Errorf("situfact: nil schema")
	}
	rs := schema.rs
	maxBound := opt.MaxBoundDims
	if maxBound <= 0 {
		maxBound = -1
	}
	maxMeasure := opt.MaxMeasureDims
	if maxMeasure <= 0 {
		maxMeasure = -1
	}
	cfg := core.Config{Schema: rs, MaxBound: maxBound, MaxMeasure: maxMeasure}
	algo := opt.Algorithm
	if algo == "" {
		algo = AlgoSBottomUp
	}
	var fileSt *store.File
	if opt.StoreDir != "" {
		fs, err := store.NewFile(opt.StoreDir, rs)
		if err != nil {
			return nil, err
		}
		cfg.Store = fs
		fileSt = fs
	}
	// Every error return below this point must release the file store.
	fail := func(err error) (*Engine, error) {
		if fileSt != nil {
			fileSt.Close()
		}
		return nil, err
	}
	disc, err := core.NewDiscoverer(string(algo), cfg)
	if err != nil {
		// The registry error is re-prefixed here; drop its internal
		// package prefix so callers see one coherent message.
		return fail(fmt.Errorf("situfact: %s", strings.TrimPrefix(err.Error(), "core: ")))
	}
	// The lattice families can size contextual skylines; the baselines
	// cannot.
	sizer, _ := disc.(core.SkylineSizer)
	eng := &Engine{
		schema:     rs,
		table:      relation.NewTable(rs),
		disc:       disc,
		algorithm:  algo,
		maxBound:   maxBound,
		maxMeasure: maxMeasure,
	}
	eng.dec = newFactDecoder(rs, eng.table.Dict(), maxBound)
	if maxMeasure > 0 && maxMeasure < rs.NumMeasures() {
		eng.hidden = subspace.Full(rs.NumMeasures())
	}
	if !opt.DisableProminence {
		if sizer == nil {
			return fail(fmt.Errorf("situfact: prominence tracking requires a lattice algorithm (BottomUp/TopDown family); %q has no µ store", algo))
		}
		eng.sizer = sizer
		// The counts are a column over the µ store's own key table: one id
		// per constraint finds its block and its count.
		in := disc.(interface{ Store() store.Store }).Store().Interner()
		eng.counter = core.NewContextCounterOver(in, rs.NumDims(), maxBound)
	}
	if bu, ok := disc.(*core.BottomUp); ok {
		eng.mem, _ = bu.Store().(*store.Memory)
	}
	if mem := eng.mem; mem != nil {
		in := mem.Interner()
		idx := factindex.New(func(id uint32) string { return string(in.Key(id)) }, mem.Masks)
		mem.SetObserver(func(c store.ConstraintID, live bool) {
			if live {
				idx.Insert(c)
			} else {
				idx.Delete(c)
			}
		})
		eng.fidx = idx
	}
	return eng, nil
}

// Append processes one arriving tuple: dims are the dimension values in
// schema order, measures the measure values in schema order. It returns
// the arrival's situational facts, all of them, ranked.
func (e *Engine) Append(dims []string, measures []float64) (*Arrival, error) {
	return e.append(dims, measures, math.MaxInt)
}

// append is Append with an arrival carrying only the k best of its facts
// (none for k ≤ 0, which leaves the count).
func (e *Engine) append(dims []string, measures []float64, k int) (*Arrival, error) {
	tu, raw, err := e.apply(dims, measures)
	if err != nil {
		return nil, err
	}
	return e.arrival(tu, raw, k), nil
}

// apply is what an arriving tuple changes: it joins the table, discovery
// folds it into the µ store (and, through the store's observer, the fact
// index) and the context counters count it. The facts come back raw.
func (e *Engine) apply(dims []string, measures []float64) (*relation.Tuple, []core.Fact, error) {
	tu, err := e.table.Append(dims, measures)
	if err != nil {
		return nil, nil, err
	}
	raw := e.disc.Process(tu)
	if e.counter != nil {
		e.counter.Observe(tu)
	}
	return tu, raw, nil
}

// arrival is what append does after apply: it scores every fact discovery
// found for tu, then decodes the k best (the first k of prominence.Score's
// ranking) straight into the arrival, in that order. An arrival that
// carries no fact (k ≤ 0: replay, a follower's apply, a batch ack) is
// counted, not ranked: a BottomUp-family fact carries its skyline size, so
// ranking loads no cell and skipping it changes no counter a replica must
// share.
func (e *Engine) arrival(tu *relation.Tuple, raw []core.Fact, k int) *Arrival {
	arr := &Arrival{TupleID: tu.ID, FactCount: len(raw)}
	if k <= 0 {
		return arr
	}
	defer e.dec.endArrival()
	if e.counter != nil {
		e.ranker.Rank(raw, e.counter, e.sizer, k)
		arr.Facts = make([]Fact, e.ranker.Len())
		for i := range arr.Facts {
			sf := e.ranker.At(i)
			arr.Facts[i] = Fact{
				Conditions:  e.dec.conditions(sf.Constraint),
				Measures:    e.dec.measures(sf.Subspace),
				ContextSize: sf.ContextSize,
				SkylineSize: sf.SkylineSize,
				Prominence:  sf.Prominence,
			}
		}
		return arr
	}
	// Without prominence the order is that of the rendered facts; each is
	// rendered once, not once per comparison.
	arr.Facts = make([]Fact, min(k, len(raw)))
	type rendered struct {
		text string
		fact Fact
	}
	byText := make([]rendered, len(raw))
	for i, rf := range raw {
		f := Fact{Conditions: e.dec.conditions(rf.Constraint), Measures: e.dec.measures(rf.Subspace)}
		byText[i] = rendered{f.String(), f}
	}
	slices.SortFunc(byText, func(a, b rendered) int { return strings.Compare(a.text, b.text) })
	for i := range arr.Facts {
		arr.Facts[i] = byText[i].fact
	}
	return arr
}

// factDecoder turns the coded facts of one arrival into Facts without
// decoding anything twice: an arrival has thousands of facts but they draw
// on at most 2^d contexts and 2^m measure subspaces.
type factDecoder struct {
	schema *relation.Schema
	dict   *relation.Dict

	// names[M] is the measure-name list of subspace M, built on first use
	// and never written again; every fact over M shares it.
	names [][]string

	// byMask[b] is the decoded context of the current arrival's constraint
	// binding the attributes in b. Every constraint of one arrival is a
	// member of C^t, so the bound mask identifies it. The entries belong to
	// the arrival being built: endArrival drops them (filled lists which),
	// and the slices themselves are carved from arena, which is allocated
	// fresh and never written again once handed out.
	byMask [][]Condition
	filled []lattice.Mask
	arena  []Condition
	chunk  int // arena allocation size: room for all of C^t when that is small
}

func newFactDecoder(rs *relation.Schema, dict *relation.Dict, maxBound int) factDecoder {
	chunk := 0
	for _, m := range lattice.CtMasks(rs.NumDims(), maxBound) {
		chunk += lattice.PopCount(m)
	}
	return factDecoder{
		schema: rs,
		dict:   dict,
		names:  make([][]string, 1<<uint(rs.NumMeasures())),
		byMask: make([][]Condition, 1<<uint(rs.NumDims())),
		chunk:  min(chunk, 256),
	}
}

// measures returns the shared name list of subspace m.
func (d *factDecoder) measures(m subspace.Mask) []string {
	names := d.names[m]
	if names == nil {
		names = subspace.Names(m, d.schema)
		names = names[:len(names):len(names)]
		d.names[m] = names
	}
	return names
}

// conditions returns the decoded context of c, shared by every fact of the
// current arrival with that constraint; nil for ⊤.
func (d *factDecoder) conditions(c lattice.Constraint) []Condition {
	bound := c.BoundMask()
	if conds := d.byMask[bound]; conds != nil || bound == 0 {
		return conds
	}
	if n := lattice.PopCount(bound); cap(d.arena)-len(d.arena) < n {
		d.arena = make([]Condition, 0, max(d.chunk, n))
	}
	start := len(d.arena)
	for i, v := range c.Vals {
		if v != lattice.Wildcard {
			d.arena = append(d.arena, Condition{Attr: d.schema.Dim(i).Name, Value: d.dict.Decode(i, v)})
		}
	}
	conds := d.arena[start:len(d.arena):len(d.arena)]
	d.byMask[bound] = conds
	d.filled = append(d.filled, bound)
	return conds
}

// endArrival forgets the arrival's contexts: the next arrival binds other
// values under the same masks, and what was handed out is now the
// caller's.
func (d *factDecoder) endArrival() {
	for _, b := range d.filled {
		d.byMask[b] = nil
	}
	d.filled = d.filled[:0]
	d.arena = nil
}

// Delete retracts a previously appended tuple by ID — the paper's §VIII
// "deletion and update of data" extension. The µ store is repaired
// exactly (tuples that the deleted one was suppressing re-enter their
// contextual skylines) and prominence counters are decremented.
//
// Deletion is supported by the BottomUp family only (Invariant 1 makes
// local repair possible); engines running other algorithms return an
// error. An update is a Delete followed by an Append.
func (e *Engine) Delete(tupleID int64) error {
	bu, ok := e.disc.(deleter)
	if !ok {
		return fmt.Errorf("situfact: Delete requires the BottomUp family; engine runs %s: %w",
			e.disc.Name(), ErrDeleteUnsupported)
	}
	if tupleID < 0 || tupleID >= int64(e.table.Len()) {
		return fmt.Errorf("situfact: Delete: tuple %d: %w", tupleID, ErrNotFound)
	}
	if e.deleted[tupleID] {
		return fmt.Errorf("situfact: Delete: tuple %d: %w", tupleID, ErrAlreadyDeleted)
	}
	tu := e.table.At(int(tupleID))
	bu.Delete(tu, e.alive())
	if e.counter != nil {
		e.counter.Unobserve(tu)
	}
	if e.deleted == nil {
		e.deleted = make(map[int64]bool)
	}
	e.deleted[tupleID] = true
	return nil
}

// Update retracts tuple tupleID and appends its replacement, returning
// the replacement's arrival. Like Delete it requires the BottomUp family.
// A replacement of the wrong shape is refused before anything is retracted.
func (e *Engine) Update(tupleID int64, dims []string, measures []float64) (*Arrival, error) {
	if err := e.table.CheckRow(dims, measures); err != nil {
		return nil, err
	}
	if err := e.Delete(tupleID); err != nil {
		return nil, err
	}
	return e.Append(dims, measures)
}

// deleter is the deletion capability the engine discovers on its
// algorithm: core.BottomUp (plain and shared) satisfies it.
type deleter interface {
	Delete(u *relation.Tuple, alive []*relation.Tuple)
}

// alive returns the non-deleted tuples.
func (e *Engine) alive() []*relation.Tuple {
	if len(e.deleted) == 0 {
		return e.table.Tuples()
	}
	out := make([]*relation.Tuple, 0, e.table.Len()-len(e.deleted))
	for _, tu := range e.table.Tuples() {
		if !e.deleted[tu.ID] {
			out = append(out, tu)
		}
	}
	return out
}

// Len returns the number of live (appended and not deleted) tuples.
func (e *Engine) Len() int { return e.table.Len() - len(e.deleted) }

// Algorithm returns the name of the underlying algorithm.
func (e *Engine) Algorithm() string { return e.disc.Name() }

// Metrics returns a snapshot of the work counters.
func (e *Engine) Metrics() Metrics {
	m := e.disc.Metrics()
	s := e.disc.StoreStats()
	return Metrics{
		Tuples: m.Tuples, Comparisons: m.Comparisons,
		Traversed: m.Traversed, Facts: m.Facts,
		StoredTuples: s.StoredTuples, Cells: s.Cells,
		Reads: s.Reads, Writes: s.Writes,
	}
}

// Close releases the engine's resources (file-store handles).
func (e *Engine) Close() error { return e.disc.Close() }
