// Package core implements the situational-fact discovery algorithms of
// Sultana et al., ICDE 2014: given an append-only relation and a newly
// arrived tuple t, find every constraint–measure pair (C, M) such that t
// is a contextual skyline tuple of λ_M(σ_C(R)).
//
// Eight algorithms are provided, mirroring the paper's §IV–V:
//
//	BruteForce   Alg. 2 — compare with every tuple, per constraint, per subspace
//	BaselineSeq  Alg. 3 — sequential scan + Proposition-3 pruning
//	BaselineIdx  k-d tree one-sided range queries + Proposition-3 pruning
//	CCSC         per-context compressed skycube (§II adaptation)
//	BottomUp     Alg. 4 — µ stores all skyline tuples; bottom-up lattice BFS
//	TopDown      Alg. 5 — µ stores maximal skyline constraints; top-down BFS
//	SBottomUp    §V-C — BottomUp + sharing across measure subspaces
//	STopDown     Alg. 6 — TopDown + sharing across measure subspaces
//
// All of them produce identical fact sets; they differ in time, memory and
// I/O profiles (the subject of the paper's evaluation).
//
// The lattice algorithms keep their µ(C,M) cells in a store.Store as lists
// of tuple ids. What a scan compares against is held here, once per tuple:
// base.vecs is one flat arena of oriented measure vectors (tuple id's row
// at id·m) and base.reg resolves an id back to its tuple; both are filled
// when a tuple is first processed, or by RegisterTuple after a snapshot
// restore. Every lattice algorithm and baseline compares the arrival with
// a tuple's row once, over every measure, and tests each subspace on that
// Proposition-4 relation (relTo); BruteForce reads Def. 2 itself.
//
// Algorithms are constructed by lower-case name through NewDiscoverer's
// table of the eight. Every Discoverer reports Metrics (comparisons,
// traversed constraints, facts) and its store's I/O counters; the
// BottomUp family additionally supports exact deletion (Delete), and the
// lattice families expose contextual skyline sizes (SkylineSizer) for
// prominence scoring.
//
// ContextCounter is the other half of a prominence score, |σ_C(R)|: a column
// of counts over a store.Interner's constraint ids. An engine builds it over
// its discoverer's own table (NewContextCounterOver), so one id per
// constraint finds its µ block and its count, and whoever holds the id reads
// the count by SizeOf(id) — Each and Set speak ids too. ContextSize(bound)
// reads the last observed arrival's counts by mask, as ranking its facts
// wants them. NewContextCounter gives a standalone counter a table of its
// own.
package core
