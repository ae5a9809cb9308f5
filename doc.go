// Package situfact is a streaming engine for discovering prominent
// situational facts, reproducing Sultana, Hassan, Li, Yang & Yu,
// "Incremental Discovery of Prominent Situational Facts", ICDE 2014 —
// grown beyond the paper into a concurrent, sharded, persistable system.
//
// A situational fact is a statement of the form "with measures M, this
// new tuple stands out against all historical tuples in context C" — e.g.
// "first Pacers player with a 20/10/5 game against the Bulls". Formally,
// the engine finds every constraint–measure pair (C, M) that qualifies an
// arriving tuple as a contextual skyline tuple, and ranks those facts by
// prominence (|σ_C(R)| / |λ_M(σ_C(R))|).
//
// Basic use:
//
//	schema, _ := situfact.NewSchemaBuilder("gamelog").
//		Dimension("player").Dimension("team").Dimension("opp_team").
//		Measure("points", situfact.LargerBetter).
//		Measure("rebounds", situfact.LargerBetter).
//		Build()
//	eng, _ := situfact.New(schema, situfact.Options{})
//	arr, _ := eng.Append(
//		[]string{"Paul George", "Pacers", "Bulls"},
//		[]float64{21, 11})
//	for _, f := range arr.Top(3) {
//		fmt.Println(f)
//	}
//
// Append returns all of an arrival's facts; Pool.AppendContext takes a cap,
// and then only the best few are sorted and decoded (all are counted).
//
// # Concurrency
//
// An Engine is single-stream (arrivals are inherently ordered) and not
// safe for concurrent use, and runs any of the paper's algorithms. For
// partitioned feeds — per-team game logs, per-station weather streams —
// Pool shards one logical stream across many engines by a chosen dimension
// and drives them concurrently; see Pool and ExamplePool. A Pool serves
// reads, deletes and checkpoints, so its engines run bottomup or sbottomup
// over the in-memory store, the only ones whose stored cells are the facts.
//
// # Persistence
//
// Pool.Checkpoint/RestorePool serialise every shard engine's full state
// (dictionary, tuples, tombstones, µ-store cells, prominence counters, work
// metrics), plus a manifest that pins the routing parameters, so a stream
// can stop and resume exactly where it left off; a WAL (OpenWAL) covers
// what came after. Options.StoreDir instead keeps a single Engine's µ(C,M)
// cells on disk continuously (the paper's FS* variants).
//
// # Beyond the library
//
// Three commands wrap the package: cmd/situfact (streaming CSV monitor),
// cmd/situfactd (HTTP daemon serving discovery over JSON, documented in
// docs/API.md), and cmd/situbench (paper-figure regeneration). bench/ is
// the end-to-end benchmark; docs/ARCHITECTURE.md maps the layers.
package situfact
