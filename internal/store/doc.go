// Package store implements the µ(C,M) cell store the discovery algorithms
// maintain: for each constraint–measure-subspace pair, a small set of
// skyline tuples. Constraints are hash-consed to dense uint32 ids by an
// Interner, cells are addressed by one packed uint64 (constraint id +
// subspace mask), and a cell's members live in a single flat float64 row
// array — id-tagged, pointer-free, cache-contiguous (see
// docs/ARCHITECTURE.md § "Hot path & memory layout"). Two
// implementations cover the system's settings:
//
//   - Memory: append-only cell pages behind a dense, hash-free
//     slots[cid][mask] index (paper §VI-B) — the default, and the only
//     store snapshots serialise.
//   - File: one binary file per non-empty cell; a visit reads the whole
//     cell into a buffer, mutates the buffer, and overwrites the file when
//     the visit ends (paper §VI-C, verbatim semantics).
//
// The Load/Save protocol is shaped by the file implementation: algorithms
// Load a cell, work on the returned value, and Save it back if (and only
// if) they changed it. The memory store returns its live cell, making
// Save cheap; the file store performs real I/O and counts it in Stats
// (the cost driver of the paper's Figures 10 and 12).
package store
