// Package store implements the µ(C,M) cell store the discovery algorithms
// maintain: for each constraint–measure-subspace pair, a small set of
// skyline tuples. Constraints are hash-consed to dense uint32 ids by an
// Interner — the one key table of an engine: an id finds the constraint's
// block here and its context count in core.ContextCounter. Cells are
// addressed by one packed uint64 (constraint id + subspace mask), and a
// cell is the 32-bit ids of its member tuples in insertion order and
// nothing else — the measure vectors live once per tuple with the
// algorithm that scans them (see docs/ARCHITECTURE.md § "Hot path & memory
// layout"). Two implementations cover the system's settings:
//
//   - Memory: one block of pointer-free slots per live constraint — 2^m
//     of them indexed by subspace mask, or past 14 measures the live ones
//     only, sorted by mask; a one-member cell is its slot, the others are
//     ranges of a pointer-free id arena (paper §VI-B) whose fixed-size
//     pages never move: a slot keeps a range's 32-bit offset, the page is
//     its high bits, and no range straddles two pages. A constraint whose
//     kept cells (Keep) all hold the same one tuple, as Install leaves
//     them, is that id and no slots until a Save changes one. The block
//     is the one record of a constraint's live cells: Masks reads them
//     off in ascending order, and the observer hears only of a block's
//     allocation and its release, which is all the fact index
//     (internal/factindex) keeps. The default, and the only store
//     snapshots serialise.
//   - File: one binary file per non-empty cell, holding the member ids
//     (four little-endian bytes each); a visit reads the whole cell into a
//     buffer, mutates the buffer, and overwrites the file when the visit
//     ends (paper §VI-C, verbatim semantics).
//
// The Load/Save protocol is shaped by the file implementation: algorithms
// Load a cell, work on the returned value, and Save it back if (and only
// if) they changed it. Install is Save of one tuple into every kept cell of
// a constraint that has none: one file per cell in the file store. The
// memory store hands out a value that shares the cell's range, making Save
// cheap; the file store performs real I/O and counts it in Stats (the cost
// driver of the paper's Figures 10 and 12).
package store
