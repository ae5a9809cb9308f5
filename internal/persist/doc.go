// Package persist is the durability layer of the repo: everything that
// touches disk to make a long-running stream survive a crash lives here,
// behind thin public wrappers in the root package.
//
// Three cooperating pieces:
//
//   - WAL — a segmented, CRC-framed write-ahead log of ingest operations
//     (appends and deletes). Records are assigned monotonically increasing
//     LSNs, encoded into the log's pending-frame buffer, and made durable
//     by group-committed fsyncs: concurrent WaitSync callers coalesce into
//     a single write and fsync covering all of them. Segments rotate at a size
//     threshold and are deleted once a snapshot covers them.
//
//   - Snapshot — the codec for one engine's complete state (dictionary,
//     tuples, tombstones, µ-store cells, prominence counters, work
//     metrics). Format v2 is written: the µ store's per-constraint blocks
//     flat, in length-prefixed, checksummed sections (snapshot.go has the
//     layout). Format v1, one gob struct per engine, is read only, so
//     older state directories restore. Both decode to the same checked,
//     flat Snapshot; errors wrap ErrCorruptSnapshot.
//
//   - Manifest — the generational commit record of a pool snapshot
//     directory. Shard files carry a generation number; the manifest,
//     written last and atomically, names the generation it covers, the
//     per-shard WAL LSN each shard file reflects (so replay resumes
//     exactly where the snapshot ends), and small opaque sidecar payloads
//     committed atomically with the snapshot (the daemon persists its
//     prominence leaderboard this way).
//
// Crash-safety rules the WAL reader enforces: a record whose bytes are
// incomplete at the tail of the final segment is a torn write — it is
// truncated away and the log continues from the last complete record. A
// record that is fully present but fails its CRC, appears out of LSN
// sequence, or sits in a non-final segment with a short tail is corruption
// and fails loudly: recovering past it would silently lose data.
package persist
