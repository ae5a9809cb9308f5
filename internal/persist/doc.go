// Package persist is the durability layer of the repo: everything that
// touches disk to make a long-running stream survive a crash lives here,
// behind thin public wrappers in the root package.
//
// Three cooperating pieces:
//
//   - WAL — a segmented, CRC-framed write-ahead log of ingest operations
//     (appends and deletes). Records are assigned monotonically increasing
//     LSNs, encoded into the log's pending-frame buffer, and made durable
//     by group-committed fsyncs. The sync slot is one mutex: a WaitSync
//     caller that gets it writes and fsyncs everything pending, and the
//     callers that fsync covered return when they get it in turn. Close
//     and Repair hold the same slot, so the active segment has one owner.
//     A segment is sealed at the first group commit past the size
//     threshold and deleted once a snapshot covers it. A failed write or
//     fsync is the log's one sticky error until Repair clears it.
//
//   - Snapshot — the codec for one engine's complete state (dictionary,
//     tuples, tombstones, µ-store cells, prominence counters, work
//     metrics), in format v2: the µ store's per-constraint blocks flat, in
//     length-prefixed, checksummed sections (snapshot.go has the layout),
//     decoded to one checked, flat Snapshot. Errors wrap
//     ErrCorruptSnapshot; a file of the gob format v1 is refused with one.
//
//   - Manifest — the generational commit record of a pool snapshot
//     directory. Shard files carry a generation number; the manifest,
//     written last and atomically, names the generation it covers, the
//     per-shard WAL LSN each shard file reflects (so replay resumes
//     exactly where the snapshot ends), and small opaque sidecar payloads
//     committed atomically with the snapshot (a hook for a caller's
//     derived state; the daemon writes none). After a commit, Sweep
//     removes every other generation's shard files and the temp files of
//     interrupted writes, so a directory holds one generation.
//
// Crash-safety rules the WAL reader enforces: a record whose bytes are
// incomplete at the tail of the final segment is a torn write — it is
// truncated away and the log continues from the last complete record. A
// record that is fully present but fails its CRC, appears out of LSN
// sequence, or sits in a non-final segment with a short tail is corruption,
// as is a gap between segments, and fails loudly: recovering past it would
// silently lose data.
package persist
