package persist

import (
	"repro/internal/faultfs"

	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Pool snapshots are generational: shard files carry a generation number,
// and the manifest — written last, atomically — is the commit record
// naming the generation it covers. A save that dies partway leaves either
// no manifest (fresh directory: the next start begins clean) or the
// previous manifest still pointing at the previous generation's complete
// file set; mixed-generation restores are impossible. Files of superseded
// generations are removed after a successful commit.

// Manifest is the commit record of a pool snapshot directory.
type Manifest struct {
	Magic     string
	SchemaSig string
	ShardDim  string
	Shards    int
	// Generation numbers the committed shard-file set.
	Generation uint64
	// ShardLSNs[i] is the WAL LSN shard i's snapshot file reflects: replay
	// applies only records with a higher LSN to that shard. Nil for
	// snapshots taken without an attached WAL (and for pre-WAL snapshots,
	// which gob-decodes identically).
	ShardLSNs []uint64
	// WALEpoch is the epoch of the log the ShardLSNs refer to (see
	// WAL.Epoch). LSN watermarks are only meaningful against that exact
	// log instance; replay against a log with a different epoch must
	// discard them. Empty without an attached WAL.
	WALEpoch string
	// Sidecars are small opaque payloads committed atomically with the
	// snapshot, for a caller's derived state. The daemon writes none: its
	// leaderboard is the live ranking.
	Sidecars map[string][]byte
}

const (
	manifestMagic = "situfact-pool-snapshot-v1"
	// ManifestName is the manifest's file name inside the snapshot dir.
	ManifestName = "pool.manifest"
)

// ShardSnapshotName names shard i's snapshot file of a generation.
func ShardSnapshotName(i int, gen uint64) string {
	return fmt.Sprintf("shard-%d.g%d.snap", i, gen)
}

// ReadManifest loads dir's manifest; ok is false when none exists.
func ReadManifest(dir string) (man Manifest, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(&man); err != nil {
		return Manifest{}, false, fmt.Errorf("decode manifest: %w", err)
	}
	if man.Magic != manifestMagic {
		return Manifest{}, false, fmt.Errorf("%s is not a pool snapshot manifest", dir)
	}
	return man, true, nil
}

// WriteManifest atomically commits man as dir's manifest, stamping the
// magic itself.
func WriteManifest(dir string, man Manifest) error {
	man.Magic = manifestMagic
	return WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(&man)
	})
}

// RemoveGeneration deletes a superseded generation's shard files.
// Best-effort: once the manifest moved on they can never be restored, so
// a leftover file is garbage, not a hazard.
func RemoveGeneration(dir string, shards int, gen uint64) {
	for i := 0; i < shards; i++ {
		os.Remove(filepath.Join(dir, ShardSnapshotName(i, gen)))
	}
}

// WriteFileAtomic writes data produced by write to path via a temp file,
// fsync and rename, then syncs the directory — so neither a crash mid-save
// nor a power loss shortly after can leave a renamed-but-unflushed file
// behind the commit point.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(faultfs.OS, dir)
}
