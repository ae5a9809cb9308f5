package persist

import (
	"repro/internal/faultfs"

	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Pool snapshots are generational: shard files carry a generation number,
// and the manifest — written last, atomically — is the commit record
// naming the generation it covers. A save that dies partway leaves either
// no manifest (fresh directory: the next start begins clean) or the
// previous manifest still pointing at the previous generation's complete
// file set; mixed-generation restores are impossible. After a successful
// commit, Sweep leaves the directory holding that one generation.

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

// Sweep deletes what dir holds of pool snapshots besides generation gen,
// the one its manifest commits: the shard files of every other generation
// (a superseded one, or one a crash left uncommitted) and the temp files of
// a shard or manifest write that a crash cut off before its rename. It
// touches nothing else, and no subdirectory (the WAL's). Best-effort: once
// the manifest moved on such a file can never be restored, so one that
// survives is garbage, not a hazard, and the next sweep retries it.
func Sweep(dir string, gen uint64) {
	entries, _ := os.ReadDir(dir)
	keep := fmt.Sprintf(".g%d.snap", gen)
	for _, e := range entries {
		name := e.Name()
		shard, _ := filepath.Match("shard-*.g*.snap", name)
		tmp, _ := filepath.Match("shard-*.tmp-*", name)
		tmpMan, _ := filepath.Match(ManifestName+".tmp-*", name)
		if !e.IsDir() && (shard && !strings.HasSuffix(name, keep) || tmp || tmpMan) {
			os.Remove(filepath.Join(dir, name))
		}
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
