package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The manifest pins a data directory's layout parameters. A sharded
// store keeps one log per shard under shard-<i>/ subdirectories, and
// the shard a structure lives in is a pure function of its name and the
// shard COUNT — so reopening a directory with a different count would
// route names to shards whose logs never heard of them, silently
// splitting structures. The manifest records the count at creation;
// openers must refuse a mismatch rather than serve divergent state.

// ManifestName is the manifest's filename inside the data directory. It
// matches neither the wal-*.log nor the snap-*.snap pattern, so segment
// scanning ignores it.
const ManifestName = "MANIFEST.json"

// ManifestVersion is the manifest format version, the only one openers
// accept: shard logs may carry GSN-stamped cross-shard records and
// snapshots a trailing GSN watermark. Openers must refuse any other
// version — a newer one names formats they cannot read.
const ManifestVersion = 2

// Manifest records the store-level parameters a data directory was
// created with.
type Manifest struct {
	// Version is the manifest format version (see ManifestVersion).
	Version int `json:"version"`

	// Shards is the number of engine partitions the directory was
	// created for; shard i logs under shard-<i>/ (a single-shard store
	// logs in the directory root).
	Shards int `json:"shards"`
}

// ReadManifest loads dir's manifest. ok is false — with nil error —
// when the directory has none.
func ReadManifest(dir string) (m Manifest, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("wal: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("wal: parse manifest: %w", err)
	}
	if m.Shards < 1 {
		return Manifest{}, false, fmt.Errorf("wal: manifest claims %d shards", m.Shards)
	}
	return m, true, nil
}

// WriteManifest durably stores m as dir's manifest (tmp + rename + dir
// sync, like snapshots: a crash mid-write leaves no torn manifest).
func WriteManifest(dir string, m Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: encode manifest: %w", err)
	}
	data = append(data, '\n')
	path := filepath.Join(dir, ManifestName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: write manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: write manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write manifest: %w", err)
	}
	syncDir(dir)
	return nil
}
