package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Snapshot files carry a whole-store image: the checkpointer's encoded
// Registry export, opaque to this package. Layout:
//
//	"PNSNAP01" | u64 lastLSN | u32 len | data | u32 crc
//
// where the CRC covers everything before it. A snapshot is written to a
// .tmp file, fsynced, then renamed into place, so a crash mid-write
// leaves the previous snapshot untouched (D19); recovery picks the
// newest snapshot whose CRC validates and ignores the rest.
const snapMagic = "PNSNAP01"

func snapPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", lsn))
}

// WriteSnapshot durably stores data as the checkpoint covering every
// record up to and including lsn, then prunes log segments and older
// snapshots the new checkpoint makes redundant. The file write happens
// OUTSIDE the log mutex: group commits keep appending while a large
// image syncs to disk — the lock is taken only to validate and to
// publish the finished snapshot (D22).
func (l *Log) WriteSnapshot(data []byte, lsn uint64) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: closed")
	}
	if l.failed != nil {
		// The store's memory now holds NACKed mutations the log never
		// captured; snapshotting it would durably persist writes the
		// server told clients had failed.
		err := l.failed
		l.mu.Unlock()
		return fmt.Errorf("wal: failed: %w", err)
	}
	if lsn < l.snap {
		cur := l.snap
		l.mu.Unlock()
		return fmt.Errorf("wal: snapshot at %d older than existing %d", lsn, cur)
	}
	if lsn > l.tail {
		cur := l.tail
		l.mu.Unlock()
		return fmt.Errorf("wal: snapshot at %d claims records beyond the tail %d", lsn, cur)
	}
	l.mu.Unlock()
	if uint64(len(data)) > 1<<32-1 {
		// The u32 length prefix would wrap: the file would publish, its
		// covered segments would be pruned, and the next boot would fail
		// the length check with the history already gone.
		return fmt.Errorf("wal: snapshot of %d bytes exceeds the u32 frame limit", len(data))
	}

	buf := make([]byte, 0, len(snapMagic)+8+4+len(data)+4)
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint64(buf, lsn)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, data...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	final := snapPath(l.opts.Dir, lsn)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		// The rename may not be durable: prune nothing it would cover.
		return fmt.Errorf("wal: snapshot: %w", err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.snap {
		// A newer snapshot published while we wrote; ours is redundant.
		os.Remove(final)
		return nil
	}
	l.snap = lsn
	l.stats.Snapshots++
	l.stats.SnapshotLSN = lsn
	l.pruneCoveredLocked()
	l.pruneSnapshotsLocked()
	return nil
}

// pruneSnapshotsLocked drops every snapshot file older than the published
// one: the one it superseded, and any an earlier WriteSnapshot renamed
// into place but never published because its directory fsync failed.
// Best-effort; extras are harmless, since recovery takes the newest valid
// one. Must hold l.mu.
func (l *Log) pruneSnapshotsLocked() {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if lsn, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && lsn < l.snap {
			os.Remove(filepath.Join(l.opts.Dir, e.Name()))
		}
	}
}

// Snapshot returns the newest valid snapshot's payload and coverage
// LSN. When lsn > 0 but ok is false, a snapshot is supposed to exist
// and could not be loaded — the caller must treat that as corruption,
// not absence (recovering the WAL tail alone would fabricate state).
// The first call after Open is served from the payload Open already
// validated; later calls re-read the file.
func (l *Log) Snapshot() (data []byte, lsn uint64, ok bool) {
	l.mu.Lock()
	snap := l.snap
	cache := l.snapCache
	l.snapCache = nil
	dir := l.opts.Dir
	l.mu.Unlock()
	if snap == 0 {
		return nil, 0, false
	}
	if cache != nil {
		return cache, snap, true
	}
	data, ok = loadSnapshot(snapPath(dir, snap))
	return data, snap, ok
}

// loadSnapshot reads and validates one snapshot file.
func loadSnapshot(path string) ([]byte, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	min := len(snapMagic) + 8 + 4 + 4
	if len(raw) < min || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, false
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, false
	}
	n := binary.BigEndian.Uint32(raw[len(snapMagic)+8:])
	data := body[len(snapMagic)+8+4:]
	if int(n) != len(data) {
		return nil, false
	}
	return data, true
}

// loadSnapshotLSN locates the newest snapshot file whose CRC validates,
// quarantining invalid ones so they are never considered again.
func (l *Log) loadSnapshotLSN(entries []os.DirEntry) uint64 {
	var lsns []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			// Crash mid-WriteSnapshot: the rename never happened.
			os.Remove(filepath.Join(l.opts.Dir, e.Name()))
			continue
		}
		if lsn, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] }) // newest first
	best := uint64(0)
	for _, lsn := range lsns {
		path := snapPath(l.opts.Dir, lsn)
		if best > 0 {
			// Older than the chosen snapshot: superseded. These leak when
			// a crash lands between publishing a new snapshot and removing
			// the previous one — clean them up here.
			os.Remove(path)
			continue
		}
		if data, ok := loadSnapshot(path); ok {
			l.snapCache = data // hand the already-validated bytes to the first Snapshot()
			best = lsn
			continue
		}
		os.Rename(path, path+".corrupt")
	}
	return best
}
