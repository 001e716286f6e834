package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// collect replays the log into a slice of (lsn, body) pairs.
func collect(t *testing.T, l *Log) (lsns []uint64, bodies [][]byte) {
	t.Helper()
	err := l.Replay(func(lsn uint64, body []byte) error {
		lsns = append(lsns, lsn)
		bodies = append(bodies, append([]byte(nil), body...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return lsns, bodies
}

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func body(i int) []byte { return []byte(fmt.Sprintf("record-%04d-payload", i)) }

func TestAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: true})
	for i := 1; i <= 20; i++ {
		lsn, err := l.Append(body(i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	st := l.Stats()
	if st.Appends != 20 || st.Syncs != 20 {
		t.Fatalf("stats: appends=%d syncs=%d, want 20/20 (one fsync per append)", st.Appends, st.Syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir, Fsync: true})
	defer l2.Close()
	lsns, bodies := collect(t, l2)
	if len(lsns) != 20 || l2.TailLSN() != 20 {
		t.Fatalf("recovered %d records, tail %d; want 20", len(lsns), l2.TailLSN())
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) || !bytes.Equal(bodies[i], body(i+1)) {
			t.Fatalf("record %d: lsn=%d body=%q", i, lsn, bodies[i])
		}
	}
	if st := l2.Stats(); st.RepairedTail || st.Quarantined != 0 {
		t.Fatalf("clean reopen flagged repair: %+v", st)
	}
	// New appends continue the LSN sequence.
	if lsn, err := l2.Append(body(21)); err != nil || lsn != 21 {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
}

// TestAppendRecordBytes pins the record framing byte for byte: after the
// segment header, each record is its u32 payload length, the u32 CRC32 of
// the payload, and the payload — the u64 LSN, then the body — built here
// independently of Append, from a payload slice of its own.
func TestAppendRecordBytes(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	bodies := [][]byte{body(1), nil, bytes.Repeat([]byte{0xa5}, 3000), body(4)}
	want := binary.BigEndian.AppendUint64([]byte(segMagic), 1)
	for i, b := range bodies {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		payload := binary.BigEndian.AppendUint64(nil, uint64(i+1))
		payload = append(payload, b...)
		want = binary.BigEndian.AppendUint32(want, uint32(len(payload)))
		want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
		want = append(want, payload...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes:\n got %x\nwant %x", got, want)
	}
}

// TestAppendBufferRetention: the log keeps its record buffer from one
// append to the next, except one grown past maxRetainedRecord.
func TestAppendBufferRetention(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	defer l.Close()
	for i, c := range []struct {
		size int
		kept bool
	}{{64, true}, {maxRetainedRecord, false}, {64, true}} {
		if _, err := l.Append(make([]byte, c.size)); err != nil {
			t.Fatal(err)
		}
		if kept := cap(l.recBuf) > 0; kept != c.kept || cap(l.recBuf) > maxRetainedRecord {
			t.Fatalf("append %d (%d bytes): buffer of cap %d kept", i, c.size, cap(l.recBuf))
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("no rotation despite tiny SegmentBytes: %+v", st)
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l2.Close()
	lsns, _ := collect(t, l2)
	if len(lsns) != 40 {
		t.Fatalf("recovered %d records across segments, want 40", len(lsns))
	}
}

// TestTornTailTruncated cuts the last record short at every possible
// byte boundary: replay must stop cleanly at the previous record.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int64{1, 3, 7, 9, 15} {
		dir := t.TempDir()
		l := mustOpen(t, Options{Dir: dir})
		for i := 1; i <= 5; i++ {
			if _, err := l.Append(body(i)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()

		seg := onlySegment(t, dir)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}

		l2 := mustOpen(t, Options{Dir: dir})
		lsns, _ := collect(t, l2)
		if len(lsns) != 4 {
			t.Fatalf("cut=%d: recovered %d records, want 4 (torn record dropped)", cut, len(lsns))
		}
		if st := l2.Stats(); !st.RepairedTail {
			t.Fatalf("cut=%d: repair not flagged: %+v", cut, st)
		}
		// The log must keep working after repair, and the repair must be
		// durable across another reopen.
		if lsn, err := l2.Append([]byte("after-repair")); err != nil || lsn != 5 {
			t.Fatalf("cut=%d: append after repair: lsn=%d err=%v", cut, lsn, err)
		}
		l2.Close()
		l3 := mustOpen(t, Options{Dir: dir})
		lsns, bodies := collect(t, l3)
		if len(lsns) != 5 || string(bodies[4]) != "after-repair" {
			t.Fatalf("cut=%d: after repair+append got %d records", cut, len(lsns))
		}
		l3.Close()
	}
}

// TestCRCCorruptRecord flips a byte inside a middle record: replay must
// stop at the last record before it and never surface the garbage.
func TestCRCCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 1; i <= 6; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := onlySegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := recHdrLen + 8 + len(body(1))
	// Corrupt a payload byte of record 4 (after header + 3 records).
	off := segHdrLen + 3*recLen + recHdrLen + 8 + 2
	raw[off] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	lsns, bodies := collect(t, l2)
	if len(lsns) != 3 {
		t.Fatalf("recovered %d records, want 3 (corruption stops replay)", len(lsns))
	}
	for i := range lsns {
		if !bytes.Equal(bodies[i], body(i+1)) {
			t.Fatalf("record %d corrupted in replay: %q", i+1, bodies[i])
		}
	}
	if st := l2.Stats(); !st.RepairedTail {
		t.Fatalf("repair not flagged: %+v", st)
	}
}

// TestCorruptionQuarantinesLaterSegments corrupts a record in the first
// of several segments: everything past the break — including whole
// later segments — must be dropped, not replayed out of order.
func TestCorruptionQuarantinesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("want ≥3 segments, got %d", st.Segments)
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segment files, got %d", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[segHdrLen+recHdrLen+8+1] ^= 0xff // first record's payload
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l2.Close()
	lsns, _ := collect(t, l2)
	if len(lsns) != 0 {
		t.Fatalf("recovered %d records, want 0 (first record corrupt)", len(lsns))
	}
	st := l2.Stats()
	if st.Quarantined == 0 || !st.RepairedTail {
		t.Fatalf("later segments not quarantined: %+v", st)
	}
	bad, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(bad) == 0 {
		t.Fatal("no .corrupt quarantine files")
	}
}

func TestSnapshotCoversAndTruncates(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 1; i <= 30; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot([]byte("store-image-at-20"), 20); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SnapshotLSN != 20 || st.Truncations == 0 {
		t.Fatalf("snapshot did not truncate covered segments: %+v", st)
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l2.Close()
	data, lsn, ok := l2.Snapshot()
	if !ok || lsn != 20 || string(data) != "store-image-at-20" {
		t.Fatalf("snapshot load: ok=%v lsn=%d data=%q", ok, lsn, data)
	}
	lsns, _ := collect(t, l2)
	if len(lsns) != 10 || lsns[0] != 21 || lsns[9] != 30 {
		t.Fatalf("replay after snapshot: %v (want 21..30)", lsns)
	}
}

// TestCorruptSnapshotFallsBack rots the snapshot file: recovery must
// quarantine it and fall back to replaying the whole WAL, never loading
// a snapshot whose CRC fails.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 1; i <= 10; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot([]byte("image-9"), 9); err != nil {
		t.Fatal(err)
	}
	l.Close()

	path := snapPath(dir, 9)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if _, _, ok := l2.Snapshot(); ok {
		t.Fatal("corrupt snapshot accepted")
	}
	// With no valid snapshot left, the full surviving WAL replays.
	lsns, _ := collect(t, l2)
	if len(lsns) != 10 {
		t.Fatalf("replayed %d records after snapshot fallback, want 10", len(lsns))
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap.corrupt")); len(q) == 0 {
		t.Fatal("corrupt snapshot not quarantined")
	}
}

// TestSnapshotSupersededTailAndGapChain reproduces the double-crash
// sequence: a torn tail leaves the log SHORTER than the snapshot, so
// open rotates a fresh segment at snap+1; if the stale pre-supersede
// segment is still on disk next boot (crash before its pruning), the
// LSN jump it leaves must be accepted as snapshot-bridged, not
// quarantined — records acked after the first recovery survive.
func TestSnapshotSupersededTailAndGapChain(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: true})
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot([]byte("image-3"), 3); err != nil {
		t.Fatal(err)
	}
	// Claiming coverage beyond the tail must be rejected.
	if err := l.WriteSnapshot([]byte("bogus"), 99); err == nil {
		t.Fatal("snapshot beyond the tail accepted")
	}
	l.Close()

	// Crash damage: the only segment tears back to record 2 — shorter
	// than the snapshot's coverage (3).
	seg := onlySegment(t, dir)
	preCrash, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := recHdrLen + 8 + len(body(1))
	if err := os.Truncate(seg, int64(segHdrLen+2*recLen)); err != nil {
		t.Fatal(err)
	}

	// First recovery: tail snaps forward to 3, a fresh segment starts at
	// 4, and new acked records land there.
	l2 := mustOpen(t, Options{Dir: dir, Fsync: true})
	if l2.TailLSN() != 3 {
		t.Fatalf("tail = %d, want 3 (snapshot supersedes torn log)", l2.TailLSN())
	}
	if lsn, err := l2.Append([]byte("after-supersede-4")); err != nil || lsn != 4 {
		t.Fatalf("append: lsn=%d err=%v", lsn, err)
	}
	if lsn, err := l2.Append([]byte("after-supersede-5")); err != nil || lsn != 5 {
		t.Fatalf("append: lsn=%d err=%v", lsn, err)
	}
	l2.Close()

	// Simulate a crash that happened before the stale segment was
	// pruned: put the pre-supersede segment (records 1..2 after the
	// tear) back beside the new one. The chain now jumps 2 → 4 with the
	// snapshot bridging 3.
	stale := segPath(dir, 1)
	if _, statErr := os.Stat(stale); os.IsNotExist(statErr) {
		if err := os.WriteFile(stale, preCrash[:segHdrLen+2*recLen], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l3 := mustOpen(t, Options{Dir: dir, Fsync: true})
	defer l3.Close()
	if l3.TailLSN() != 5 {
		t.Fatalf("tail = %d, want 5 (post-supersede records must survive)", l3.TailLSN())
	}
	lsns, bodies := collect(t, l3)
	if len(lsns) != 2 || lsns[0] != 4 || lsns[1] != 5 {
		t.Fatalf("replay = %v, want [4 5]", lsns)
	}
	if string(bodies[0]) != "after-supersede-4" || string(bodies[1]) != "after-supersede-5" {
		t.Fatalf("replayed bodies corrupted: %q %q", bodies[0], bodies[1])
	}
	if st := l3.Stats(); st.Quarantined != 0 {
		t.Fatalf("snapshot-bridged gap quarantined a live segment: %+v", st)
	}
}

// TestMissingPrefixRefusesToBoot: when the only snapshot rots AFTER its
// checkpoint already pruned the early segments, the surviving tail
// starts mid-history. Replaying it onto an empty store would fabricate
// state, so Open must fail loudly instead.
func TestMissingPrefixRefusesToBoot(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 1; i <= 30; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot([]byte("image-20"), 20); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Truncations == 0 {
		t.Fatalf("snapshot pruned nothing; test needs pruned early segments: %+v", st)
	}
	l.Close()

	// The snapshot rots away entirely.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %v, want 1", snaps)
	}
	if err := os.Remove(snaps[0]); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Options{Dir: dir, SegmentBytes: 256}); err == nil {
		t.Fatal("Open booted a history with a missing prefix")
	}
}

func TestNoFsyncStillReplayableAfterClose(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: false})
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 0 {
		t.Fatalf("Fsync off issued %d syncs during append", st.Syncs)
	}
	l.Close() // clean close syncs once

	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if lsns, _ := collect(t, l2); len(lsns) != 5 {
		t.Fatalf("recovered %d records, want 5", len(lsns))
	}
}

func TestAbandonSimulatesCrash(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: true})
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Abandon()
	if _, err := l.Append(body(4)); err == nil {
		t.Fatal("append after Abandon succeeded")
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if lsns, _ := collect(t, l2); len(lsns) != 3 {
		t.Fatalf("recovered %d records after abandon, want 3 (all fsynced)", len(lsns))
	}
}

// onlySegment returns the path of the single wal segment in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (err %v), want exactly 1", segs, err)
	}
	return segs[0]
}

func TestTruncateTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: true})
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Guard rails: only the current tail, and only past the snapshot.
	if err := l.TruncateTail(2); err == nil {
		t.Fatal("TruncateTail accepted a non-tail lsn")
	}
	if err := l.TruncateTail(3); err != nil {
		t.Fatal(err)
	}
	if l.TailLSN() != 2 {
		t.Fatalf("tail = %d, want 2", l.TailLSN())
	}
	lsns, _ := collect(t, l)
	if len(lsns) != 2 {
		t.Fatalf("replay yields %d records, want 2", len(lsns))
	}
	// The freed LSN is reused by the next append.
	if lsn, err := l.Append(body(30)); err != nil || lsn != 3 {
		t.Fatalf("append after truncate: lsn=%d err=%v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The truncation is durable: a reopen sees a clean 3-record chain
	// with the replacement body, no repair flagged.
	l2 := mustOpen(t, Options{Dir: dir, Fsync: true})
	defer l2.Close()
	lsns, bodies := collect(t, l2)
	if len(lsns) != 3 || l2.TailLSN() != 3 {
		t.Fatalf("recovered %d records, tail %d; want 3", len(lsns), l2.TailLSN())
	}
	if !bytes.Equal(bodies[2], body(30)) {
		t.Fatalf("record 3 = %q, want the post-truncate append", bodies[2])
	}
	if st := l2.Stats(); st.RepairedTail || st.Quarantined != 0 {
		t.Fatalf("reopen after TruncateTail flagged repair: %+v", st)
	}
}

func TestTruncateTailSoleRecordOfSegment(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates into its own segment, so the
	// tail record is its segment's only record and truncating it leaves
	// an empty shell the next append must continue from.
	l := mustOpen(t, Options{Dir: dir, Fsync: true, SegmentBytes: 1})
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateTail(3); err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.Append(body(30)); err != nil || lsn != 3 {
		t.Fatalf("append after truncate: lsn=%d err=%v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir, Fsync: true, SegmentBytes: 1})
	defer l2.Close()
	lsns, bodies := collect(t, l2)
	if len(lsns) != 3 || !bytes.Equal(bodies[2], body(30)) {
		t.Fatalf("recovered %d records, last %q", len(lsns), bodies[len(bodies)-1])
	}
}

// failDirSync makes every directory fsync fail with the returned error
// until the test ends.
func failDirSync(t *testing.T) error {
	errSync := errors.New("injected directory fsync failure")
	dirSync = func(*os.File) error { return errSync }
	t.Cleanup(func() { dirSync = (*os.File).Sync })
	return errSync
}

// TestSnapshotDirSyncFailureKeepsHistory: a snapshot whose directory
// fsync fails may not be durable, so it reports the error and prunes
// nothing: every segment it covers and the previous snapshot stay.
func TestSnapshotDirSyncFailureKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	for i := 1; i <= 30; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot([]byte("store-image-at-5"), 5); err != nil {
		t.Fatal(err)
	}
	before, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	truncations := l.Stats().Truncations

	errSync := failDirSync(t)
	if err := l.WriteSnapshot([]byte("store-image-at-25"), 25); !errors.Is(err, errSync) {
		t.Fatalf("WriteSnapshot = %v, want the directory fsync error", err)
	}
	for _, path := range before {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s is gone after a failed directory fsync: %v", filepath.Base(path), err)
		}
	}
	if st := l.Stats(); st.SnapshotLSN != 5 || st.Truncations != truncations {
		t.Fatalf("the failed snapshot was published: %+v", st)
	}
}

// TestDirSyncFailureIsReported: a manifest write and a segment rotation
// report a failed directory fsync, and the rotation latches the log shut
// as a failed file fsync does.
func TestDirSyncFailureIsReported(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	errSync := failDirSync(t)
	if err := WriteManifest(dir, Manifest{Version: ManifestVersion, Shards: 1}); !errors.Is(err, errSync) {
		t.Fatalf("WriteManifest = %v, want the directory fsync error", err)
	}
	var rotateErr error
	for i := 1; i <= 30 && rotateErr == nil; i++ {
		_, rotateErr = l.Append(body(i))
	}
	if !errors.Is(rotateErr, errSync) {
		t.Fatalf("rotation = %v, want the directory fsync error", rotateErr)
	}
	dirSync = (*os.File).Sync
	if _, err := l.Append(body(31)); err == nil {
		t.Fatal("the log took an append after a failed rotation")
	}
}
