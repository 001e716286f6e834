// Package wal is pnstmd's durability engine: a segmented append-only
// write-ahead log plus point-in-time snapshot files, both CRC32-checked
// and length-prefixed in the same framing style as server/protocol.go.
//
// The unit of logging is one *batch* — the server's group commit — so
// durability is amortized exactly like block dispatch: one record append
// and one fsync cover every request the batch carried (D17). Record
// payloads are opaque to this package; the server encodes the batch's
// logical requests and replays them through the same batching path on
// recovery.
//
// Crash-safety contract: a record is durable once Append returns with
// Fsync enabled. On Open, the log self-repairs — the torn or
// CRC-corrupt tail left by a crash is truncated back to the last valid
// record, and any later segments (unreachable past the break) are
// quarantined with a .corrupt suffix rather than replayed (D18). Replay
// therefore never errors on a damaged tail and never applies garbage:
// it yields exactly the durable prefix.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	segMagic  = "PNWAL001" // segment header: magic + u64 start LSN
	segHdrLen = 8 + 8

	// recHdrLen prefixes every record: u32 payload length + u32 CRC32
	// (IEEE) of the payload. The payload itself starts with the u64 LSN.
	recHdrLen = 4 + 4

	// maxRecord bounds a single record payload; a corrupt length prefix
	// larger than this is treated as a torn tail, not an allocation.
	maxRecord = 1 << 30

	// MaxBody is the largest body Append accepts (the payload minus its
	// LSN). Callers with more to log than this — e.g. a huge batch —
	// must split it across records; Append refuses rather than write a
	// record recovery would discard.
	MaxBody = maxRecord - 8
)

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if missing. Segments are
	// wal-<firstLSN>.log, snapshots snap-<lastLSN>.snap.
	Dir string

	// SegmentBytes is the rotation threshold (default 64 MiB): an append
	// that would grow the active segment past it starts a new segment.
	SegmentBytes int64

	// Fsync makes every Append fsync the segment before returning — one
	// fsync per group commit. Off, appends reach the OS page cache only:
	// the process can crash safely, the machine cannot.
	Fsync bool

	// SyncDelay adds an artificial latency floor to every Append fsync
	// (a benchmarking/testing hook, zero in production). It simulates
	// slower stable storage deterministically, which is how the win of
	// parallel per-shard commit pipelines — N logs fsyncing concurrently
	// instead of one serial pipeline — is made measurable on any disk,
	// however fast. The sleep happens inside the append lock, exactly
	// like real device latency occupies the commit pipeline. Ignored
	// without Fsync.
	SyncDelay time.Duration

	// ObserveSync, when set, is called with the wall-clock duration of
	// every fsync (including any SyncDelay floor) — the server's fsync
	// latency histogram hook. Called inside the append lock; must be
	// cheap and must not call back into the log.
	ObserveSync func(time.Duration)
}

// Stats counts the log's activity since Open. The Syncs counter is what
// ties durability cost to group commit: with Fsync on, Syncs ==
// Appends == number of batches, however many requests each batch held.
type Stats struct {
	Appends     uint64 // records appended (== batches logged)
	Syncs       uint64 // fsyncs issued by Append/Sync
	Rotations   uint64 // segment rollovers
	Snapshots   uint64 // snapshots written
	Truncations uint64 // old segments deleted after a snapshot

	Segments    int    // live segments on disk
	TailLSN     uint64 // last durable record
	SnapshotLSN uint64 // newest valid snapshot's coverage

	// Recovery findings from Open.
	RecoveredRecords int  // valid records found on disk
	RepairedTail     bool // a torn/corrupt tail was truncated away
	Quarantined      int  // segments renamed *.corrupt past the break
}

// segment is one on-disk log file.
type segment struct {
	path  string
	start uint64 // first LSN it may contain
}

// Log is an open write-ahead log. Safe for concurrent use; Append is
// serialized internally, which is also what keeps record LSNs dense.
type Log struct {
	opts Options

	mu      sync.Mutex
	segs    []segment // sorted by start; last is active
	f       *os.File  // active segment, opened for append
	size    int64     // active segment size
	tail    uint64    // LSN of the last valid record (0: none yet)
	snap    uint64    // LSN covered by the newest valid snapshot
	closed  bool
	failed  error // first unrecoverable I/O error; latches Append shut
	stats   Stats
	replayN int // records with lsn > snap (what Replay will yield)

	// snapCache holds the snapshot payload Open already read and
	// CRC-checked, handed to the first Snapshot() call so boot does not
	// read a whole-store image twice; nil afterwards.
	snapCache []byte

	// notify is the tail broadcast: made by the first follower to block at
	// the tail, closed and cleared under mu when the tail advances (and on
	// Close/Abandon, so blocked followers wake and observe the closed log).
	// Followers capture it under the SAME lock acquisition that observed
	// tail, which makes a missed wakeup impossible (D56).
	notify chan struct{}

	recBuf []byte // Append's record buffer, reused under mu (D56)
}

const maxRetainedRecord = 1 << 20 // the largest recBuf kept between appends

// segRec is one segment's record-walk result, collected during scan.
type segRec struct {
	start uint64
	n     int
}

// Open scans dir, repairs any torn tail, and returns a log ready for
// Replay and Append. The caller should Replay before the first Append.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// notifyLocked wakes every follower blocked at the tail. Caller holds mu.
func (l *Log) notifyLocked() {
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

func segPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", start))
}

// parseSeq extracts the hex sequence from wal-<seq>.log / snap-<seq>.snap.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexpart := name[len(prefix) : len(name)-len(suffix)]
	if len(hexpart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// scan builds the in-memory view: locate the newest valid snapshot,
// walk every segment record by record, truncate the first invalid
// record and quarantine everything past it, prune segments a snapshot
// fully covers, and leave the active segment open for append.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if start, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, segment{path: filepath.Join(l.opts.Dir, e.Name()), start: start})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	l.snap = l.loadSnapshotLSN(entries)

	// Walk the chain. expect is the next LSN a valid record must carry;
	// it is pinned by each segment's header, so a gap between segments
	// (or a header that disagrees with the filename) breaks the chain
	// like a bad CRC does — with one exception: a forward jump the
	// snapshot bridges (start ≤ snap+1) is a valid continuation, because
	// a snapshot-supersede rotation starts the segment after it at
	// snap+1 rather than at the stale tail.
	var (
		expect  uint64 // 0 until the first segment fixes it
		keep    []segment
		kept    []segRec // record-walk results, parallel to keep
		badFrom = -1     // index of first segment past the break
	)
	for i, s := range segs {
		start, validAt, n, err := scanSegment(s.path, maxRecord)
		if i == 0 {
			// The FIRST segment anchors the whole history: if its header
			// is unreadable (or disagrees with its filename) the durable
			// prefix cannot be established, and if it starts beyond what
			// any valid snapshot covers the prefix is missing outright.
			// Either way, quarantining-and-continuing would boot a store
			// that silently fabricates or drops acked state — refuse
			// instead; repair-down-to-a-prefix (D18) only applies when a
			// prefix exists.
			if err != nil || start != s.start {
				return fmt.Errorf("wal: first segment %s is unreadable (%v); refusing to guess at the history's prefix", s.path, err)
			}
			if start > l.snap+1 {
				return fmt.Errorf("wal: %s starts at lsn %d but no snapshot covers lsn %d and earlier; refusing to replay a history with a missing prefix", s.path, start, start-1)
			}
		}
		chainOK := expect == 0 || start == expect || (start > expect && start <= l.snap+1)
		if err != nil || start != s.start || !chainOK {
			badFrom = i
			break
		}
		nValid := int64(segHdrLen)
		if n > 0 {
			nValid = validAt
		}
		fi, statErr := os.Stat(s.path)
		if statErr != nil {
			return fmt.Errorf("wal: %w", statErr)
		}
		if fi.Size() > nValid {
			// Torn or corrupt tail: cut it off and stop trusting anything
			// past this segment (D18).
			if err := os.Truncate(s.path, nValid); err != nil {
				return fmt.Errorf("wal: repair %s: %w", s.path, err)
			}
			l.stats.RepairedTail = true
			keep = append(keep, s)
			kept = append(kept, segRec{start: start, n: n})
			expect = start + uint64(n)
			l.stats.RecoveredRecords += n
			badFrom = i + 1
			break
		}
		keep = append(keep, s)
		kept = append(kept, segRec{start: start, n: n})
		expect = start + uint64(n)
		l.stats.RecoveredRecords += n
	}
	if badFrom >= 0 {
		for _, s := range segs[badFrom:] {
			if len(keep) > 0 && s.path == keep[len(keep)-1].path {
				continue
			}
			if err := os.Rename(s.path, s.path+".corrupt"); err != nil {
				return fmt.Errorf("wal: quarantine %s: %w", s.path, err)
			}
			l.stats.Quarantined++
			l.stats.RepairedTail = true
		}
	}
	l.segs = keep
	if expect > 0 {
		l.tail = expect - 1
	}

	// A snapshot newer than the surviving log tail supersedes it: every
	// record the snapshot covers is redundant and the next LSN continues
	// from the snapshot.
	if l.snap > l.tail {
		l.tail = l.snap
	}

	// Open (or create) the active segment.
	if len(l.segs) == 0 {
		if err := l.rotateLocked(l.tail + 1); err != nil {
			return err
		}
	} else {
		active := l.segs[len(l.segs)-1]
		last := kept[len(kept)-1]
		// If the snapshot superseded the active segment's records (or the
		// whole segment is an empty shell whose header start no longer
		// matches the next LSN), appending would break the segment's
		// dense LSN chain; start a fresh segment instead.
		if (last.n == 0 && last.start != l.tail+1) || (last.n > 0 && last.start+uint64(last.n)-1 < l.tail) {
			if err := l.rotateLocked(l.tail + 1); err != nil {
				return err
			}
		} else {
			f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				return fmt.Errorf("wal: %w", err)
			}
			l.f, l.size = f, fi.Size()
		}
	}
	// Prune after the active segment is settled, so a segment the
	// snapshot fully covers — including a stale pre-supersede tail that
	// just gained a successor — is deleted now, not next boot.
	l.pruneCoveredLocked()

	// Records Replay will yield: the walked records beyond the snapshot.
	for _, r := range kept {
		switch {
		case r.n == 0 || r.start+uint64(r.n)-1 <= l.snap:
			// fully covered (or empty): nothing to replay
		case r.start > l.snap:
			l.replayN += r.n
		default:
			l.replayN += int(r.start + uint64(r.n) - 1 - l.snap)
		}
	}
	l.stats.Segments = len(l.segs)
	l.stats.TailLSN = l.tail
	l.stats.SnapshotLSN = l.snap
	return nil
}

// scanSegment validates one segment file: header, then records until
// the first invalid one. Returns the header's start LSN, the offset
// just past the last valid record, and the number of valid records. An
// error means even the header is unusable.
func scanSegment(path string, maxRec int) (start uint64, validAt int64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("wal: short header: %w", err)
	}
	if string(hdr[:8]) != segMagic {
		return 0, 0, 0, fmt.Errorf("wal: bad segment magic")
	}
	start = binary.BigEndian.Uint64(hdr[8:])
	validAt = segHdrLen
	br := &countReader{r: f, n: segHdrLen}
	expect := start
	for {
		payload, ok := readRecord(br, maxRec)
		if !ok {
			return start, validAt, n, nil
		}
		if binary.BigEndian.Uint64(payload[:8]) != expect {
			return start, validAt, n, nil
		}
		expect++
		n++
		validAt = br.n
	}
}

// countReader tracks the byte offset of an io.Reader.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readRecord reads one length-prefixed CRC-checked record payload.
// ok=false on any truncation or corruption — the caller treats that as
// the end of the valid prefix.
func readRecord(r io.Reader, maxRec int) (payload []byte, ok bool) {
	var hdr [recHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, false
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 8 || int(n) > maxRec {
		return nil, false
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, false
	}
	return payload, true
}

// rotateLocked starts a new segment whose first record will carry start.
func (l *Log) rotateLocked(start uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f = nil
		l.stats.Rotations++
	}
	path := segPath(l.opts.Dir, start)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [segHdrLen]byte
	copy(hdr[:], segMagic)
	binary.BigEndian.PutUint64(hdr[8:], start)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(l.opts.Dir)
	l.f, l.size = f, segHdrLen
	l.segs = append(l.segs, segment{path: path, start: start})
	l.stats.Segments = len(l.segs)
	return nil
}

// Append writes one record (the encoded batch) and, with Fsync on,
// syncs it to stable storage before returning — the group commit's one
// fsync. Returns the record's LSN.
func (l *Log) Append(body []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: closed")
	}
	if l.failed != nil {
		return 0, fmt.Errorf("wal: failed: %w", l.failed)
	}
	if len(body)+8 > maxRecord {
		// Recovery treats any record longer than maxRecord as a torn
		// tail, so writing one would ack data a restart silently drops —
		// and the caller's store has already applied it, so the log can
		// no longer capture a consistent history: latch (same hazard as
		// a failed write).
		err := fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(body)+8, maxRecord)
		if l.failed == nil {
			l.failed = err
		}
		return 0, err
	}
	lsn := l.tail + 1
	if l.size > segHdrLen && l.size+int64(len(body))+recHdrLen+8 > l.opts.SegmentBytes {
		if err := l.rotateLocked(lsn); err != nil {
			// Same hole-in-history hazard as a failed write: the caller's
			// store has applied the batch, so if a later append succeeded
			// the history would skip this one. Latch.
			if l.failed == nil {
				l.failed = err
			}
			return 0, err
		}
	}
	// Header (payload length, CRC of the payload), then the payload: LSN, body.
	rec := binary.BigEndian.AppendUint32(l.recBuf[:0], uint32(8+len(body)))
	rec = binary.BigEndian.AppendUint64(append(rec, 0, 0, 0, 0), lsn) // CRC patched below
	rec = append(rec, body...)
	binary.BigEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[recHdrLen:]))
	if l.recBuf = rec[:0]; cap(rec) > maxRetainedRecord {
		l.recBuf = nil
	}
	before := l.size
	if _, err := l.f.Write(rec); err != nil {
		// A partial write leaves orphan bytes the next append would sit
		// behind — a permanent torn tail that would swallow every later
		// record at recovery. Rewind to the pre-append offset.
		l.rewindLocked(before, err)
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(rec))
	if l.opts.Fsync {
		syncStart := time.Now()
		if err := l.f.Sync(); err != nil {
			// After a failed fsync the page-cache state of these bytes is
			// unknowable; rewind and stay latched — better a loudly failed
			// WAL than acks resting on bytes that may not exist.
			l.rewindLocked(before, err)
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		if l.opts.SyncDelay > 0 {
			time.Sleep(l.opts.SyncDelay)
		}
		if l.opts.ObserveSync != nil {
			l.opts.ObserveSync(time.Since(syncStart))
		}
		l.stats.Syncs++
	}
	l.tail = lsn
	l.stats.Appends++
	l.stats.TailLSN = lsn
	l.notifyLocked()
	return lsn, nil
}

// rewindLocked cuts the active segment back to size after a failed
// append and latches the log shut: every future Append errors. The
// latch is not an over-reaction — the caller's store has already
// applied the batch that failed to log, so continuing to append would
// punch a HOLE in the durable history (later records referencing state
// the log never captured), which replay would turn into silently
// divergent recovered state. A latched log fails loudly instead; the
// process restart re-opens a consistent prefix.
func (l *Log) rewindLocked(size int64, cause error) {
	if err := l.f.Truncate(size); err == nil {
		l.size = size
	}
	if l.failed == nil {
		l.failed = cause
	}
}

// TruncateTail physically removes the log's final record — lsn must be
// the current tail and must not be covered by the snapshot. Recovery
// uses it to discard a record it has decided not to replay (an
// incomplete cross-shard commit whose peers never made it durable), the
// same way Open discards a torn tail: once the bytes are gone, later
// boots have nothing left to re-judge and the next Append reuses the
// LSN. The truncation is fsynced before returning; a failure latches
// the log shut (the store's view and the disk can no longer be
// reconciled).
func (l *Log) TruncateTail(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: closed")
	}
	if l.failed != nil {
		return fmt.Errorf("wal: failed: %w", l.failed)
	}
	if lsn != l.tail {
		return fmt.Errorf("wal: TruncateTail(%d): tail is %d", lsn, l.tail)
	}
	if lsn <= l.snap {
		return fmt.Errorf("wal: TruncateTail(%d): snapshot already covers it", lsn)
	}
	// The tail record lives in the last segment whose start is ≤ lsn.
	// Anything after that segment is an empty shell a crash left behind
	// (rotated, never written); the shells hold no records, so removing
	// them loses nothing and keeps the chain dense.
	si := len(l.segs) - 1
	for si > 0 && l.segs[si].start > lsn {
		si--
	}
	if l.segs[si].start > lsn {
		err := fmt.Errorf("wal: TruncateTail(%d): no segment holds it", lsn)
		l.failed = err
		return err
	}
	if si < len(l.segs)-1 {
		if l.f != nil {
			l.f.Close()
			l.f = nil
		}
		for _, s := range l.segs[si+1:] {
			if err := os.Remove(s.path); err != nil {
				l.failed = err
				return fmt.Errorf("wal: truncate tail: %w", err)
			}
		}
		l.segs = l.segs[:si+1]
		f, err := os.OpenFile(l.segs[si].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			l.failed = err
			return fmt.Errorf("wal: truncate tail: %w", err)
		}
		l.f = f
	}
	off, err := recordOffset(l.segs[si].path, lsn)
	if err != nil {
		l.failed = err
		return fmt.Errorf("wal: truncate tail: %w", err)
	}
	if err := l.f.Truncate(off); err != nil {
		l.failed = err
		return fmt.Errorf("wal: truncate tail: %w", err)
	}
	// A handle rotateLocked created has no O_APPEND: its write offset
	// still points past the cut, and writing there would leave a
	// zero-filled hole that swallows every later record at recovery.
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		l.failed = err
		return fmt.Errorf("wal: truncate tail: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.failed = err
		return fmt.Errorf("wal: truncate tail: %w", err)
	}
	syncDir(l.opts.Dir)
	l.size = off
	l.tail = lsn - 1
	if l.replayN > 0 {
		l.replayN--
	}
	l.stats.TailLSN = l.tail
	l.stats.Segments = len(l.segs)
	return nil
}

// recordOffset walks a segment to the byte offset at which the record
// carrying lsn begins.
func recordOffset(path string, lsn uint64) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("short header: %w", err)
	}
	if string(hdr[:8]) != segMagic {
		return 0, fmt.Errorf("bad segment magic")
	}
	br := &countReader{r: f, n: segHdrLen}
	for {
		at := br.n
		payload, ok := readRecord(br, maxRecord)
		if !ok {
			return 0, fmt.Errorf("no record carries lsn %d", lsn)
		}
		if binary.BigEndian.Uint64(payload[:8]) == lsn {
			return at, nil
		}
	}
}

// Fail latches the log shut with cause: every future Append and
// WriteSnapshot errors. For callers that detect, before reaching
// Append, that the store's memory state can no longer be captured in
// the log (e.g. an unencodable batch) — the same hole-in-history hazard
// Append's own error path latches against.
func (l *Log) Fail(cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed == nil {
		l.failed = cause
	}
}

// Err reports the latch: nil while the log is healthy, the first
// unrecoverable error once Append/Fail has latched it shut. The admin
// surface's /readyz turns 503 when any shard's log reports non-nil —
// the store is still serving reads from memory but can no longer
// accept durable writes.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Sync forces an fsync of the active segment (graceful shutdown's final
// flush; a no-op amount of extra durability when Fsync is already on).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.stats.Syncs++
	return nil
}

// Replay yields every durable record newer than the snapshot, in LSN
// order. Corruption cannot reach fn: Open already truncated the invalid
// tail, and Replay revalidates each CRC anyway, stopping cleanly (no
// error) if the file shrank or rotted underneath it.
func (l *Log) Replay(fn func(lsn uint64, body []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	snap := l.snap
	l.mu.Unlock()
	for _, s := range segs {
		f, err := os.Open(s.path)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		var hdr [segHdrLen]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil || string(hdr[:8]) != segMagic {
			f.Close()
			return nil // repaired tail shrank to nothing; durable prefix ends here
		}
		br := &countReader{r: f}
		for {
			payload, ok := readRecord(br, maxRecord)
			if !ok {
				break
			}
			lsn := binary.BigEndian.Uint64(payload[:8])
			if lsn <= snap {
				continue
			}
			if err := fn(lsn, payload[8:]); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// ReplayableRecords is the number of records Replay will yield (the WAL
// tail beyond the snapshot).
func (l *Log) ReplayableRecords() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replayN
}

// TailLSN returns the LSN of the last durable record.
func (l *Log) TailLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Stats snapshots the activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Segments = len(l.segs)
	st.TailLSN = l.tail
	st.SnapshotLSN = l.snap
	return st
}

// Close syncs and closes the active segment. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.notifyLocked()
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f = nil
	}
	return nil
}

// Abandon closes the segment file handle WITHOUT syncing — the testing
// hook for hard-crash simulation: whatever the OS has not flushed is
// exactly what a real crash would lose.
func (l *Log) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.notifyLocked()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// pruneCoveredLocked deletes segments every record of which the newest
// snapshot covers. A segment is fully covered when the next segment
// starts at or below snap+1; the last segment is never deleted here
// (it is, or becomes, the active one).
func (l *Log) pruneCoveredLocked() {
	for len(l.segs) > 1 && l.segs[1].start <= l.snap+1 {
		if err := os.Remove(l.segs[0].path); err != nil {
			return // leave it; recovery tolerates covered records
		}
		l.segs = l.segs[1:]
		l.stats.Truncations++
	}
	l.stats.Segments = len(l.segs)
}

// syncDir fsyncs a directory (rename/create durability); best-effort on
// platforms where directories cannot be opened for sync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
