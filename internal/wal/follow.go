package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Tail-follow reader: the replication stream's source. A Follower walks
// the durable record sequence from a requested LSN and then blocks at
// the tail, waking on every Append — the primary-side half of
// WAL-shipping (D39). It reads through its own file handles, entirely
// outside the append lock, so a replica stream never slows a group
// commit; the only synchronization is the brief locate() lock that
// snapshots (tail, segment list, notify channel) together.
//
// Correctness rests on one invariant: a Follower only ever reads
// records with lsn ≤ a tail value it observed under the log's mutex.
// Append writes the record bytes (and rotateLocked publishes any new
// segment into l.segs) BEFORE it bumps tail under that same mutex, so
// every byte of every record the Follower is allowed to read is already
// fully on disk — it can never see a torn in-flight record, even while
// racing the active segment's writer.

var (
	// ErrCompacted reports that the requested LSN is no longer on disk:
	// a snapshot covered it and the segment was pruned. The caller
	// resyncs from the snapshot and follows again from snapshotLSN+1.
	ErrCompacted = errors.New("wal: follow: lsn compacted into a snapshot")

	// ErrStopped is Next's return when the caller's stop channel fired.
	ErrStopped = errors.New("wal: follow: stopped")

	// ErrLogClosed reports that the followed log shut down (Close or
	// Abandon); no further records will ever arrive.
	ErrLogClosed = errors.New("wal: follow: log closed")
)

// Follower is a cursor over the durable record sequence. Not safe for
// concurrent use; one goroutine per Follower.
type Follower struct {
	l        *Log
	next     uint64 // LSN the next TryNext will yield
	file     *os.File
	segStart uint64
	off      int64
}

// Follow returns a cursor that will yield records from LSN `from`
// onward (0 is treated as 1 — the whole history). The cursor is lazy:
// a compacted starting point surfaces as ErrCompacted from the first
// TryNext, not here.
func (l *Log) Follow(from uint64) *Follower {
	if from == 0 {
		from = 1
	}
	return &Follower{l: l, next: from}
}

// NextLSN is the LSN the next successful TryNext will yield.
func (f *Follower) NextLSN() uint64 { return f.next }

// Close releases the cursor's file handle. The log itself is untouched.
func (f *Follower) Close() {
	if f.file != nil {
		f.file.Close()
		f.file = nil
	}
}

// locate snapshots the log state the next read needs: under one lock
// acquisition it checks closed, compares f.next against the tail, and
// picks the segment holding f.next. Exactly one of the returns is
// meaningful: err (closed/compacted), wait (f.next is past the tail —
// block on this channel, made here if nobody waits yet; capturing it under
// the same lock as the tail comparison makes the wakeup race-free), or seg.
func (f *Follower) locate() (seg segment, wait chan struct{}, err error) {
	l := f.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return segment{}, nil, ErrLogClosed
	}
	if f.next > l.tail {
		if l.notify == nil {
			l.notify = make(chan struct{})
		}
		return segment{}, l.notify, nil
	}
	for i := len(l.segs) - 1; i >= 0; i-- {
		if l.segs[i].start <= f.next {
			return l.segs[i], nil, nil
		}
	}
	return segment{}, nil, ErrCompacted
}

// TryNext yields the next record without blocking. At the tail it
// returns a nil body and a non-nil wait channel that closes when the
// tail advances (or the log closes); otherwise it returns the record's
// LSN and body (the payload minus its LSN prefix — what Append was
// given). The returned body is freshly allocated and owned by the
// caller.
func (f *Follower) TryNext() (lsn uint64, body []byte, wait <-chan struct{}, err error) {
	for {
		seg, waitCh, err := f.locate()
		if err != nil {
			return 0, nil, nil, err
		}
		if waitCh != nil {
			return 0, nil, waitCh, nil
		}
		if f.file == nil || f.segStart != seg.start {
			f.Close()
			file, err := os.Open(seg.path)
			if err != nil {
				if os.IsNotExist(err) {
					continue // pruned between locate and open: re-derive
				}
				return 0, nil, nil, fmt.Errorf("wal: follow: %w", err)
			}
			var hdr [segHdrLen]byte
			if _, err := io.ReadFull(file, hdr[:]); err != nil || string(hdr[:8]) != segMagic {
				file.Close()
				return 0, nil, nil, fmt.Errorf("wal: follow: bad segment header in %s", seg.path)
			}
			f.file, f.segStart, f.off = file, seg.start, segHdrLen
		}
		// Walk records from the cursor offset, skipping any below f.next
		// (a reopened segment starts before the resume point).
		for {
			cr := &countReader{r: io.NewSectionReader(f.file, f.off, int64(maxRecord)+recHdrLen+16)}
			payload, ok := readRecord(cr, maxRecord)
			if !ok {
				// End of this segment's readable prefix, yet locate() said
				// the record is durable — rotation moved the write point to
				// a newer segment. Re-derive; if the located segment hasn't
				// changed, the file shrank under us: surface it rather than
				// spin.
				seg2, wait2, err := f.locate()
				if err != nil {
					return 0, nil, nil, err
				}
				if wait2 != nil {
					return 0, nil, wait2, nil
				}
				if seg2.start != f.segStart {
					break // reopen the newer segment via the outer loop
				}
				return 0, nil, nil, fmt.Errorf("wal: follow: record %d missing from %s", f.next, seg.path)
			}
			f.off += cr.n
			got := binary.BigEndian.Uint64(payload[:8])
			if got < f.next {
				continue
			}
			if got != f.next {
				return 0, nil, nil, fmt.Errorf("wal: follow: want lsn %d, segment %s yields %d", f.next, seg.path, got)
			}
			f.next++
			return got, payload[8:], nil, nil
		}
	}
}

// Next blocks until a record is available (yielding it), the log closes
// (ErrLogClosed), or stop fires (ErrStopped). stop may be nil.
func (f *Follower) Next(stop <-chan struct{}) (uint64, []byte, error) {
	for {
		lsn, body, wait, err := f.TryNext()
		if err != nil {
			return 0, nil, err
		}
		if wait == nil {
			return lsn, body, nil
		}
		select {
		case <-wait:
		case <-stop:
			return 0, nil, ErrStopped
		}
	}
}
