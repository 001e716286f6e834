package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"testing"
	"time"
)

// followCollect drains the follower of everything currently durable,
// stopping (without error) at the tail.
func followCollect(t *testing.T, f *Follower) (lsns []uint64, bodies [][]byte) {
	t.Helper()
	for {
		lsn, body, wait, err := f.TryNext()
		if err != nil {
			t.Fatalf("TryNext: %v", err)
		}
		if wait != nil {
			return lsns, bodies
		}
		lsns = append(lsns, lsn)
		bodies = append(bodies, append([]byte(nil), body...))
	}
}

// next blocks on the follower until a record is available (yielding it)
// or the log closes (ErrLogClosed).
func next(f *Follower) (uint64, []byte, error) {
	for {
		lsn, body, wait, err := f.TryNext()
		if err != nil || wait == nil {
			return lsn, body, err
		}
		<-wait
	}
}

// TestFollowerBlockedAtTail: a follower that has consumed everything
// parks on the wait channel and wakes exactly when Append lands a new
// record — no polling, no missed wakeup.
func TestFollowerBlockedAtTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	f := l.Follow(1)
	defer f.Close()
	if lsns, _ := followCollect(t, f); len(lsns) != 5 {
		t.Fatalf("drained %d records, want 5", len(lsns))
	}

	_, _, wait, err := f.TryNext()
	if err != nil || wait == nil {
		t.Fatalf("at tail: wait=%v err=%v, want a wait channel", wait, err)
	}
	select {
	case <-wait:
		t.Fatal("wait channel closed with no append")
	default:
	}

	// A blocked follower must deliver the record an Append publishes.
	got := make(chan uint64, 1)
	errc := make(chan error, 1)
	go func() {
		lsn, b, err := next(f)
		if err != nil {
			errc <- err
			return
		}
		if !bytes.Equal(b, body(6)) {
			errc <- os.ErrInvalid
			return
		}
		got <- lsn
	}()
	time.Sleep(20 * time.Millisecond) // let the goroutine park
	if _, err := l.Append(body(6)); err != nil {
		t.Fatal(err)
	}
	select {
	case lsn := <-got:
		if lsn != 6 {
			t.Fatalf("woke with lsn %d, want 6", lsn)
		}
	case err := <-errc:
		t.Fatalf("next: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("follower never woke on append")
	}

	// Close wakes a parked follower with ErrLogClosed.
	errc2 := make(chan error, 1)
	go func() {
		_, _, err := next(f)
		errc2 <- err
	}()
	time.Sleep(20 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc2:
		if err != ErrLogClosed {
			t.Fatalf("next after Close: %v, want ErrLogClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower never woke on Close")
	}
}

// notifyMade reports whether a follower has made the tail channel.
func notifyMade(l *Log) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify != nil
}

// TestAppendWithoutFollowerAllocatesNothing: with no follower waiting, an
// append makes no tail channel, and in steady state (Fsync off) it
// allocates nothing at all — the record is framed in the log's buffer.
func TestAppendWithoutFollowerAllocatesNothing(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	defer l.Close()
	b := body(1)
	if _, err := l.Append(b); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	})
	if notifyMade(l) {
		t.Fatal("appends with no follower made a tail channel")
	}
	if got != 0 {
		t.Fatalf("Append: %.0f allocs/op, want 0", got)
	}
}

// TestFollowerWakesOnEveryTailEvent: a follower parked at the tail wakes
// on Append with the new record, and on Close and Abandon with
// ErrLogClosed. The tail channel exists only while someone waits: the
// first follower to park makes it, and the append that wakes it clears it.
func TestFollowerWakesOnEveryTailEvent(t *testing.T) {
	for _, event := range []string{"append", "close", "abandon"} {
		t.Run(event, func(t *testing.T) {
			l := mustOpen(t, Options{Dir: t.TempDir()})
			defer l.Close()
			for i := 1; i <= 3; i++ {
				if _, err := l.Append(body(i)); err != nil {
					t.Fatal(err)
				}
			}
			f := l.Follow(4)
			defer f.Close()
			type result struct {
				lsn  uint64
				body []byte
				err  error
			}
			done := make(chan result, 1)
			go func() {
				lsn, b, err := next(f)
				done <- result{lsn, b, err}
			}()
			for deadline := time.Now().Add(5 * time.Second); !notifyMade(l); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the follower never parked at the tail")
				}
			}
			select {
			case r := <-done:
				t.Fatalf("woke with nothing to wake it: %+v", r)
			default:
			}
			want := result{err: ErrLogClosed}
			switch event {
			case "append":
				if _, err := l.Append(body(4)); err != nil {
					t.Fatal(err)
				}
				want = result{lsn: 4, body: body(4)}
				if notifyMade(l) {
					t.Fatal("the waking append left the tail channel in place")
				}
			case "close":
				l.Close()
			case "abandon":
				l.Abandon()
			}
			select {
			case r := <-done:
				if r.lsn != want.lsn || !bytes.Equal(r.body, want.body) || !errors.Is(r.err, want.err) {
					t.Fatalf("woke with %+v, want %+v", r, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("the follower never woke on %s", event)
			}
		})
	}
}

// TestFollowerTailsLiveAppender: a follower tailing a log that another
// goroutine appends to (across rotations) yields every record once, in
// order, whether it met the appender at the tail or trailed behind it.
func TestFollowerTailsLiveAppender(t *testing.T) {
	const n = 2000
	l := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 4096})
	defer l.Close()
	f := l.Follow(1)
	defer f.Close()
	errc := make(chan error, 1)
	go func() {
		for i := 1; i <= n; i++ {
			if _, err := l.Append(body(i)); err != nil {
				errc <- err
				return
			}
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
		errc <- nil
	}()
	for i := 1; i <= n; i++ {
		lsn, b, err := next(f)
		if err != nil || lsn != uint64(i) || !bytes.Equal(b, body(i)) {
			t.Fatalf("record %d: lsn=%d body=%q err=%v", i, lsn, b, err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatal("the appender never rotated a segment")
	}
}

// TestFollowerAcrossRotation: the log rotates segments underneath a
// live follower mid-stream; the follower must cross every boundary and
// yield the full dense sequence.
func TestFollowerAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256}) // a few records per segment
	defer l.Close()

	f := l.Follow(1)
	defer f.Close()
	var seen []uint64
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
		// Interleave reads with appends so the follower's open segment
		// keeps going stale under it.
		if i%3 == 0 {
			lsns, _ := followCollect(t, f)
			seen = append(seen, lsns...)
		}
	}
	lsns, bodies := followCollect(t, f)
	seen = append(seen, lsns...)
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatalf("test never rotated (segments=%d); shrink SegmentBytes", st.Segments)
	}
	if len(seen) != 40 {
		t.Fatalf("followed %d records, want 40", len(seen))
	}
	for i, lsn := range seen {
		if lsn != uint64(i+1) {
			t.Fatalf("record %d: lsn %d, want %d (dense order across rotation)", i, lsn, i+1)
		}
	}
	if last := bodies[len(bodies)-1]; !bytes.Equal(last, body(40)) {
		t.Fatalf("last body = %q", last)
	}
}

// TestFollowerTornTailMidFollow: a crash leaves a torn record; Open
// repairs it away, and a follower on the reopened log yields exactly
// the valid prefix, then continues seamlessly into fresh appends.
func TestFollowerTornTailMidFollow(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 1; i <= 8; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := append([]segment(nil), l.segs...)
	l.Abandon() // crash: no final sync

	// Append a torn record by hand: full header + half the payload, as a
	// crash mid-write would leave.
	payload := make([]byte, 0, 8+len(body(9)))
	payload = binary.BigEndian.AppendUint64(payload, 9)
	payload = append(payload, body(9)...)
	rec := make([]byte, 0, recHdrLen+len(payload))
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload[:len(payload)/2]...)
	fh, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(rec); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if st := l2.Stats(); !st.RepairedTail || st.TailLSN != 8 {
		t.Fatalf("reopen did not repair the torn tail: %+v", st)
	}
	f := l2.Follow(1)
	defer f.Close()
	lsns, _ := followCollect(t, f)
	if len(lsns) != 8 || lsns[len(lsns)-1] != 8 {
		t.Fatalf("followed %v, want exactly the valid prefix 1..8", lsns)
	}
	// The LSN the torn record would have carried is reused; the follower
	// picks it up as a normal append.
	if lsn, err := l2.Append(body(99)); err != nil || lsn != 9 {
		t.Fatalf("append after repair: lsn=%d err=%v", lsn, err)
	}
	lsn, b, err := next(f)
	if err != nil || lsn != 9 || !bytes.Equal(b, body(99)) {
		t.Fatalf("follow past repaired tail: lsn=%d body=%q err=%v", lsn, b, err)
	}
}

// TestFollowerResumeFromLSN: a reconnecting replica re-subscribes from
// applied+1 — a fresh follower starting mid-history must yield exactly
// the suffix, including when the resume point sits mid-segment or the
// history before it was compacted into a snapshot.
func TestFollowerResumeFromLSN(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	for i := 1; i <= 30; i++ {
		if _, err := l.Append(body(i)); err != nil {
			t.Fatal(err)
		}
	}

	f := l.Follow(17) // mid-history, mid-segment
	lsns, bodies := followCollect(t, f)
	f.Close()
	if len(lsns) != 14 || lsns[0] != 17 || lsns[len(lsns)-1] != 30 {
		t.Fatalf("resume from 17 yielded %v, want 17..30", lsns)
	}
	if !bytes.Equal(bodies[0], body(17)) {
		t.Fatalf("resume body = %q, want %q", bodies[0], body(17))
	}

	// Follow(0) means the whole history.
	f0 := l.Follow(0)
	if lsns, _ := followCollect(t, f0); len(lsns) != 30 || lsns[0] != 1 {
		t.Fatalf("Follow(0) yielded %d records starting at %v", len(lsns), lsns)
	}
	f0.Close()

	// Compact the prefix: snapshot at 20 prunes the early segments, so a
	// resume below the snapshot must report ErrCompacted (the replica
	// falls back to a snapshot fetch), while a resume above still works.
	if err := l.WriteSnapshot([]byte("state@20"), 20); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Truncations == 0 {
		t.Fatalf("snapshot pruned nothing: %+v", st)
	}
	fc := l.Follow(2)
	if _, _, _, err := fc.TryNext(); err != ErrCompacted {
		t.Fatalf("resume below the snapshot: err=%v, want ErrCompacted", err)
	}
	fc.Close()
	fs := l.Follow(l.Stats().SnapshotLSN + 1)
	lsns, _ = followCollect(t, fs)
	fs.Close()
	if len(lsns) == 0 || lsns[0] <= 20 || lsns[len(lsns)-1] != 30 {
		t.Fatalf("resume above the snapshot yielded %v", lsns)
	}
}
