package core

import (
	"testing"
	"unsafe"

	"pnstm/internal/alloctest"
)

func emptyTx(*Ctx) error { return nil }

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// pooledCeiling picks a ceiling that relies on pooled frames and channels
// coming back: plain without -race, race under it, where sync.Pool drops a
// quarter of what is put back and what a dropped object held is remade.
func pooledCeiling(plain, race float64) float64 {
	if raceEnabled {
		return race
	}
	return plain
}

// inOpenTx runs body inside a root transaction of rt.
func inOpenTx(t *testing.T, rt *Runtime, body func(c *Ctx)) {
	t.Helper()
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			body(c)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNestedAtomicAllocCeiling: beginning and committing an empty nested
// transaction allocates nothing — its descriptor is the one the context's
// previous transaction left behind (D53), and with no test hook installed
// no argument is boxed for a hook that is not there.
func TestNestedAtomicAllocCeiling(t *testing.T) {
	rt := newRT(t, 2)
	inOpenTx(t, rt, func(c *Ctx) {
		if got := testing.AllocsPerRun(200, func() { _ = c.Atomic(emptyTx) }); got > 0 {
			t.Errorf("empty nested Atomic: %.0f allocs, ceiling 0", got)
		}
	})
}

// TestForkJoinAllocCeiling: an empty fork and join allocates nothing, two
// children or three. The frame comes from the pool, its children run on
// parked workers, and the forker waits on a recycled one-shot channel (D53;
// 17 objects before the frame, 1 while the collector owned it, 2 for a
// 3-wide fork, whose blocks were a slice of their own). Under -race both
// read 0 or 1: a dropped frame is remade, with its slice of blocks if wide.
func TestForkJoinAllocCeiling(t *testing.T) {
	rt := newRT(t, 4)
	inOpenTx(t, rt, func(c *Ctx) {
		got := testing.AllocsPerRun(200, func() { c.Parallel(noop, noop) })
		if ceiling := pooledCeiling(0, 1); got > ceiling {
			t.Errorf("empty two-child Parallel: %.0f allocs, ceiling %.0f", got, ceiling)
		}
		got = testing.AllocsPerRun(200, func() { c.Parallel(noop, noop, noop) })
		if ceiling := pooledCeiling(0, 1); got > ceiling {
			t.Errorf("empty three-child Parallel: %.0f allocs, ceiling %.0f", got, ceiling)
		}
	})
}

// TestWideForkWithNotesAllocCeiling: an 8-wide fork that carries more than
// four live notes in and brings eight back allocates nothing — the
// forker's, the join's and every child's notes outgrow their four-entry
// buffers, and a pooled frame keeps what they grew to (15 objects for the
// two forks while the collector owned the frame, 11 of them the second's).
// The publisher is paused, so the notes of the first fork are still live at
// the second; each round drains it after. Under -race it reads 5 to 7: a
// dropped frame is remade and its buffers grow again.
func TestWideForkWithNotesAllocCeiling(t *testing.T) {
	rt := newRT(t, 16)
	rt.Publisher().Pause()
	fns := make([]func(*Ctx), 8)
	for i := range fns {
		fns[i] = noop
	}
	inOpenTx(t, rt, func(c *Ctx) {
		fewest := len(fns)
		got := testing.AllocsPerRun(200, func() {
			c.Parallel(fns...)
			fewest = min(fewest, len(c.comDesc))
			c.Parallel(fns...)
			rt.Publisher().Drain()
		})
		if fewest <= 4 {
			t.Fatalf("the second fork carried %d live notes in, want more than 4", fewest)
		}
		if ceiling := pooledCeiling(0, 8); got > ceiling {
			t.Errorf("two 8-wide Parallels with notes live: %.0f allocs, ceiling %.0f", got, ceiling)
		}
	})
}

// TestRootRunAllocCeiling: a Run that forks nothing allocates nothing. Its
// root block is a pooled frame's, a parked worker runs it, and Run waits on
// a recycled one-shot channel (1 object while the block was the
// collector's, 3 while the dispatch started a goroutine and Run made a
// channel). Under -race the ceiling stays the collector's 1.
func TestRootRunAllocCeiling(t *testing.T) {
	rt := newRT(t, 2)
	got := testing.AllocsPerRun(200, func() { _ = rt.Run(noop) })
	if ceiling := pooledCeiling(0, 1); got > ceiling {
		t.Errorf("Run with no fork: %.0f allocs, ceiling %.0f", got, ceiling)
	}
}

// TestNestedDescriptorsReusedAcrossRuns: a root shaped like a served
// envelope — four nested transactions in turn, each with a nested
// grandchild — allocates nothing once its frame has run one: every depth
// takes its descriptor from the context's spare list, and the frame
// carries the list's heap part to the next Run (D53). Each Run's root,
// child and grandchild are still three distinct descriptors. Under -race
// a frame the pool drops takes its list with it, and the next Run makes
// its frame and two descriptors again.
func TestNestedDescriptorsReusedAcrossRuns(t *testing.T) {
	rt := newRT(t, 2)
	var root, child *txDesc
	shared := 0
	grandchild := func(c *Ctx) error {
		if g := c.cur; g == child || g == root || child == root {
			shared++
		}
		return nil
	}
	childFn := func(c *Ctx) error { child = c.cur; return c.Atomic(grandchild) }
	rootFn := func(c *Ctx) error {
		root = c.cur
		for i := 0; i < 4; i++ {
			_ = c.Atomic(childFn)
		}
		return nil
	}
	program := func(c *Ctx) { _ = c.Atomic(rootFn) }
	for i := 0; i < 10; i++ { // the runtime's workers start on demand
		_ = rt.Run(program)
	}
	got := alloctest.Exact(200, func() { _ = rt.Run(program) })
	t.Logf("Run of an envelope-shaped root: %.3f allocs", got)
	if shared != 0 {
		t.Errorf("%d of %d grandchildren shared a descriptor with their parent or root", shared, 4*211)
	}
	if ceiling := pooledCeiling(0, 2); got > ceiling {
		t.Errorf("Run of a root with 4 nested children and 4 grandchildren: %.2f allocs, ceiling %.2f", got, ceiling)
	}
}

// TestTraceTagRenderedOnlyWhenRecorded: stamping a work label costs
// nothing while no event records it — tracing on, but the lineage
// unsampled, is the server's steady state — and recording it costs
// nothing either: an event keeps the label's two parts, and a snapshot
// joins them. What a snapshot returns is name:key, or the bare name for
// keyless work, in the lifecycle rings and the conflict rings alike.
func TestTraceTagRenderedOnlyWhenRecorded(t *testing.T) {
	name, key := "kv", "key-000042"

	rt := newRT(t, 2)
	rt.EnableTracing(true)
	rt.SetTraceSampling(1 << 40) // root ticket 1 is not a multiple: unsampled
	inOpenTx(t, rt, func(c *Ctx) {
		got := testing.AllocsPerRun(200, func() {
			c.SetTraceTag(name, key)
			_ = c.Atomic(emptyTx)
		})
		if got > 0 {
			t.Errorf("tagged nested Atomic on an unsampled lineage: %.0f allocs, ceiling 0: a label was built for no event", got)
		}
	})
	if events := rt.TraceSnapshot(); len(events) != 0 {
		t.Fatalf("unsampled lineage recorded %d events", len(events))
	}

	// Sampled at 1, the nested Atomic records a begin and a commit: two
	// events of a 256-event chunk and two keys of a 4 KiB text chunk,
	// under 0.015 objects; 2 more while each event joined its label. The
	// key borrows a buffer that is poisoned once the tagged transactions
	// are over, as a server's read-only op borrows its frame (D48): an
	// event must keep a copy.
	const sampledCeiling = 0.02
	rt = newRT(t, 2)
	rt.EnableTracing(true)
	rt.SetTraceSampling(1)
	buf := []byte(key)
	borrowed := unsafe.String(&buf[0], len(buf))
	attempt := 0
	conflictOnce := func(c *Ctx) error {
		if attempt++; attempt == 1 {
			panic(conflictSignal{})
		}
		return nil
	}
	inOpenTx(t, rt, func(c *Ctx) {
		got := alloctest.Exact(200, func() {
			c.SetTraceTag(name, borrowed)
			_ = c.Atomic(emptyTx)
		})
		t.Logf("tagged nested Atomic, sampled: %.3f allocs", got)
		if got > sampledCeiling {
			t.Errorf("tagged nested Atomic on a sampled lineage: %.3f allocs, ceiling %.2f", got, sampledCeiling)
		}
		c.SetTraceTag(name, borrowed)
		_ = c.Atomic(conflictOnce)
		c.SetTraceTag(name, "")
		_ = c.Atomic(emptyTx)
		if got := c.TraceTag(); got != name {
			t.Errorf("TraceTag() = %q, want %q", got, name)
		}
	})
	for i := range buf {
		buf[i] = 0xA5
	}
	events := rt.TraceSnapshot()
	var tags []string
	for _, ev := range events {
		if ev.Kind == EvBegin && ev.Depth == 1 {
			tags = append(tags, ev.Tag)
		}
	}
	// 201 measured begins, the conflicting one's two attempts, the keyless one.
	if n := len(tags); n != 204 || tags[0] != name+":"+key || tags[n-2] != name+":"+key || tags[n-1] != name {
		t.Fatalf("%d nested begin events, first and last two carry %q, want 204 carrying [%q … %q %q]",
			n, [][]string{tags[:min(n, 1)], tags[max(n-2, 0):]}, name+":"+key, name+":"+key, name)
	}
	conflicts := rt.TraceConflicts()
	if len(conflicts) != 1 || conflicts[0].Kind != EvAbort || conflicts[0].Tag != name+":"+key {
		t.Fatalf("conflict rings hold %+v, want one abort tagged %q", conflicts, name+":"+key)
	}
}
