package core

import (
	"testing"
)

func emptyTx(*Ctx) error { return nil }

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

// TestForkJoinAllocCeiling: an empty two-child fork and join costs the
// frame alone. The children run on parked workers, and the forker waits on
// a recycled one-shot channel (D53; 17 objects before the frame, 3 while
// each dispatch started a goroutine).
func TestForkJoinAllocCeiling(t *testing.T) {
	rt := newRT(t, 4)
	inOpenTx(t, rt, func(c *Ctx) {
		if got := testing.AllocsPerRun(200, func() { c.Parallel(noop, noop) }); got > 1 {
			t.Errorf("empty two-child Parallel: %.0f allocs, ceiling 1", got)
		}
	})
}

// TestRootRunAllocCeiling: a Run that forks nothing costs its root block.
// A parked worker runs it, and Run waits on a recycled one-shot channel
// (3 objects while the dispatch started a goroutine and Run made a channel).
func TestRootRunAllocCeiling(t *testing.T) {
	rt := newRT(t, 2)
	if got := testing.AllocsPerRun(200, func() { _ = rt.Run(noop) }); got > 1 {
		t.Errorf("Run with no fork: %.0f allocs, ceiling 1", got)
	}
}

// TestTraceTagRenderedOnlyWhenRecorded: stamping a work label costs
// nothing while no event records it — tracing on, but the lineage
// unsampled, is the server's steady state — and the label an event does
// carry is name:key, or the bare name for keyless work.
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
	if events, _ := rt.TraceRead(nil); len(events) != 0 {
		t.Fatalf("unsampled lineage recorded %d events", len(events))
	}

	rt = newRT(t, 2)
	rt.EnableTracing(true)
	inOpenTx(t, rt, func(c *Ctx) {
		c.SetTraceTag(name, key)
		_ = c.Atomic(emptyTx)
		c.SetTraceTag(name, "")
		_ = c.Atomic(emptyTx)
		if got := c.TraceTag(); got != name {
			t.Errorf("TraceTag() = %q, want %q", got, name)
		}
	})
	events, _ := rt.TraceRead(nil)
	var tags []string
	for _, ev := range events {
		if ev.Kind == EvBegin && ev.Depth == 1 {
			tags = append(tags, ev.Tag)
		}
	}
	if len(tags) != 2 || tags[0] != name+":"+key || tags[1] != name {
		t.Fatalf("nested begin events carry tags %q, want [%q %q]", tags, name+":"+key, name)
	}
}
