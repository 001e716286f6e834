package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTraceRingWraparound: writing more events than a ring holds keeps
// the newest traceRingSize, in order, and counts the lap as overwritten.
func TestTraceRingWraparound(t *testing.T) {
	r := &traceRing{}
	const n = traceRingSize*2 + 37
	for i := 0; i < n; i++ {
		r.record(&Event{TS: int64(i), Kind: EvBegin})
	}
	if got, want := overwritten(r.pos.Load()), uint64(n-traceRingSize); got != want {
		t.Fatalf("overwritten = %d, want %d", got, want)
	}
	events := r.snapshot(nil)
	if len(events) != traceRingSize {
		t.Fatalf("snapshot holds %d events, want %d", len(events), traceRingSize)
	}
	for i, ev := range events {
		if want := uint64(n - traceRingSize + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
		if ev.TS != int64(ev.Seq) {
			t.Fatalf("event %d: TS %d does not match seq %d (torn read)", i, ev.TS, ev.Seq)
		}
	}
}

// TestTraceRingConcurrentReaders: snapshots taken while the writer laps
// the ring repeatedly never hold a torn event, and within a snapshot the
// sequence numbers are consecutive.
func TestTraceRingConcurrentReaders(t *testing.T) {
	r := &traceRing{}
	const writes = 50 * traceRingSize
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			r.record(&Event{TS: int64(i), Root: uint64(i)})
		}
	}()
	check := func(events []Event) {
		for i, ev := range events {
			if ev.TS != int64(ev.Seq) || ev.Root != ev.Seq {
				t.Fatalf("torn event: seq=%d ts=%d root=%d", ev.Seq, ev.TS, ev.Root)
			}
			if i > 0 && ev.Seq != events[i-1].Seq+1 {
				t.Fatalf("snapshot skips from seq %d to %d", events[i-1].Seq, ev.Seq)
			}
		}
	}
	for {
		select {
		case <-done:
			events := r.snapshot(nil)
			check(events)
			if len(events) != traceRingSize || events[0].Seq != writes-traceRingSize {
				t.Fatalf("final snapshot holds %d events, want the newest %d", len(events), traceRingSize)
			}
			return
		default:
			check(r.snapshot(nil))
		}
	}
}

// TestTraceStatsCountsOverwrites: once the lifecycle firehose laps its
// rings, TraceStats reports the overwritten events as dropped, so
// recorded minus dropped is exactly what a snapshot still holds.
func TestTraceStatsCountsOverwrites(t *testing.T) {
	rt := newRT(t, 1)
	rt.EnableTracing(true)
	obj := NewObject(0)
	for i := 0; i < 3*traceRingSize; i++ {
		if err := rt.Run(func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error { c.Store(obj, i); return nil })
		}); err != nil {
			t.Fatal(err)
		}
	}
	recorded, dropped := rt.TraceStats()
	retained := uint64(len(rt.TraceSnapshot()))
	if dropped == 0 || recorded-dropped != retained {
		t.Fatalf("recorded %d, dropped %d, but a snapshot retains %d", recorded, dropped, retained)
	}
	if s := rt.Stats(); s.TraceEvents != recorded || s.TraceDropped != dropped {
		t.Fatalf("Stats reports %d recorded, %d dropped; TraceStats %d, %d", s.TraceEvents, s.TraceDropped, recorded, dropped)
	}
}

// TestTraceLifecycleEvents: a traced nested transaction tree emits
// begin/commit events with consistent root tickets and correct depths,
// and flipping tracing off silences the recorder.
func TestTraceLifecycleEvents(t *testing.T) {
	rt := newRT(t, 4)
	rt.EnableTracing(true)
	obj := NewObject(0)
	err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(obj, 1)
			c.Parallel(
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error { c.Store(obj, 2); return nil })
				},
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						return c.Atomic(func(c *Ctx) error { c.Load(obj); return nil })
					})
				},
			)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rt.TraceSnapshot()
	var begins, commits int
	roots := make(map[uint64]bool)
	maxDepth := uint8(0)
	for _, ev := range events {
		switch ev.Kind {
		case EvBegin:
			begins++
		case EvCommit:
			commits++
		}
		if ev.Root == 0 {
			t.Fatalf("event without a root ticket: %+v", ev)
		}
		roots[ev.Root] = true
		if ev.Depth > maxDepth {
			maxDepth = ev.Depth
		}
	}
	// Root + 2 parallel children + 1 grandchild = 4 begins, all committed.
	if begins < 4 || commits < 4 {
		t.Fatalf("begins=%d commits=%d, want >= 4 each (events: %d)", begins, commits, len(events))
	}
	if len(roots) != 1 {
		t.Fatalf("one root lineage expected, tickets seen: %v", roots)
	}
	if maxDepth < 2 {
		t.Fatalf("max depth %d, want >= 2 (nested atomic inside parallel child)", maxDepth)
	}
	if ev, _ := rt.TraceStats(); ev == 0 {
		t.Fatal("TraceStats reports zero events")
	}

	// Off: no further events.
	rt.EnableTracing(false)
	before, _ := rt.TraceStats()
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error { c.Store(obj, 3); return nil })
	}); err != nil {
		t.Fatal(err)
	}
	if after, _ := rt.TraceStats(); after != before {
		t.Fatalf("recorder grew while disabled: %d -> %d", before, after)
	}
}

// TestTraceConcurrentWriters: many goroutines tracing concurrently
// never lose an event at this volume: with a snapshotter reading beside
// them, one final snapshot holds every recorded event, none twice.
func TestTraceConcurrentWriters(t *testing.T) {
	rt := newRT(t, 4)
	rt.EnableTracing(true)
	objs := make([]*Object, 16)
	for i := range objs {
		objs[i] = NewObject(0)
	}
	var writers, reader sync.WaitGroup
	var stop atomic.Bool
	reader.Add(1)
	go func() { // reads race the writers
		defer reader.Done()
		for !stop.Load() {
			_ = rt.TraceSnapshot()
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < 4; g++ {
		g := g
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				_ = rt.Run(func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(objs[(g*7+i)%len(objs)], i)
						return nil
					})
				})
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	reader.Wait()

	events := rt.TraceSnapshot()
	recorded, dropped := rt.TraceStats()
	if dropped != 0 {
		t.Fatalf("%d events dropped at this volume", dropped)
	}
	if uint64(len(events)) != recorded {
		t.Fatalf("snapshot holds %d events, recorder counted %d", len(events), recorded)
	}
	// Per (root, seq, ts) uniqueness: no event held twice.
	seen := make(map[string]bool, len(events))
	for _, ev := range events {
		key := fmt.Sprintf("%d/%d/%d", ev.Root, ev.Seq, ev.TS)
		if seen[key] {
			t.Fatalf("event held twice: %+v", ev)
		}
		seen[key] = true
	}
}

// TestTraceAbortAttribution: a conflict abort's event carries the label
// of the object that failed validation, at the right depth.
func TestTraceAbortAttribution(t *testing.T) {
	rt := newRT(t, 2, tinyWait)
	rt.EnableTracing(true)
	hot := NewObject(0)
	hot.SetLabel("m:hot/0")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = rt.Run(func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(hot, c.Load(hot).(int)+1)
						return nil
					})
				})
			}
		}()
	}
	wg.Wait()
	events := rt.TraceSnapshot()
	var attributed int
	for _, ev := range events {
		if ev.Kind == EvAbort && ev.Obj == "m:hot/0" {
			attributed++
		}
	}
	if rt.Stats().Aborted > 0 && attributed == 0 {
		t.Fatalf("aborts happened (%d) but none attributed to the hot object", rt.Stats().Aborted)
	}
	if rt.Stats().Aborted == 0 {
		t.Skip("no contention this run (single-core scheduling); nothing to attribute")
	}
}

// BenchmarkAtomicTracingOff measures the untraced hot path — the cost
// the compiled-in instrumentation adds when the flag is off (one
// atomic load per lifecycle site). Compare with BenchmarkAtomicTracingOn.
func BenchmarkAtomicTracingOff(b *testing.B) { benchAtomicTrace(b, false) }

// BenchmarkAtomicTracingOn measures the same loop with recording on.
func BenchmarkAtomicTracingOn(b *testing.B) { benchAtomicTrace(b, true) }

func benchAtomicTrace(b *testing.B, on bool) {
	rt, err := New(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	rt.EnableTracing(on)
	obj := NewObject(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Run(func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error {
				c.Store(obj, i)
				return nil
			})
		})
	}
}

// TestTraceSampling: with a lifecycle sampling divisor of N, only ~1/N
// root lineages record begin/commit events, while conflict aborts are
// still recorded for EVERY root — attribution must not lose data to
// sampling (D38).
func TestTraceSampling(t *testing.T) {
	rt := newRT(t, 2)
	rt.EnableTracing(true)
	rt.SetTraceSampling(4)
	if got := rt.TraceSampling(); got != 4 {
		t.Fatalf("TraceSampling = %d, want 4", got)
	}
	obj := NewObject(0)
	const roots = 400
	for i := 0; i < roots; i++ {
		if err := rt.Run(func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error { c.Store(obj, i); return nil })
		}); err != nil {
			t.Fatal(err)
		}
	}
	events := rt.TraceSnapshot()
	sampledRoots := make(map[uint64]bool)
	for _, ev := range events {
		if ev.Kind == EvBegin {
			sampledRoots[ev.Root] = true
		}
	}
	// Every 4th ticket records: expect roots/4, give or take the tickets
	// the ring retained (no wraparound at this volume: 2 events/root).
	if n := len(sampledRoots); n < roots/8 || n > roots/2 {
		t.Fatalf("sampled %d of %d roots, want ~%d", n, roots, roots/4)
	}

	// Conflicts bypass sampling: hammer one object from two goroutines
	// and demand abort events even though 3 in 4 lineages are unsampled.
	rt2 := newRT(t, 2, tinyWait)
	rt2.EnableTracing(true)
	rt2.SetTraceSampling(1 << 20) // effectively: no lifecycle events at all
	hot := NewObject(0)
	hot.SetLabel("m:hot/0")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = rt2.Run(func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(hot, c.Load(hot).(int)+1)
						return nil
					})
				})
			}
		}()
	}
	wg.Wait()
	conflicts := rt2.TraceConflicts()
	var aborts int
	for _, ev := range conflicts {
		if ev.Kind == EvAbort {
			if ev.Obj != "m:hot/0" {
				t.Fatalf("conflict event lost its attribution: %+v", ev)
			}
			aborts++
		}
	}
	if aborts == 0 {
		t.Fatal("no abort events in the conflict rings under full sampling skip")
	}
	// And the lifecycle rings hold no begin/commit noise for rt2.
	for _, ev := range rt2.TraceSnapshot() {
		if ev.Kind == EvBegin || ev.Kind == EvCommit {
			t.Fatalf("unsampled lineage leaked a lifecycle event: %+v", ev)
		}
	}
}
