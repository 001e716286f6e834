package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// tinyWait makes a conflicted access abort at its second failed test, for
// tests that need conflict aborts fast and many.
func tinyWait(c *Config) { c.ConflictWait = time.Nanosecond }

// shortWait pins a 40 µs conflict wait, about what 64 yields take at
// GOMAXPROCS=2. Tests that exist to drive rollback, escalation or a
// cross-root write storm under contention pin it: at the default wait many
// of their conflicts would wait for the holder's commit instead of aborting.
func shortWait(c *Config) { c.ConflictWait = 40 * time.Microsecond }

// TestConflictWaitOutlastsHolder: a live conflict whose holder commits
// within the bound is waited out, not aborted. Sibling A stores x and
// keeps its transaction open until B's conflict on x shows in the stats,
// then for hold more; B must get x without an abort. A bound counted in
// yields runs out in microseconds at GOMAXPROCS=2 and aborts B. The
// bound here is far above the hold because the host can deschedule a
// thread for milliseconds, and the wait is wall time.
func TestConflictWaitOutlastsHolder(t *testing.T) {
	const hold = 200 * time.Microsecond
	rt := newRT(t, 2, func(c *Config) { c.ConflictWait = 50 * time.Millisecond })
	x := NewObject(0)
	var stored atomic.Bool
	deadline := time.Now().Add(10 * time.Second)
	err := rt.Run(func(c *Ctx) {
		c.Parallel(
			func(c *Ctx) {
				_ = c.Atomic(func(c *Ctx) error {
					before := rt.Stats().Conflicts
					c.Store(x, 1)
					stored.Store(true)
					for rt.Stats().Conflicts == before {
						if time.Now().After(deadline) {
							t.Error("B's conflict on x never showed")
							return nil
						}
						runtime.Gosched()
					}
					// Busy, not asleep: with an idle P the runtime wakes a
					// sleeper at millisecond granularity.
					for held := time.Now(); time.Since(held) < hold; {
						runtime.Gosched()
					}
					return nil
				})
			},
			func(c *Ctx) {
				for !stored.Load() {
					runtime.Gosched()
				}
				_ = c.Atomic(func(c *Ctx) error {
					c.Store(x, 2)
					return nil
				})
			},
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	if s.Aborted != 0 {
		t.Fatalf("B aborted %d time(s) on a holder that committed %v after the conflict (stats %+v)", s.Aborted, hold, s)
	}
	if got := x.Peek(); got != 2 {
		t.Fatalf("x = %v, want B's 2", got)
	}
}

// TestConflictWaitDeadlockBounded: a deadlock-shaped pair still finishes.
// A holds x and wants y while B holds y and wants x; neither holder can
// commit, so one side must abort (or escalate) once it has waited the
// bound, and the pair must be done within deadlockBounds of it. A wait
// that never expires fails here at that limit.
func TestConflictWaitDeadlockBounded(t *testing.T) {
	const deadlockBounds = 50
	rt, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	x, y := NewObject(0), NewObject(0)
	var aHolds, bHolds atomic.Bool
	cross := func(first, second *Object, mine, theirs *atomic.Bool) func(*Ctx) {
		return func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error {
				c.Store(first, c.Load(first).(int)+1)
				mine.Store(true)
				for !theirs.Load() {
					runtime.Gosched()
				}
				c.Store(second, c.Load(second).(int)+1)
				return nil
			})
		}
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *Ctx) {
			c.Parallel(cross(x, y, &aHolds, &bHolds), cross(y, x, &bHolds, &aHolds))
		})
	}()
	bound := rt.cfg.ConflictWait // the default
	limit := deadlockBounds * bound
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		// The pair still spins: leave the runtime open, Close would wait
		// for it.
		t.Fatalf("deadlock-shaped pair not done after %v (%d × the %v bound; stats %+v)",
			limit, deadlockBounds, bound, rt.Stats())
	}
	elapsed := time.Since(start)
	rt.Close()
	s := rt.Stats()
	if s.Aborted == 0 {
		t.Fatalf("the pair finished without an abort (stats %+v)", s)
	}
	if x.Peek() != 2 || y.Peek() != 2 {
		t.Fatalf("x = %v, y = %v, want 2 and 2", x.Peek(), y.Peek())
	}
	t.Logf("done in %v (%.1f bounds): %d aborts, %d escalations", elapsed,
		float64(elapsed)/float64(bound), s.Aborted, s.Escalations)
}

// BenchmarkNestTree is the repository benchmark's core-nest tree as a core
// rung: one root per iteration forks a depth-3 binary tree of nested
// transactions whose 16 leaves each write 200 objects, half of them shared
// with each neighbour, on Workers 8. It reports aborts and escalations per
// root. Run it with -cpu 1,2 for the GOMAXPROCS rows; Serial is the floor.
func BenchmarkNestTree(b *testing.B) {
	const (
		leaves  = 16
		depth   = 3
		objects = 200
		stride  = objects / 2
	)
	for _, bc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"wait=100us", func(c *Config) { c.ConflictWait = 100 * time.Microsecond }},
		{"wait=300us", func(c *Config) { c.ConflictWait = 300 * time.Microsecond }},
		{"wait=1ms", func(c *Config) { c.ConflictWait = time.Millisecond }},
		{"Serial", func(c *Config) { c.Serial = true }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{Workers: 8}
			bc.mutate(&cfg)
			rt, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			objs := make([]*Object, (leaves-1)*stride+objects)
			for i := range objs {
				objs[i] = NewObject(0)
			}
			mark := 0
			leaf := func(id int) func(*Ctx) {
				return func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						for _, o := range objs[id*stride : id*stride+objects] {
							c.Store(o, mark)
						}
						return nil
					})
				}
			}
			var node func(c *Ctx, d, lo, hi int)
			node = func(c *Ctx, d, lo, hi int) {
				_ = c.Atomic(func(c *Ctx) error {
					if d == 0 {
						fns := make([]func(*Ctx), 0, hi-lo)
						for i := lo; i < hi; i++ {
							fns = append(fns, leaf(i))
						}
						c.Parallel(fns...)
						return nil
					}
					mid := (lo + hi) / 2
					c.Parallel(
						func(c *Ctx) { node(c, d-1, lo, mid) },
						func(c *Ctx) { node(c, d-1, mid, hi) },
					)
					return nil
				})
			}
			before := rt.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mark = i
				if err := rt.Run(func(c *Ctx) { node(c, depth, 0, leaves) }); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d := rt.Stats().Sub(before)
			b.ReportMetric(float64(d.Aborted)/float64(b.N), "aborts/root")
			b.ReportMetric(float64(d.Escalations)/float64(b.N), "escalations/root")
		})
	}
}
