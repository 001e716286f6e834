package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the §9 shared-read extension (Config.SharedReads).

func TestSharedReadersNeverConflict(t *testing.T) {
	// Sibling transactions read the same object concurrently — with the
	// publisher paused, so nothing is ever published. Zero conflicts
	// allowed: readers must not block readers. (A paused publisher also
	// never recycles bitnums, so the reader count must stay within the
	// N = 2P identifier budget: 6 children + the root block fit in 8.)
	rt := newRT(t, 4, func(c *Config) {
		c.SharedReads = true
		c.PublisherStartPaused = true
	})
	x := NewObject(42)
	const readers = 6
	var sum atomic.Int64
	err := rt.Run(func(c *Ctx) {
		fns := make([]func(*Ctx), readers)
		for i := range fns {
			fns[i] = func(c *Ctx) {
				_ = c.Atomic(func(c *Ctx) error {
					sum.Add(int64(c.Load(x).(int)))
					time.Sleep(200 * time.Microsecond) // hold the read open
					return nil
				})
			}
		}
		c.Parallel(fns...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 42*readers {
		t.Fatalf("sum = %d", sum.Load())
	}
	if s := rt.Stats(); s.Conflicts != 0 || s.Aborted != 0 {
		t.Fatalf("readers conflicted: %+v", s)
	}
}

func TestWriteWaitsForActiveReader(t *testing.T) {
	// A writer that is not an ancestor of an active reader must conflict
	// until the reader commits (and is published).
	rt := newRT(t, 4, func(c *Config) { c.SharedReads = true })
	x := NewObject(1)
	readerDone := make(chan struct{})
	writerDone := make(chan time.Time, 1)
	start := time.Now()
	err := rt.Run(func(c *Ctx) {
		c.Parallel(
			func(c *Ctx) { // long reader
				_ = c.Atomic(func(c *Ctx) error {
					_ = c.Load(x)
					time.Sleep(30 * time.Millisecond)
					return nil
				})
				close(readerDone)
			},
			func(c *Ctx) { // writer
				time.Sleep(5 * time.Millisecond) // let the reader in first
				_ = c.Atomic(func(c *Ctx) error {
					c.Store(x, 2)
					return nil
				})
				writerDone <- time.Now()
			},
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-readerDone
	wrote := <-writerDone
	if wrote.Sub(start) < 25*time.Millisecond {
		t.Fatalf("writer finished after %v, before the reader released", wrote.Sub(start))
	}
	if x.Peek() != 2 {
		t.Fatalf("x = %v", x.Peek())
	}
}

func TestAncestorReaderDescendantWriter(t *testing.T) {
	// A transaction reads, then its parallel nested child writes: the
	// reader is an ancestor of the writer, so no conflict.
	rt := newRT(t, 4, func(c *Config) { c.SharedReads = true })
	x := NewObject(10)
	err := rt.Run(func(c *Ctx) {
		err := c.Atomic(func(c *Ctx) error {
			if got := c.Load(x).(int); got != 10 {
				t.Errorf("parent read %d", got)
			}
			c.Parallel(
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(x, 11) // writer's only active reader is its ancestor
						return nil
					})
				},
				func(c *Ctx) {},
			)
			if got := c.Load(x).(int); got != 11 {
				t.Errorf("parent re-read %d after child write", got)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.Aborted != 0 {
		t.Fatalf("ancestor-reader/descendant-writer aborted: %+v", s)
	}
	if x.Peek() != 11 {
		t.Fatalf("x = %v", x.Peek())
	}
}

func TestReadOwnWrite(t *testing.T) {
	rt := newRT(t, 2, func(c *Config) { c.SharedReads = true })
	x := NewObject(0)
	err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(x, 7)
			if got := c.Load(x).(int); got != 7 {
				t.Errorf("read-own-write = %d", got)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReaderOfNonAncestorWriterConflicts(t *testing.T) {
	// Reading a value written by an active non-ancestor transaction must
	// conflict (the value is uncommitted foreign state).
	rt := newRT(t, 4, func(c *Config) { c.SharedReads = true })
	x := NewObject("clean")
	err := rt.Run(func(c *Ctx) {
		c.Parallel(
			func(c *Ctx) { // writer holds x dirty for a while
				_ = c.Atomic(func(c *Ctx) error {
					c.Store(x, "dirty")
					time.Sleep(20 * time.Millisecond)
					c.Store(x, "final")
					return nil
				})
			},
			func(c *Ctx) { // reader must never observe "dirty"
				time.Sleep(5 * time.Millisecond)
				_ = c.Atomic(func(c *Ctx) error {
					if got := c.Load(x).(string); got == "dirty" {
						t.Error("read uncommitted foreign write")
					}
					return nil
				})
			},
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	if x.Peek() != "final" {
		t.Fatalf("x = %v", x.Peek())
	}
}

func TestSharedReadsAuditInvariant(t *testing.T) {
	// The payoff workload: concurrent full-table audits (read-only) over
	// parallel transfers. With shared reads, audits never conflict with
	// each other and still observe consistent snapshots.
	rt := newRT(t, 4, func(c *Config) { c.SharedReads = true })
	const accounts = 16
	const total = accounts * 100
	objs := make([]*Object, accounts)
	for i := range objs {
		objs[i] = NewObject(100)
	}
	var audits, violations atomic.Int64
	err := rt.Run(func(c *Ctx) {
		fns := make([]func(*Ctx), 4)
		for g := 0; g < 2; g++ {
			seed := g
			fns[g] = func(c *Ctx) {
				for i := 0; i < 50; i++ {
					from := (i*7 + seed) % accounts
					to := (i*13 + seed + 1) % accounts
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(objs[from], c.Load(objs[from]).(int)-1)
						c.Store(objs[to], c.Load(objs[to]).(int)+1)
						return nil
					})
				}
			}
		}
		for g := 2; g < 4; g++ {
			fns[g] = func(c *Ctx) {
				for i := 0; i < 30; i++ {
					_ = c.Atomic(func(c *Ctx) error {
						sum := 0
						for _, o := range objs {
							sum += c.Load(o).(int)
						}
						audits.Add(1)
						if sum != total {
							violations.Add(1)
						}
						return nil
					})
				}
			}
		}
		c.Parallel(fns...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if violations.Load() > 0 {
		t.Fatalf("%d/%d audits inconsistent", violations.Load(), audits.Load())
	}
	sum := 0
	for _, o := range objs {
		sum += o.Peek().(int)
	}
	if sum != total {
		t.Fatalf("final sum %d", sum)
	}
}

func TestSharedReadsSerialMode(t *testing.T) {
	rt := newRT(t, 1, func(c *Config) { c.SharedReads = true; c.Serial = true })
	x := NewObject(5)
	err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			if got := c.Load(x).(int); got != 5 {
				t.Errorf("Load = %d", got)
			}
			c.Store(x, 6)
			return nil
		})
	})
	if err != nil || x.Peek() != 6 {
		t.Fatalf("err=%v x=%v", err, x.Peek())
	}
}

// readerCounts returns the length of o's reader set and how many of its
// entries the mask test still keeps (D54).
func readerCounts(rt *Runtime, o *Object) (n, live int) {
	o.mu.lock()
	defer o.mu.unlock()
	for _, e := range o.readers.entries {
		if !e.anc.Minus(rt.st.Masks.Get(e.ep)).Empty() {
			live++
		}
	}
	return len(o.readers.entries), live
}

// readRoot runs one read-only root transaction on o in c's block.
func readRoot(c *Ctx, o *Object) {
	_ = c.Atomic(func(c *Ctx) error {
		_ = c.Load(o)
		return nil
	})
}

func TestReaderSetBoundedByLiveReaders(t *testing.T) {
	// 20,000 read-only roots on an object nobody writes: only the read
	// path's prune (D54) removes their entries.
	const roots = 20000
	rt := newRT(t, 2, func(c *Config) { c.SharedReads = true })
	x := NewObject(1)
	peakLive := 0
	err := rt.Run(func(c *Ctx) {
		for i := 0; i < roots; i++ {
			readRoot(c, x)
			n, live := readerCounts(rt, x)
			// The roots run one after another, so the entries a prune keeps
			// were already live when an earlier root ended: the set never
			// exceeds twice the most live entries seen so far.
			if bound := max(2*peakLive, minReaderPrune) + 1; n > bound {
				t.Errorf("root %d: %d reader entries, bound %d (peak live %d)", i, n, bound, peakLive)
				return
			}
			peakLive = max(peakLive, live)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.ReaderEntriesDropped < roots/2 || s.Conflicts != 0 {
		t.Fatalf("%d prunes dropped %d entries of %d roots (%d conflicts)",
			s.ReaderPrunes, s.ReaderEntriesDropped, roots, s.Conflicts)
	}

	// With nothing published no entry dies, and the set grows. 1024 roots:
	// the doubling prune marks 8, 16, …, 1024 put the next mark exactly at
	// the set's length, so the first read after the drain prunes.
	const paused = 1024
	rt = newRT(t, 2, func(c *Config) { c.SharedReads = true; c.PublisherStartPaused = true })
	x = NewObject(1)
	err = rt.Run(func(c *Ctx) {
		for i := 0; i < paused; i++ {
			readRoot(c, x)
		}
		if n, live := readerCounts(rt, x); n != paused || live != paused {
			t.Errorf("paused publisher: %d entries, %d live; want %d of each", n, live, paused)
		}
		rt.Publisher().Drain()
		readRoot(c, x)
		if n, _ := readerCounts(rt, x); n > minReaderPrune {
			t.Errorf("after Drain the next read left %d entries, want <= %d", n, minReaderPrune)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.ReaderEntriesDropped != paused {
		t.Fatalf("dropped %d entries, want the %d published ones", s.ReaderEntriesDropped, paused)
	}
}

func TestReaderSetPruneKeepsParkedReader(t *testing.T) {
	// A root that read x stays parked in its transaction while other roots'
	// reads prune x's reader set around it. Its entry is live and must
	// survive every prune: a writer root from a third lineage is refused
	// until the parked root commits.
	rt := newRT(t, 4, func(c *Config) { c.SharedReads = true })
	x := NewObject(0)
	var readIn sync.Once
	parked := make(chan struct{})
	release := make(chan struct{})
	var released, early atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = rt.Run(func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error {
				_ = c.Load(x)
				readIn.Do(func() { close(parked) })
				<-release
				return nil
			})
		})
	}()
	<-parked

	before := rt.Stats()
	if err := rt.Run(func(c *Ctx) {
		for rt.Stats().Sub(before).ReaderPrunes < 10 {
			readRoot(c, x)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Publish the pruning roots: the parked root's is the only live entry.
	rt.Publisher().Drain()

	go func() {
		defer wg.Done()
		_ = rt.Run(func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error {
				c.Store(x, 1)
				if !released.Load() {
					early.Store(true)
				}
				return nil
			})
		})
	}()
	// Wait until the writer has been refused a few times (or, if the
	// parked root's entry was pruned, has stored).
	mid := rt.Stats()
	for deadline := time.Now().Add(10 * time.Second); rt.Stats().Sub(mid).Conflicts < 3 && !early.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("writer neither refused nor finished within 10s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	released.Store(true)
	close(release)
	wg.Wait()
	if early.Load() {
		t.Fatal("a non-ancestor writer stored while the parked root's read was live: a prune dropped its entry")
	}
	if x.Peek() != 1 {
		t.Fatalf("x = %v", x.Peek())
	}
}

func TestReaderSetRetractionAfterPrune(t *testing.T) {
	// A reader whose root aborts after prunes reshuffled its object's reader
	// set leaves no entry behind (D16's retraction still finds it), so the
	// next non-ancestor write succeeds without a single conflict. The
	// aborted root's block stays alive, its bitnum unpublished, so only the
	// retraction can remove the entry.
	rt := newRT(t, 4, func(c *Config) { c.SharedReads = true })
	x := NewObject(0)
	errAbort := errors.New("abort")
	var readIn sync.Once
	parked, abort, aborted, finish := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	var readerAnc atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = rt.Run(func(c *Ctx) {
			err := c.Atomic(func(c *Ctx) error {
				_ = c.Load(x)
				readerAnc.Store(uint64(c.ancBase))
				readIn.Do(func() { close(parked) })
				<-abort
				return errAbort
			})
			if !errors.Is(err, errAbort) {
				t.Errorf("Atomic = %v, want the body's error", err)
			}
			close(aborted)
			<-finish
		})
	}()
	<-parked

	before := rt.Stats()
	if err := rt.Run(func(c *Ctx) {
		for rt.Stats().Sub(before).ReaderPrunes < 3 {
			readRoot(c, x)
		}
	}); err != nil {
		t.Fatal(err)
	}
	close(abort)
	<-aborted
	rt.Publisher().Drain()
	x.mu.lock()
	for _, e := range x.readers.entries {
		if uint64(e.anc) == readerAnc.Load() {
			t.Errorf("aborted reader's entry %+v is still in the set", e)
		}
	}
	x.mu.unlock()

	mid := rt.Stats()
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(x, 1)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if d := rt.Stats().Sub(mid); d.Conflicts != 0 {
		t.Fatalf("write after the aborted reader took %d conflicts, want 0", d.Conflicts)
	}
	close(finish)
	wg.Wait()
}
