package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// Lifetime rules of the fork frame (ARCHITECTURE.md D53): what shares the
// one frame, when a pooled frame may be reused, which descriptors come
// back, and that a recycled channel is always empty.

func noop(*Ctx) {}

// frameModes are the three runtimes every lifetime rule is checked under.
var frameModes = []struct {
	name   string
	mutate func(*Config)
}{
	{"default", func(*Config) {}},
	{"SharedReads", func(c *Config) { c.SharedReads = true }},
	{"Serial", func(c *Config) { c.Serial = true }},
}

// TestForkFrameSize: a two-child frame — join, two blocks, their contexts
// and first descriptors, the reference count and the pin — is one object
// of the 1 KiB size class.
func TestForkFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(fork{}); got > 1024 {
		t.Errorf("fork frame is %d bytes, over the 1 KiB size class", got)
	}
}

// TestSpareDescriptorIdentity: the descriptor of a transaction that queued
// blocks under itself is never handed out again, and the descriptor of one
// that did not is what the context's next begin returns — whichever way
// the transaction ended, and at every depth of a nest. In Serial mode
// nothing is ever forked, so every descriptor comes back.
func TestSpareDescriptorIdentity(t *testing.T) {
	errBoom := errors.New("boom")
	const (
		commit = iota
		conflict
		userError
		childEscalates
	)
	endings := []string{"commit", "conflict", "userError", "childEscalates"}

	for _, mode := range frameModes {
		for _, nested := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/nested=%v", mode.name, nested), func(t *testing.T) {
				rt := newRT(t, 4, mode.mutate, func(c *Config) { c.EscalateAfterAborts = 2 })
				serial := rt.cfg.Serial
				budget := &attemptBudget{t: t, perRoot: 1000}

				// scenario ends one transaction the given way, with or
				// without a real fork under it, and reports its descriptor
				// and the one the next begin handed out.
				scenario := func(c *Ctx, ending int, fork bool) (first, next *txDesc) {
					attempt := 0
					budgeted := budget.root(fmt.Sprintf("%s fork=%v", endings[ending], fork))
					fail := func(c *Ctx) {
						// A nested transaction that conflicts on every try of the
						// parent's first attempt: two aborts, then it escalates.
						_ = c.Atomic(budgeted(func(c *Ctx) error {
							if attempt == 1 {
								panic(conflictSignal{})
							}
							return nil
						}))
					}
					err := c.Atomic(func(c *Ctx) error {
						attempt++
						if attempt == 1 {
							first = c.cur
						} else {
							next = c.cur
						}
						switch {
						case ending == childEscalates && fork:
							c.Parallel(fail, noop)
						case ending == childEscalates:
							c.Parallel(fail) // a single function runs inline
						case fork:
							c.Parallel(noop, noop)
						}
						if ending == conflict && attempt == 1 {
							panic(conflictSignal{})
						}
						if ending == userError {
							return errBoom
						}
						return nil
					})
					if (ending == userError) != (err == errBoom) {
						t.Errorf("%s: Atomic returned %v", endings[ending], err)
					}
					wantAttempts := 1
					if ending == conflict || ending == childEscalates {
						wantAttempts = 2
					}
					if attempt != wantAttempts {
						t.Errorf("%s fork=%v: %d attempts, want %d", endings[ending], fork, attempt, wantAttempts)
					}
					if next == nil {
						_ = c.Atomic(func(c *Ctx) error { next = c.cur; return nil })
					}
					return first, next
				}

				body := func(c *Ctx) {
					for ending := range endings {
						for _, fork := range []bool{false, true} {
							first, next := scenario(c, ending, fork)
							reused := first == next
							if want := !fork || serial; reused != want {
								t.Errorf("%s fork=%v: descriptor reused = %v, want %v",
									endings[ending], fork, reused, want)
							}
						}
					}
					// Three levels deep, twice in turn: each depth's next
					// begin returns the descriptor that depth ended last,
					// and no two depths share one.
					var first [3]*txDesc
					for round := 0; round < 2; round++ {
						var got [3]*txDesc
						_ = c.Atomic(func(c *Ctx) error {
							got[0] = c.cur
							return c.Atomic(func(c *Ctx) error {
								got[1] = c.cur
								return c.Atomic(func(c *Ctx) error { got[2] = c.cur; return nil })
							})
						})
						if got[0] == got[1] || got[1] == got[2] || got[0] == got[2] {
							t.Errorf("round %d: depths share a descriptor: %v", round, got)
						}
						if round == 1 && got != first {
							t.Errorf("three levels: second round's descriptors %v, want the first's %v", got, first)
						}
						first = got
					}
				}
				if err := rt.Run(func(c *Ctx) {
					if !nested {
						body(c)
						return
					}
					_ = c.Atomic(func(c *Ctx) error { body(c); return nil })
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFirstTransactionLivesInTheBlock: a forked child's first transaction
// is the descriptor embedded in its block, and so are that child's retries
// and the sequential transactions after it.
func TestFirstTransactionLivesInTheBlock(t *testing.T) {
	rt := newRT(t, 4)
	child := func(c *Ctx) {
		attempt := 0
		for i := 0; i < 3; i++ {
			_ = c.Atomic(func(c *Ctx) error {
				if c.cur != &c.block.tx0 {
					t.Errorf("transaction %d attempt %d is not the block's embedded descriptor", i, attempt)
				}
				if attempt++; attempt == 1 {
					panic(conflictSignal{})
				}
				return nil
			})
		}
	}
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error { c.Parallel(child, child, child); return nil })
	}); err != nil {
		t.Fatal(err)
	}
}

// forkWidthProgram is the program of TestForkWidths: one root transaction
// forks width children that each add to their own object, forks again —
// three children that rewrite the first wave's objects — and then reads
// everything itself. atBarrier, if non-nil, runs in every first-wave child
// before its transaction; afterFirst runs in the forker between the forks.
func forkWidthProgram(c *Ctx, objs []*Object, total *Object, atBarrier, afterFirst func(*Ctx)) {
	_ = c.Atomic(func(c *Ctx) error {
		first := make([]func(*Ctx), len(objs))
		for i := range first {
			first[i] = func(c *Ctx) {
				if atBarrier != nil {
					atBarrier(c)
				}
				_ = c.Atomic(func(c *Ctx) error {
					c.Store(objs[i], c.Load(objs[i]).(int)+i+1)
					return nil
				})
			}
		}
		c.Parallel(first...)
		if afterFirst != nil {
			afterFirst(c)
		}
		second := make([]func(*Ctx), 3)
		for k := range second {
			second[k] = func(c *Ctx) {
				_ = c.Atomic(func(c *Ctx) error {
					for i := k; i < len(objs); i += len(second) {
						c.Store(objs[i], c.Load(objs[i]).(int)*2+1)
					}
					return nil
				})
			}
		}
		c.Parallel(second...)
		sum := 0
		for _, o := range objs {
			sum += c.Load(o).(int)
		}
		c.Store(total, sum)
		return nil
	})
}

// TestForkWidths runs forks of 9, 2, 3, 5 and 2 children on one runtime
// — past the frame's two inline blocks, the join's two-entry live list and
// both four-note buffers, and so that a pooled frame used wide is reused
// narrow and the other way round — with every child of the first wave
// running at once and the publisher paused, so that the forker carries one
// unpublished note per child into its second fork. The second wave and the
// forker then touch objects whose last writers are committed but
// unpublished: only the notes keep that from being a conflict, and with
// the publisher paused a lost note would spin until the deadline. The
// final state must be the serial-nesting baseline's. Between widths the
// publisher is drained, which frees the bitnums, so from the fourth width
// on blocks re-use them: a unilateral discard's note dated below its
// bitnum's re-use epoch read as lapsed there and cost the forker an abort
// (D12).
func TestForkWidths(t *testing.T) {
	for _, mode := range frameModes[:2] {
		t.Run(mode.name, func(t *testing.T) {
			rt := newRT(t, 16, mode.mutate, shortWait)
			rt.Publisher().Pause()
			for _, width := range []int{9, 2, 3, 5, 2} {
				t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
					newObjs := func() ([]*Object, *Object) {
						objs := make([]*Object, width)
						for i := range objs {
							objs[i] = NewObject(100 * i)
						}
						return objs, NewObject(0)
					}

					oracle := newRT(t, 1, func(c *Config) { c.Serial = true })
					wantObjs, wantTotal := newObjs()
					if err := oracle.Run(func(c *Ctx) { forkWidthProgram(c, wantObjs, wantTotal, nil, nil) }); err != nil {
						t.Fatal(err)
					}

					objs, total := newObjs()
					abortsBefore := rt.Stats().Aborted
					deadline := time.Now().Add(30 * time.Second)
					var started, maxLive atomic.Int32
					atBarrier := func(c *Ctx) {
						// Hold every sibling until all of them are dispatched, then
						// look at the join's live list.
						started.Add(1)
						for started.Load() < int32(width) {
							if time.Now().After(deadline) {
								t.Error("first-wave children were not all dispatched together")
								return
							}
							runtime.Gosched()
						}
						j := c.block.succ
						j.mu.Lock()
						if n := int32(len(j.live)); n > maxLive.Load() {
							maxLive.Store(n)
						}
						j.mu.Unlock()
					}
					notes := 0
					done := make(chan error, 1)
					go func() {
						done <- rt.Run(func(c *Ctx) {
							forkWidthProgram(c, objs, total, atBarrier, func(c *Ctx) { notes = len(c.comDesc) })
						})
					}()
					select {
					case err := <-done:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(time.Until(deadline)):
						t.Fatalf("fork of %d hung (stats %+v)", width, rt.Stats())
					}
					rt.Publisher().Drain()

					for i := range objs {
						if got, want := objs[i].Peek(), wantObjs[i].Peek(); got != want {
							t.Errorf("object %d = %v, serial oracle says %v", i, got, want)
						}
					}
					if got, want := total.Peek(), wantTotal.Peek(); got != want {
						t.Errorf("total = %v, serial oracle says %v", got, want)
					}
					if int(maxLive.Load()) != width {
						t.Errorf("join's live list peaked at %d, want all %d siblings", maxLive.Load(), width)
					}
					if notes != width {
						t.Errorf("forker carried %d notes into its second fork, want one per first-wave child (%d)", notes, width)
					}
					if s := rt.Stats(); s.Aborted != abortsBefore {
						t.Errorf("%d aborts: a committed descendant's note was lost (stats %+v)", s.Aborted-abortsBefore, s)
					}
				})
			}
		})
	}
}

// TestStragglerPinsForkerFrame holds every finisher that is not its join's
// last between the join's unlock and its liveBlocks decrement (D15) while
// three roots run depth-4 trees of alternately transactional and bare
// forks. A held straggler's base transaction is a tx0 in its forker's
// frame, or further up for a bare fork, and the forker has long resumed,
// committed and finished by the time the straggler lets go. The pin chain
// keeps every such frame out of the pool until then; run it under -race,
// which reports a frame cleaned or reused under a straggler. Every leaf's
// increment must land.
func TestStragglerPinsForkerFrame(t *testing.T) {
	const roots, rounds, depth = 3, 20, 4
	rt := newRT(t, 4)
	rt.stragglerHook = func() { time.Sleep(50 * time.Microsecond) }
	var tree func(c *Ctx, leaves []*Object)
	tree = func(c *Ctx, leaves []*Object) {
		if len(leaves) == 1 {
			_ = c.Atomic(func(c *Ctx) error {
				c.Store(leaves[0], c.Load(leaves[0]).(int)+1)
				return nil
			})
			return
		}
		half := len(leaves) / 2
		fork := func(c *Ctx) {
			c.Parallel(func(c *Ctx) { tree(c, leaves[:half]) }, func(c *Ctx) { tree(c, leaves[half:]) })
		}
		if len(leaves)&0x14 != 0 { // 16 and 4 leaves: a transactional fork
			_ = c.Atomic(func(c *Ctx) error { fork(c); return nil })
			return
		}
		fork(c)
	}
	leaves := make([][]*Object, roots)
	var wg sync.WaitGroup
	for r := range leaves {
		leaves[r] = make([]*Object, 1<<depth)
		for i := range leaves[r] {
			leaves[r][i] = NewObject(0)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := rt.Run(func(c *Ctx) { tree(c, leaves[r]) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for r := range leaves {
		for i, o := range leaves[r] {
			if got := o.Peek().(int); got != rounds {
				t.Errorf("root %d leaf %d = %d, want %d (stats %+v)", r, i, got, rounds, rt.Stats())
			}
		}
	}
}

// TestOneShotChannelsComeBackEmpty drives 10,000 fork/joins and 1,000 slot
// yields through the channel pool from concurrent roots while an auditor
// keeps taking channels out of the pool: a channel in the pool was received
// from exactly as often as it was sent on, so every one taken is empty. The
// whole test has a 60 s deadline — a lost wake-up must fail, not hang.
func TestOneShotChannelsComeBackEmpty(t *testing.T) {
	const roots, forksPerRoot, yieldsPerRoot = 4, 2500, 250
	rt, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Closed on success only: Close waits for every Run, and after a hang
	// that wait would be the hang.

	stop := make(chan struct{})
	var audited atomic.Int64
	var auditor sync.WaitGroup
	auditor.Add(1)
	go func() {
		defer auditor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ch := oneShots.Get().(chan joinPayload)
			if len(ch) != 0 {
				t.Errorf("channel taken from the pool holds %d payloads", len(ch))
			}
			oneShots.Put(ch)
			audited.Add(1)
			runtime.Gosched()
		}
	}()

	done := make(chan error, roots)
	for r := 0; r < roots; r++ {
		go func() {
			done <- rt.Run(func(c *Ctx) {
				for i := 0; i < forksPerRoot; i++ {
					c.Parallel(noop, noop)
					if i%(forksPerRoot/yieldsPerRoot) == 0 {
						c.yieldSlot()
					}
				}
			})
		}()
	}
	timeout := time.After(60 * time.Second)
	for r := 0; r < roots; r++ {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-timeout:
			close(stop)
			buf := make([]byte, 1<<16)
			t.Fatalf("fork/join or yield hung (stats %+v)\n%s", rt.Stats(), buf[:runtime.Stack(buf, true)])
		}
	}
	close(stop)
	auditor.Wait()
	rt.Close()
	if audited.Load() == 0 {
		t.Error("the auditor never ran")
	}
	if s := rt.Stats(); s.Handoffs != roots*forksPerRoot {
		t.Errorf("handoffs = %d, want one per join (%d) (stats %+v)", s.Handoffs, roots*forksPerRoot, s)
	}
}
