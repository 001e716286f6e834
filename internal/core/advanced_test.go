package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCase2NoFalseConflictWithPausedPublisher is the §5.2 case-2 scenario
// with the publication window held open forever: a parent resuming after
// its forked children commit must access their objects without a single
// conflict, because the finishing blocks left comDesc notes.
func TestCase2NoFalseConflictWithPausedPublisher(t *testing.T) {
	rt := newRT(t, 4)
	rt.Publisher().Pause()
	objs := make([]*Object, 6)
	for i := range objs {
		objs[i] = NewObject(0)
	}
	err := rt.Run(func(c *Ctx) {
		if err := c.Atomic(func(c *Ctx) error {
			c.Parallel(
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						for _, o := range objs[:3] {
							c.Store(o, 1)
						}
						return nil
					})
				},
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						for _, o := range objs[3:] {
							c.Store(o, 2)
						}
						return nil
					})
				},
			)
			// Children committed; the publisher is paused, so the
			// committed masks are stale. comDesc must cover us.
			for i, o := range objs {
				want := 1
				if i >= 3 {
					want = 2
				}
				if got := c.Load(o).(int); got != want {
					t.Errorf("obj %d = %d, want %d", i, got, want)
				}
				c.Store(o, 10+i)
			}
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.Conflicts != 0 {
		t.Fatalf("case-2 false conflicts with paused publisher: %+v", s)
	}
	for i, o := range objs {
		if o.Peek() != 10+i {
			t.Fatalf("obj %d = %v", i, o.Peek())
		}
	}
}

// TestRecycledVictimKeepsItsOwnWrites is case 2 for the last block still
// running. When a finishing sibling discards that block's bitnum (§6.2),
// the block carries on under its base transaction's identity, so what it
// committed under its own bitnum is no longer an ancestor's. Until the
// publisher publishes the discard — never, here — the block's next access
// to an object it wrote before the switch must not read as a conflict: a
// bitnum with a pending discard counts as its base's (activeAncestors).
func TestRecycledVictimKeepsItsOwnWrites(t *testing.T) {
	rt := newRT(t, 4)
	rt.Publisher().Pause()
	x := NewObject(0)
	stored, done := make(chan struct{}), make(chan error, 1)
	var once sync.Once // a retried root runs the block again
	go func() {
		done <- rt.Run(func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error {
				c.Parallel(
					func(c *Ctx) {
						_ = c.Atomic(func(c *Ctx) error { c.Store(x, 1); return nil })
						once.Do(func() { close(stored) })
						// Run on until the sibling has finished and discarded
						// this block's bitnum.
						for deadline := time.Now().Add(5 * time.Second); rt.stats.remoteDiscards.Load() == 0 && time.Now().Before(deadline); {
							runtime.Gosched()
						}
						_ = c.Atomic(func(c *Ctx) error { c.Store(x, c.Load(x).(int)+1); return nil })
					},
					func(*Ctx) { <-stored },
				)
				return nil
			})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		rt.Publisher().Drain()
		t.Fatal("the root did not finish with the publisher paused")
	}
	if st := rt.Stats(); st.Conflicts != 0 || st.RemoteDiscards != 1 || x.Peek() != 2 {
		t.Fatalf("x = %v after %d conflicts and %d remote discards; want 2, 0 and 1 (%+v)", x.Peek(), st.Conflicts, st.RemoteDiscards, st)
	}
}

// TestRecycledVictimAbortUndoesItsWrites: a transaction that began under its
// block's own bitnum and loses the bitnum mid-flight to a finishing sibling
// (§6.2) is left with its parent's ancestor set. Its parent's entries must
// still not read as its own: a write in place over one logs no undo record,
// and the transaction's abort then leaves the write behind (D4).
func TestRecycledVictimAbortUndoesItsWrites(t *testing.T) {
	rt := newRT(t, 4)
	rt.Publisher().Pause()
	w, z := NewObject(0), NewObject(0)
	errFail := errors.New("fail")
	begun := make(chan struct{})
	var once sync.Once // a retried root runs the blocks again
	err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(w, 1)
			c.Store(z, 1)
			c.Parallel(
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						once.Do(func() { close(begun) })
						// Run on until the sibling has finished and discarded
						// this block's bitnum, and publish the discard: the
						// next access that re-tests the ancestor set drops it.
						for deadline := time.Now().Add(5 * time.Second); rt.stats.remoteDiscards.Load() == 0 && time.Now().Before(deadline); {
							runtime.Gosched()
						}
						rt.Publisher().Drain()
						c.Store(z, 2)
						c.Store(w, 2)
						return errFail
					})
				},
				func(*Ctx) { <-begun },
			)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.RemoteDiscards != 1 || w.Peek() != 1 || z.Peek() != 1 {
		t.Fatalf("w = %v, z = %v after %d remote discards; want 1, 1 and 1", w.Peek(), z.Peek(), st.RemoteDiscards)
	}
}

// TestCase3ConflictResolvedByPublication: a conflict against a committed
// concurrent transaction is a false positive that publication resolves.
// With the publisher paused the requester must keep failing; resuming the
// publisher must unblock it.
func TestCase3ConflictResolvedByPublication(t *testing.T) {
	rt := newRT(t, 4, tinyWait)
	rt.Publisher().Pause()
	x := NewObject(0)

	// Phase 1: a root transaction commits but is not published.
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(x, 1)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}

	// Phase 2: an unrelated root transaction touches the same object.
	// Its bitnum differs and the commit is unpublished, so the first
	// attempts conflict; a background resume lets it through.
	resumed := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		rt.Publisher().Resume()
		close(resumed)
	}()
	start := time.Now()
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(x, 2)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	<-resumed
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("second transaction won before publication — lazy window not exercised")
	}
	if s := rt.Stats(); s.Conflicts == 0 {
		t.Fatalf("expected conflicts during the stale window: %+v", s)
	}
	if x.Peek() != 2 {
		t.Fatalf("x = %v", x.Peek())
	}
}

// TestBitnumReuseAcrossManyBlocks drives far more blocks than there are
// bitnums through a tiny runtime, forcing reuse with minimum epochs.
func TestBitnumReuseAcrossManyBlocks(t *testing.T) {
	rt := newRT(t, 2) // N = 4 bitnums
	x := NewObject(0)
	const rounds = 200
	err := rt.Run(func(c *Ctx) {
		for r := 0; r < rounds; r++ {
			c.Parallel(
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(x, c.Load(x).(int)+1)
						return nil
					})
				},
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(x, c.Load(x).(int)+1)
						return nil
					})
				},
			)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Peek(); got != 2*rounds {
		t.Fatalf("x = %v, want %d", got, 2*rounds)
	}
}

// TestDeepNestingBeyondBitnumSpace builds a transaction chain far deeper
// than N, which is only possible through borrowing and the serialization
// fallback (§6).
func TestDeepNestingBeyondBitnumSpace(t *testing.T) {
	rt := newRT(t, 2) // N = 4
	const depth = 100
	x := NewObject(0)
	var rec func(c *Ctx, d int) error
	rec = func(c *Ctx, d int) error {
		return c.Atomic(func(c *Ctx) error {
			c.Store(x, c.Load(x).(int)+1)
			if d == 0 {
				return nil
			}
			var err error
			c.Parallel(func(c *Ctx) { err = rec(c, d-1) })
			return err
		})
	}
	err := rt.Run(func(c *Ctx) {
		if err := rec(c, depth); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Peek(); got != depth+1 {
		t.Fatalf("x = %v, want %d", got, depth+1)
	}
	if s := rt.Stats(); s.Aborted != 0 {
		t.Fatalf("self-nesting chain aborted: %+v", s)
	}
}

// TestWideForkBeyondBitnumSpace forks far more parallel children inside a
// transaction than there are bitnums; the limiter must serialize the
// overflow and everything must still commit exactly once.
func TestWideForkBeyondBitnumSpace(t *testing.T) {
	rt := newRT(t, 2) // N = 4, L = 2
	var ran atomic.Int64
	const width = 64
	err := rt.Run(func(c *Ctx) {
		if err := c.Atomic(func(c *Ctx) error {
			fns := make([]func(*Ctx), width)
			for i := range fns {
				fns[i] = func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						ran.Add(1)
						return nil
					})
				}
			}
			c.Parallel(fns...)
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != width {
		t.Fatalf("ran %d children, want %d", got, width)
	}
}

// TestDeepBinaryTreeSaturatesParentLimit builds the paper's §6.1 worst
// case: a full binary transaction tree deeper than the parent limit, so
// the serialization fallback and unilateral discards must engage.
func TestDeepBinaryTreeSaturatesParentLimit(t *testing.T) {
	for _, aggressive := range []bool{true, false} {
		name := "aggressive"
		if !aggressive {
			name = "conservative"
		}
		t.Run(name, func(t *testing.T) {
			rt := newRT(t, 4, func(c *Config) { c.DisableAggressiveRecycle = !aggressive })
			var leaves atomic.Int64
			const depth = 6 // 64 leaves, 63 internal parents >> L = 4
			var build func(c *Ctx, d int)
			build = func(c *Ctx, d int) {
				err := c.Atomic(func(c *Ctx) error {
					if d == 0 {
						leaves.Add(1)
						return nil
					}
					c.Parallel(
						func(c *Ctx) { build(c, d-1) },
						func(c *Ctx) { build(c, d-1) },
					)
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}
			if err := rt.Run(func(c *Ctx) { build(c, depth) }); err != nil {
				t.Fatal(err)
			}
			if got := leaves.Load(); got != 64 {
				t.Fatalf("leaves = %d, want 64", got)
			}
			s := rt.Stats()
			if s.SerializedFork == 0 && s.InlineChildren == 0 {
				t.Errorf("expected the fallback to engage: %+v", s)
			}
			t.Logf("stats: %+v", s)
		})
	}
}

// TestStressBankInvariant hammers a shared bank with random nested
// transfers and checks conservation of money throughout.
func TestStressBankInvariant(t *testing.T) {
	rt := newRT(t, 4)
	const accounts = 16
	const total = accounts * 1000
	objs := make([]*Object, accounts)
	for i := range objs {
		objs[i] = NewObject(1000)
	}
	const groups = 8
	const transfersPerGroup = 25
	err := rt.Run(func(c *Ctx) {
		fns := make([]func(*Ctx), groups)
		for g := 0; g < groups; g++ {
			seed := int64(g + 1)
			fns[g] = func(c *Ctx) {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < transfersPerGroup; i++ {
					from, to := rng.Intn(accounts), rng.Intn(accounts)
					amt := rng.Intn(100)
					_ = c.Atomic(func(c *Ctx) error {
						// Nested parallel debit/credit, Figure-1 style.
						c.Parallel(
							func(c *Ctx) {
								_ = c.Atomic(func(c *Ctx) error {
									c.Store(objs[from], c.Load(objs[from]).(int)-amt)
									return nil
								})
							},
							func(c *Ctx) {
								_ = c.Atomic(func(c *Ctx) error {
									c.Store(objs[to], c.Load(objs[to]).(int)+amt)
									return nil
								})
							},
						)
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
	sum := 0
	for _, o := range objs {
		sum += o.Peek().(int)
	}
	if sum != total {
		t.Fatalf("money not conserved: %d != %d (stats %+v)", sum, total, rt.Stats())
	}
	t.Logf("stats: %+v", rt.Stats())
}

// TestSerialModeBaseline checks the serial-nesting baseline executes the
// same programs with identical results and no parallel machinery.
func TestSerialModeBaseline(t *testing.T) {
	rt := newRT(t, 1, func(c *Config) { c.Serial = true })
	if rt.Publisher() != nil {
		t.Fatal("serial mode started a publisher")
	}
	x := NewObject(0)
	err := rt.Run(func(c *Ctx) {
		if err := c.Atomic(func(c *Ctx) error {
			c.Parallel(
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(x, c.Load(x).(int)+1)
						return nil
					})
				},
				func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(x, c.Load(x).(int)+10)
						return nil
					})
				},
			)
			c.Store(x, c.Load(x).(int)+100)
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Peek(); got != 111 {
		t.Fatalf("x = %v, want 111", got)
	}
	s := rt.Stats()
	if s.Conflicts != 0 || s.Dispatches != 0 {
		t.Fatalf("serial mode used parallel machinery: %+v", s)
	}
}

// TestSerialModeAbort checks rollback in the baseline.
func TestSerialModeAbort(t *testing.T) {
	rt := newRT(t, 1, func(c *Config) { c.Serial = true })
	x := NewObject(5)
	err := rt.Run(func(c *Ctx) {
		err := c.Atomic(func(c *Ctx) error {
			c.Store(x, 6)
			if err := c.Atomic(func(c *Ctx) error {
				c.Store(x, 7)
				return fmt.Errorf("inner abort")
			}); err == nil {
				t.Error("inner error lost")
			}
			if got := c.Load(x).(int); got != 6 {
				t.Errorf("x after inner abort = %d", got)
			}
			return fmt.Errorf("outer abort")
		})
		if err == nil {
			t.Error("outer error lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Peek(); got != 5 {
		t.Fatalf("x = %v after aborts, want 5", got)
	}
}

// TestSerialModeAbortAfterEarlierRoot: in the baseline an object keeps the
// access entry of whoever touched it last. A root that aborts must still
// undo its write when that entry is an earlier root's — committed in an
// earlier Run, or aborted a moment ago in the same one — and not mistake
// the entry for its own and log nothing.
func TestSerialModeAbortAfterEarlierRoot(t *testing.T) {
	rt := newRT(t, 1, func(c *Config) { c.Serial = true })
	x := NewObject(5)
	store := func(c *Ctx, v int, result error) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(x, v)
			return result
		})
	}
	errFail := fmt.Errorf("abort")
	for _, program := range []func(*Ctx){
		func(c *Ctx) { store(c, 6, nil) },
		func(c *Ctx) { store(c, 7, errFail) },                       // after a committed root of the previous Run
		func(c *Ctx) { store(c, 8, errFail); store(c, 9, errFail) }, // after an aborted root of this Run
	} {
		if err := rt.Run(program); err != nil {
			t.Fatal(err)
		}
		if got := x.Peek(); got != 6 {
			t.Fatalf("x = %v, want the committed 6", got)
		}
	}
}

// TestSerialVsParallelEquivalence runs a commutative workload in both
// modes and compares final states.
func TestSerialVsParallelEquivalence(t *testing.T) {
	run := func(serial bool) []int {
		rt := newRT(t, 4, func(c *Config) { c.Serial = serial; c.Workers = 4 })
		if serial {
			rt.cfg.Workers = 1
		}
		objs := make([]*Object, 8)
		for i := range objs {
			objs[i] = NewObject(0)
		}
		err := rt.Run(func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error {
				fns := make([]func(*Ctx), 8)
				for i := range fns {
					i := i
					fns[i] = func(c *Ctx) {
						_ = c.Atomic(func(c *Ctx) error {
							c.Store(objs[i], c.Load(objs[i]).(int)+i)
							return nil
						})
					}
				}
				c.Parallel(fns...)
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(objs))
		for i, o := range objs {
			out[i] = o.Peek().(int)
		}
		return out
	}
	ser, par := run(true), run(false)
	for i := range ser {
		if ser[i] != par[i] {
			t.Fatalf("divergence at %d: serial %d, parallel %d", i, ser[i], par[i])
		}
	}
}

// TestManySequentialRootTransactions exercises epoch growth and the mask
// table over a long single-context run.
func TestManySequentialRootTransactions(t *testing.T) {
	rt := newRT(t, 2)
	x := NewObject(0)
	const n = 5000
	err := rt.Run(func(c *Ctx) {
		for i := 0; i < n; i++ {
			_ = c.Atomic(func(c *Ctx) error {
				c.Store(x, c.Load(x).(int)+1)
				return nil
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Peek(); got != n {
		t.Fatalf("x = %v", got)
	}
	// During the run the stack may hold a window of committed-but-
	// unpublished entries (publication lag), but never the full history.
	if d := x.StackDepth(); d >= n/2 {
		t.Fatalf("stack depth %d tracks transaction count %d", d, n)
	}
	// Once the publisher catches up, the next access compacts to a single
	// live entry (D7).
	rt.Publisher().Drain()
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(x, -1)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if d := x.StackDepth(); d > 2 {
		t.Fatalf("stack depth after drain = %d", d)
	}
}

// TestStackCompaction verifies dead committed entries are collected.
func TestStackCompaction(t *testing.T) {
	rt := newRT(t, 2)
	x := NewObject(0)
	for round := 0; round < 20; round++ {
		if err := rt.Run(func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error {
				c.Store(x, round)
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	rt.Publisher().Drain()
	if d := x.StackDepth(); d > 1 {
		t.Fatalf("stack not compacted: depth %d", d)
	}
}
