package core

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// newRT builds a runtime with the given worker count and closes it at test
// end.
func newRT(t *testing.T, workers int, mutate ...func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{Workers: workers}
	for _, m := range mutate {
		m(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 0}); err == nil {
		t.Fatal("Workers=0 accepted")
	}
	if _, err := New(Config{Workers: 33}); err == nil {
		t.Fatal("Workers=33 accepted (bit space would exceed the word)")
	}
	rt, err := New(Config{Workers: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Bitnums() != 64 {
		t.Fatalf("N = %d, want 64", rt.Bitnums())
	}
	rt.Close()
}

// An idle runtime runs no publisher cycle (D59): once the last Run's
// bitnums are back in the free queue, nothing wakes the publisher.
func TestPublisherIdleAfterRun(t *testing.T) {
	rt := newRT(t, 2)
	x := NewObject(0)
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(x, 1)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); rt.sched.freeBitnums() < rt.Bitnums(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the root's bitnum was never freed")
		}
	}
	// The root's discard may have rung once more after the cycle that freed
	// its bitnum had begun: let the publisher take that token.
	time.Sleep(50 * time.Millisecond)
	before := rt.Publisher().Stats().Cycles
	time.Sleep(200 * time.Millisecond)
	if d := rt.Publisher().Stats().Cycles - before; d != 0 {
		t.Fatalf("idle publisher ran %d cycles in 200ms", d)
	}
}

func TestSingleTransactionCommit(t *testing.T) {
	rt := newRT(t, 2)
	x := NewObject(10)
	err := rt.Run(func(c *Ctx) {
		if c.InTx() {
			t.Error("InTx true at root block")
		}
		err := c.Atomic(func(c *Ctx) error {
			if !c.InTx() {
				t.Error("InTx false inside Atomic")
			}
			old := c.Store(x, 42)
			if old != 10 {
				t.Errorf("Store returned old=%v", old)
			}
			if got := c.Load(x); got != 42 {
				t.Errorf("Load inside tx = %v", got)
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
	if got := x.Peek(); got != 42 {
		t.Fatalf("final value = %v", got)
	}
	s := rt.Stats()
	if s.Committed != 1 || s.Begun != 1 || s.Aborted != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUserErrorAborts(t *testing.T) {
	rt := newRT(t, 2)
	x := NewObject("init")
	boom := errors.New("boom")
	err := rt.Run(func(c *Ctx) {
		if got := c.Atomic(func(c *Ctx) error {
			c.Store(x, "dirty")
			return boom
		}); !errors.Is(got, boom) {
			t.Errorf("Atomic error = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Peek(); got != "init" {
		t.Fatalf("value after user abort = %v", got)
	}
	if d := x.StackDepth(); d != 0 {
		t.Fatalf("stack depth after abort = %d", d)
	}
	if s := rt.Stats(); s.UserAbort != 1 || s.Committed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAccessOutsideTransactionPanics(t *testing.T) {
	rt := newRT(t, 1)
	x := NewObject(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = rt.Run(func(c *Ctx) {
		c.Load(x)
	})
}

func TestSequentialSiblingTransactions(t *testing.T) {
	// Case 1 of §5.2: the second transaction in the same block accesses
	// the first one's objects. Same bitnum + epoch window must grant the
	// access with no conflict even before publication.
	rt := newRT(t, 2)
	rt.Publisher().Pause()
	x := NewObject(0)
	err := rt.Run(func(c *Ctx) {
		for i := 1; i <= 5; i++ {
			i := i
			if err := c.Atomic(func(c *Ctx) error {
				c.Store(x, i)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Peek(); got != 5 {
		t.Fatalf("final = %v", got)
	}
	if s := rt.Stats(); s.Conflicts != 0 || s.Aborted != 0 {
		t.Fatalf("case-1 false conflicts occurred: %+v", s)
	}
}

func TestNestedAtomicIsSingleChild(t *testing.T) {
	rt := newRT(t, 2)
	x := NewObject(0)
	y := NewObject(0)
	err := rt.Run(func(c *Ctx) {
		err := c.Atomic(func(c *Ctx) error {
			c.Store(x, 1)
			// footnote 3: atomic{atomic{...}} runs as a borrowed child.
			if err := c.Atomic(func(c *Ctx) error {
				c.Store(y, 2)
				c.Store(x, 10) // parent's object: ancestor access, no conflict
				return nil
			}); err != nil {
				return err
			}
			if got := c.Load(x); got != 10 {
				t.Errorf("parent sees %v after child commit", got)
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
	if x.Peek() != 10 || y.Peek() != 2 {
		t.Fatalf("x=%v y=%v", x.Peek(), y.Peek())
	}
}

func TestNestedChildAbortKeepsParentWrites(t *testing.T) {
	rt := newRT(t, 2)
	x := NewObject("p0")
	y := NewObject("c0")
	boom := errors.New("child boom")
	err := rt.Run(func(c *Ctx) {
		err := c.Atomic(func(c *Ctx) error {
			c.Store(x, "p1")
			if err := c.Atomic(func(c *Ctx) error {
				c.Store(y, "c1")
				c.Store(x, "c-touches-x")
				return boom
			}); !errors.Is(err, boom) {
				t.Errorf("child err = %v", err)
			}
			// Child rolled back: its writes are gone, parent's remain.
			if got := c.Load(x); got != "p1" {
				t.Errorf("x after child abort = %v", got)
			}
			if got := c.Load(y); got != "c0" {
				t.Errorf("y after child abort = %v", got)
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
	if x.Peek() != "p1" || y.Peek() != "c0" {
		t.Fatalf("x=%v y=%v", x.Peek(), y.Peek())
	}
}

func TestParentAbortUndoesCommittedChildren(t *testing.T) {
	// The undo-splice property (D6): aborting a parent undoes writes its
	// committed children made.
	rt := newRT(t, 2)
	x := NewObject(0)
	boom := errors.New("parent boom")
	err := rt.Run(func(c *Ctx) {
		err := c.Atomic(func(c *Ctx) error {
			if err := c.Atomic(func(c *Ctx) error {
				c.Store(x, 99)
				return nil
			}); err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Peek(); got != 0 {
		t.Fatalf("committed child's write survived parent abort: %v", got)
	}
}

func TestParallelOutsideTransaction(t *testing.T) {
	rt := newRT(t, 4)
	results := make([]int, 8)
	err := rt.Run(func(c *Ctx) {
		fns := make([]func(*Ctx), 8)
		for i := range fns {
			i := i
			fns[i] = func(c *Ctx) { results[i] = i * i }
		}
		c.Parallel(fns...)
		// Join: every child ran before Parallel returned.
		for i, v := range results {
			if v != i*i {
				t.Errorf("child %d did not run: %d", i, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelSingleChildRunsInline(t *testing.T) {
	rt := newRT(t, 2)
	ran := false
	err := rt.Run(func(c *Ctx) {
		c.Parallel(func(c *Ctx) { ran = true })
	})
	if err != nil || !ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
	s := rt.Stats()
	if s.InlineChildren != 1 {
		t.Fatalf("InlineChildren = %d", s.InlineChildren)
	}
	if s.Dispatches != 1 { // the root block only
		t.Fatalf("Dispatches = %d", s.Dispatches)
	}
}

func TestParallelEmptyIsNoop(t *testing.T) {
	rt := newRT(t, 2)
	if err := rt.Run(func(c *Ctx) { c.Parallel() }); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Transfer(t *testing.T) {
	// The paper's Figure 1: a transfer whose debit and credit run as
	// parallel nested transactions inside the outer transaction.
	rt := newRT(t, 4)
	a := NewObject(100)
	b := NewObject(50)
	amount := 30
	var newBalanceB int
	err := rt.Run(func(c *Ctx) {
		err := c.Atomic(func(c *Ctx) error { // t0
			c.Parallel(
				func(c *Ctx) { // t1: debit
					if err := c.Atomic(func(c *Ctx) error {
						n := c.Load(a).(int)
						c.Store(a, n-amount)
						return nil
					}); err != nil {
						t.Error(err)
					}
				},
				func(c *Ctx) { // t2: credit
					if err := c.Atomic(func(c *Ctx) error {
						n := c.Load(b).(int)
						c.Store(b, n+amount)
						return nil
					}); err != nil {
						t.Error(err)
					}
				},
			)
			// Line 14: t0 reads B after its child committed — §5.2 case 2.
			newBalanceB = c.Load(b).(int)
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Peek() != 70 || b.Peek() != 80 || newBalanceB != 80 {
		t.Fatalf("a=%v b=%v read=%d", a.Peek(), b.Peek(), newBalanceB)
	}
}

func TestFigure1SameAccount(t *testing.T) {
	// The paper's A == B scenario: debit and credit target the same
	// account, so t1 and t2 genuinely conflict; one aborts and retries,
	// and the net effect must still be atomic.
	rt := newRT(t, 4)
	a := NewObject(100)
	amount := 30
	err := rt.Run(func(c *Ctx) {
		if err := c.Atomic(func(c *Ctx) error {
			c.Parallel(
				func(c *Ctx) {
					if err := c.Atomic(func(c *Ctx) error {
						n := c.Load(a).(int)
						c.Store(a, n-amount)
						return nil
					}); err != nil {
						t.Error(err)
					}
				},
				func(c *Ctx) {
					if err := c.Atomic(func(c *Ctx) error {
						n := c.Load(a).(int)
						c.Store(a, n+amount)
						return nil
					}); err != nil {
						t.Error(err)
					}
				},
			)
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Peek(); got != 100 {
		t.Fatalf("balance after -30/+30 = %v, want 100", got)
	}
}

func TestParallelChildrenSeeParentWrites(t *testing.T) {
	// Children are descendants: accessing the parent's written objects
	// must never conflict (the ancestor test's core guarantee). Each child
	// reads its own object so only parent-vs-child entries are exercised;
	// siblings sharing an object conflict transiently by design (case 3).
	rt := newRT(t, 4)
	objs := make([]*Object, 4)
	for i := range objs {
		objs[i] = NewObject(7)
	}
	got := make([]int, 4)
	err := rt.Run(func(c *Ctx) {
		if err := c.Atomic(func(c *Ctx) error {
			for _, o := range objs {
				c.Store(o, 123)
			}
			fns := make([]func(*Ctx), 4)
			for i := range fns {
				i := i
				fns[i] = func(c *Ctx) {
					if err := c.Atomic(func(c *Ctx) error {
						got[i] = c.Load(objs[i]).(int)
						return nil
					}); err != nil {
						t.Error(err)
					}
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
	for i, v := range got {
		if v != 123 {
			t.Errorf("child %d read %d", i, v)
		}
	}
	if s := rt.Stats(); s.Aborted != 0 {
		t.Errorf("ancestor accesses aborted: %+v", s)
	}
}

func TestSiblingConflictIsResolved(t *testing.T) {
	// Two parallel siblings increment the same counter; conflict
	// detection plus retry must serialize them (no lost update).
	rt := newRT(t, 4)
	x := NewObject(0)
	const siblings = 8
	err := rt.Run(func(c *Ctx) {
		fns := make([]func(*Ctx), siblings)
		for i := range fns {
			fns[i] = func(c *Ctx) {
				if err := c.Atomic(func(c *Ctx) error {
					c.Store(x, c.Load(x).(int)+1)
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
		}
		c.Parallel(fns...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Peek(); got != siblings {
		t.Fatalf("lost updates: %v, want %d", got, siblings)
	}
}

func TestPanicPropagatesThroughJoin(t *testing.T) {
	rt := newRT(t, 2)
	x := NewObject(1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if fmt.Sprint(r) != "child exploded" {
			t.Fatalf("panic = %v", r)
		}
		// The enclosing transaction must have been rolled back.
		if got := x.Peek(); got != 1 {
			t.Fatalf("x = %v after panic rollback", got)
		}
	}()
	_ = rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			c.Store(x, 2)
			c.Parallel(
				func(c *Ctx) { panic("child exploded") },
				func(c *Ctx) {},
			)
			return nil
		})
	})
}

func TestRunAfterClose(t *testing.T) {
	rt := newRT(t, 2)
	rt.Close()
	if err := rt.Run(func(*Ctx) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	rt.Close() // idempotent
}

func TestConcurrentRuns(t *testing.T) {
	rt := newRT(t, 4)
	const runs = 8
	objs := make([]*Object, runs)
	for i := range objs {
		objs[i] = NewObject(0)
	}
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		i := i
		go func() {
			errs <- rt.Run(func(c *Ctx) {
				_ = c.Atomic(func(c *Ctx) error {
					c.Store(objs[i], i)
					return nil
				})
			})
		}()
	}
	for i := 0; i < runs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, o := range objs {
		if o.Peek() != i {
			t.Fatalf("obj %d = %v", i, o.Peek())
		}
	}
}
