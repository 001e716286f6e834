package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// errOverBudget is what a body returns once its test's attempt budget is
// spent.
var errOverBudget = errors.New("attempt budget spent")

// attemptBudget bounds the attempts of each root of a test that relies on
// Atomic's unbounded retry, so that a broken liveness mechanism (a
// conflict that never escalates, D16) fails the test by name in seconds
// instead of retrying until -timeout. Every body of a root, nested ones
// included, runs through the root's wrapper: once a root has made perRoot
// attempts the test fails, and from then on every wrapped body of every
// root returns errOverBudget without running, so every Atomic gives up and
// the test ends. The tests give 1,000 attempts per root: twenty times the
// most any root made (47) in twenty race runs of each with a CPU hog
// beside them, at GOMAXPROCS 1 and 2.
type attemptBudget struct {
	t       *testing.T
	perRoot int64
	spent   atomic.Bool
}

// root returns the wrapper for the bodies of one root, named in the
// failure.
func (b *attemptBudget) root(name string) func(body func(*Ctx) error) func(*Ctx) error {
	var n atomic.Int64
	return func(body func(*Ctx) error) func(*Ctx) error {
		return func(c *Ctx) error {
			if b.spent.Load() {
				return errOverBudget
			}
			if n.Add(1) > b.perRoot {
				if b.spent.CompareAndSwap(false, true) {
					b.t.Errorf("%s: over %d attempts in one root: escalation did not break the conflict", name, b.perRoot)
				}
				return errOverBudget
			}
			return body(c)
		}
	}
}

// TestCrossedTransfersDeadlockBreaking reproduces the parent-level
// deadlock that plain requester-aborts cannot resolve: two transactions
// each fork {debit, credit} over the same two accounts in opposite
// directions. Whichever debit commits first leaves an entry owned by its
// still-parked parent; the opposing credit then conflicts with that
// lineage and aborting the credit leaf releases nothing. Only escalation —
// aborting one of the parents — breaks the cycle (nesting-aware contention
// management, paper §9).
func TestCrossedTransfersDeadlockBreaking(t *testing.T) {
	for round := 0; round < 10; round++ {
		rt := newRT(t, 4, shortWait)
		a := NewObject(1000)
		b := NewObject(1000)
		budget := &attemptBudget{t: t, perRoot: 1000}
		transfer := func(from, to *Object, amt int) func(*Ctx) {
			budgeted := budget.root(fmt.Sprintf("round %d: transfer of %d", round, amt))
			return func(c *Ctx) {
				if err := c.Atomic(budgeted(func(c *Ctx) error {
					c.Parallel(
						func(c *Ctx) {
							_ = c.Atomic(budgeted(func(c *Ctx) error {
								c.Store(from, c.Load(from).(int)-amt)
								return nil
							}))
						},
						func(c *Ctx) {
							_ = c.Atomic(budgeted(func(c *Ctx) error {
								c.Store(to, c.Load(to).(int)+amt)
								return nil
							}))
						},
					)
					return nil
				})); err != nil && err != errOverBudget {
					t.Error(err)
				}
			}
		}
		err := rt.Run(func(c *Ctx) {
			c.Parallel(transfer(a, b, 10), transfer(b, a, 25))
		})
		if err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			return
		}
		if got := a.Peek().(int) + b.Peek().(int); got != 2000 {
			t.Fatalf("round %d: money not conserved: %d", round, got)
		}
		// a = 1000 - 10 + 25 = 1015 regardless of order.
		if a.Peek().(int) != 1015 || b.Peek().(int) != 985 {
			t.Fatalf("round %d: a=%v b=%v", round, a.Peek(), b.Peek())
		}
		rt.Close()
	}
}

// TestEscalationReleasesCommittedChildWrites pins down the mechanism:
// when a nested transaction escalates, the parent's rollback must undo the
// committed sibling's writes so the other side can proceed.
func TestEscalationReleasesCommittedChildWrites(t *testing.T) {
	rt := newRT(t, 4, func(c *Config) {
		c.EscalateAfterAborts = 2 // escalate fast
		tinyWait(c)
	})
	x := NewObject(0)
	var commits atomic.Int64
	const pairs = 6
	err := rt.Run(func(c *Ctx) {
		fns := make([]func(*Ctx), pairs)
		for i := range fns {
			fns[i] = func(c *Ctx) {
				if err := c.Atomic(func(c *Ctx) error {
					// Child 1 bumps the shared counter and commits into
					// the parent; child 2 just spins a little, keeping the
					// parent parked so its lineage stays active.
					c.Parallel(
						func(c *Ctx) {
							_ = c.Atomic(func(c *Ctx) error {
								c.Store(x, c.Load(x).(int)+1)
								return nil
							})
						},
						func(c *Ctx) {
							for k := 0; k < 100; k++ {
								_ = k
							}
						},
					)
					return nil
				}); err != nil {
					t.Error(err)
				}
				commits.Add(1)
			}
		}
		c.Parallel(fns...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits.Load() != pairs {
		t.Fatalf("commits = %d", commits.Load())
	}
	if got := x.Peek().(int); got != pairs {
		t.Fatalf("x = %d, want %d (stats %+v)", got, pairs, rt.Stats())
	}
	t.Logf("stats: %+v", rt.Stats())
}
