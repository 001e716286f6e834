package core

import (
	"sync/atomic"
	"testing"
)

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
		transfer := func(from, to *Object, amt int) func(*Ctx) {
			return func(c *Ctx) {
				if err := c.Atomic(func(c *Ctx) error {
					c.Parallel(
						func(c *Ctx) {
							_ = c.Atomic(func(c *Ctx) error {
								c.Store(from, c.Load(from).(int)-amt)
								return nil
							})
						},
						func(c *Ctx) {
							_ = c.Atomic(func(c *Ctx) error {
								c.Store(to, c.Load(to).(int)+amt)
								return nil
							})
						},
					)
					return nil
				}); err != nil {
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
		if got := a.Peek().(int) + b.Peek().(int); got != 2000 {
			t.Fatalf("round %d: money not conserved: %d", round, got)
		}
		if a.Peek().(int) != 1000+15 && a.Peek().(int) != 1000-15+30 {
			// a = 1000 - 10 + 25 = 1015 regardless of order.
		}
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
