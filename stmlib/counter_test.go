package stmlib_test

import (
	"fmt"
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

func TestTCounterBasics(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			rt := newRT(t, 4, serial)
			ctr := stmlib.NewTCounter(8)
			run(t, rt, func(c *pnstm.Ctx) {
				if s := ctr.Sum(c); s != 0 {
					t.Errorf("fresh sum = %d", s)
				}
				for i := 0; i < 20; i++ {
					ctr.Inc(c)
				}
				ctr.Add(c, -5)
				if s := ctr.Sum(c); s != 15 {
					t.Errorf("sum = %d want 15", s)
				}
				ctr.Reset(c)
				if s := ctr.Sum(c); s != 0 {
					t.Errorf("sum after reset = %d", s)
				}
			})
		})
	}
}

// TestTCounterParallelAdders increments from parallel sibling
// transactions; striping means most adds do not conflict, and the final
// sum must be exact regardless.
func TestTCounterParallelAdders(t *testing.T) {
	rt := newRT(t, 4, false)
	ctr := stmlib.NewTCounter(8)
	const adders, per = 8, 50
	run(t, rt, func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			fns := make([]func(*pnstm.Ctx), adders)
			for i := range fns {
				fns[i] = func(c *pnstm.Ctx) {
					for k := 0; k < per; k++ {
						ctr.Inc(c)
					}
				}
			}
			c.Parallel(fns...)
			// The enclosing transaction reads the total its children just
			// committed (the §5.2 "case 2" access pattern).
			if s := ctr.Sum(c); s != adders*per {
				t.Errorf("sum inside tx = %d want %d", s, adders*per)
			}
			return nil
		})
	})
	run(t, rt, func(c *pnstm.Ctx) {
		if s := ctr.Sum(c); s != adders*per {
			t.Errorf("final sum = %d want %d", s, adders*per)
		}
	})
}

// TestTCounterSumNarrowAndWide: Sum is the same atomic snapshot on a
// counter narrow enough to read inline and on one wide enough that a
// child per stripe group would fork every worker, in and out of
// enclosing transactions, on serial and parallel runtimes.
func TestTCounterSumNarrowAndWide(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			rt := newRT(t, 4, serial)
			for _, stripes := range []int{1, 256} {
				ctr := stmlib.NewTCounter(stripes)
				run(t, rt, func(c *pnstm.Ctx) {
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						for i := 0; i < 30; i++ {
							ctr.Add(c, int64(i))
						}
						if s := ctr.Sum(c); s != 435 {
							t.Errorf("%d stripes: Sum = %d, want 435", stripes, s)
						}
						return nil
					})
				})
				run(t, rt, func(c *pnstm.Ctx) {
					if s := ctr.Sum(c); s != 435 {
						t.Errorf("%d stripes: top-level Sum = %d, want 435", stripes, s)
					}
				})
			}
		})
	}
}

// TestTCounterSumDoesNotFork: a stripe is one load, so Sum reads every
// stripe in its own nested transaction whatever the width — one
// transaction, and no block dispatched.
func TestTCounterSumDoesNotFork(t *testing.T) {
	rt := newRT(t, 4, false)
	for _, stripes := range []int{8, 256} {
		ctr := stmlib.NewTCounter(stripes)
		run(t, rt, func(c *pnstm.Ctx) {
			ctr.Add(c, 7)
			before := rt.Stats()
			if s := ctr.Sum(c); s != 7 {
				t.Errorf("Sum = %d, want 7", s)
			}
			d := rt.Stats().Sub(before)
			if d.Begun != 1 {
				t.Errorf("Sum over %d stripes began %d transactions, want 1", stripes, d.Begun)
			}
			if n := d.Dispatches + d.BorrowDispatch; n != 0 {
				t.Errorf("Sum over %d stripes dispatched %d blocks, want 0", stripes, n)
			}
		})
	}
}

// TestTCounterAbortUndoesAdds checks that aborting an enclosing
// transaction undoes the adds of its committed parallel children.
func TestTCounterAbortUndoesAdds(t *testing.T) {
	rt := newRT(t, 4, false)
	ctr := stmlib.NewTCounter(4)
	sentinel := fmt.Errorf("deliberate abort")
	run(t, rt, func(c *pnstm.Ctx) {
		ctr.Add(c, 100)
		err := c.Atomic(func(c *pnstm.Ctx) error {
			c.Parallel(
				func(c *pnstm.Ctx) { ctr.Add(c, 1) },
				func(c *pnstm.Ctx) { ctr.Add(c, 2) },
				func(c *pnstm.Ctx) { ctr.Add(c, 3) },
			)
			if s := ctr.Sum(c); s != 106 {
				t.Errorf("sum inside tx = %d want 106", s)
			}
			return sentinel
		})
		if err != sentinel {
			t.Fatalf("err = %v", err)
		}
		if s := ctr.Sum(c); s != 100 {
			t.Errorf("sum after abort = %d want 100", s)
		}
	})
}
