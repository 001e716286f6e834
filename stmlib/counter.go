package stmlib

import (
	"sync/atomic"

	"pnstm"
)

// TCounter is a transactional counter striped over several transactional
// variables. Add touches a single stripe chosen by a non-transactional
// rotor, so parallel sibling transactions that increment the counter
// usually land on different stripes and do not conflict; the rotor
// advances on every attempt, so a retry after a collision moves to
// another stripe. Sum reads every stripe as one atomic step, forking one
// nested child transaction per stripe group via Ctx.Parallel — the
// parallel-nested read the runtime makes cheap.
//
// The counter composes like every stmlib structure: an Atomic body that
// calls Add joins the caller's transaction, and the increment is undone
// if the caller aborts.
//
// Create with NewTCounter; the zero value is not usable.
type TCounter struct {
	stripes []*pnstm.TVar[int64]
	fanout  int
	rotor   atomic.Uint64
}

// NewTCounter returns a counter with the given number of stripes (rounded
// up to a power of two, minimum 1). More stripes mean fewer conflicts
// between concurrent adders at the cost of a wider Sum; the worker count
// is a good default.
func NewTCounter(stripes int) *TCounter {
	return NewTCounterFanout(stripes, DefaultFanout)
}

// NewTCounterFanout is NewTCounter with an explicit Sum/Reset fanout: the
// maximum number of parallel nested children the bulk operations fork.
func NewTCounterFanout(stripes, fanout int) *TCounter {
	n := ceilPow2(stripes)
	if fanout < 1 {
		fanout = 1
	}
	t := &TCounter{stripes: make([]*pnstm.TVar[int64], n), fanout: fanout}
	for i := range t.stripes {
		t.stripes[i] = pnstm.NewTVar[int64](0)
	}
	return t
}

// Stripes returns the stripe count (diagnostics and benchmarks).
func (t *TCounter) Stripes() int { return len(t.stripes) }

// SetLabel names the counter's stripes for conflict attribution (D35):
// stripe i becomes "c:<name>/<i>" in flight-recorder events. Call once
// at construction time, before transactions touch the counter.
func (t *TCounter) SetLabel(name string) {
	for i, s := range t.stripes {
		s.SetLabel("c:" + name + "/" + itoa(i))
	}
}

// Add adds delta to the counter.
func (t *TCounter) Add(c *pnstm.Ctx, delta int64) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		// The rotor is read inside the body on purpose: a retry re-picks,
		// steering repeated collisions apart. Any stripe is semantically
		// equivalent, so the non-transactional read cannot affect the
		// committed sum.
		s := t.stripes[t.rotor.Add(1)&uint64(len(t.stripes)-1)]
		pnstm.Update(c, s, func(v int64) int64 { return v + delta })
		return nil
	})
}

// Inc adds 1.
func (t *TCounter) Inc(c *pnstm.Ctx) { t.Add(c, 1) }

// Sum returns the counter's value: one nested child per stripe group
// reads its stripes in parallel, and the partial sums are combined after
// the join. The result is a consistent atomic snapshot — concurrent
// non-ancestor adders conflict with the read and serialize around it.
func (t *TCounter) Sum(c *pnstm.Ctx) int64 {
	var total int64
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		bounds := groupBounds(len(t.stripes), t.fanout)
		parts := make([]int64, len(bounds)-1)
		fns := make([]func(*pnstm.Ctx), len(parts))
		for g := range fns {
			g := g
			fns[g] = func(c *pnstm.Ctx) {
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					var s int64
					for i := bounds[g]; i < bounds[g+1]; i++ {
						s += pnstm.Load(c, t.stripes[i])
					}
					parts[g] = s
					return nil
				})
			}
		}
		c.Parallel(fns...)
		total = 0
		for _, s := range parts {
			total += s
		}
		return nil
	})
	return total
}

// SumInline returns the counter's value by reading the stripes
// sequentially in the caller's transaction — same atomic snapshot as
// Sum, none of Sum's parallel-block forks. This is the right read
// inside an already-parallel composition (a server batch child, a wire
// transaction's per-structure group): there the caller's siblings keep
// the workers busy, and per-read forks are pure dispatch overhead.
func (t *TCounter) SumInline(c *pnstm.Ctx) int64 {
	var total int64
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		var s int64
		for _, stripe := range t.stripes {
			s += pnstm.Load(c, stripe)
		}
		total = s
		return nil
	})
	return total
}

// Reset sets the counter to zero, one nested child per stripe group.
func (t *TCounter) Reset(c *pnstm.Ctx) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		bounds := groupBounds(len(t.stripes), t.fanout)
		fns := make([]func(*pnstm.Ctx), len(bounds)-1)
		for g := range fns {
			g := g
			fns[g] = func(c *pnstm.Ctx) {
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					for i := bounds[g]; i < bounds[g+1]; i++ {
						if pnstm.Load(c, t.stripes[i]) != 0 {
							pnstm.Store(c, t.stripes[i], 0)
						}
					}
					return nil
				})
			}
		}
		c.Parallel(fns...)
		return nil
	})
}
