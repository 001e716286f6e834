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
// another stripe. Sum reads every stripe as one atomic step in one nested
// transaction.
//
// The counter composes like every stmlib structure: an Atomic body that
// calls Add joins the caller's transaction, and the increment is undone
// if the caller aborts.
//
// Create with NewTCounter; the zero value is not usable.
type TCounter struct {
	stripes []*pnstm.TVar[int64]
	rotor   atomic.Uint64
}

// NewTCounter returns a counter with the given number of stripes (rounded
// up to a power of two, minimum 1). More stripes mean fewer conflicts
// between concurrent adders at the cost of a wider Sum; the worker count
// is a good default.
func NewTCounter(stripes int) *TCounter {
	t := &TCounter{stripes: make([]*pnstm.TVar[int64], ceilPow2(stripes))}
	for i := range t.stripes {
		t.stripes[i] = pnstm.NewTVar[int64](0)
	}
	return t
}

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
		pnstm.Store(c, s, pnstm.Load(c, s)+delta)
		return nil
	})
}

// Inc adds 1.
func (t *TCounter) Inc(c *pnstm.Ctx) { t.Add(c, 1) }

// Sum returns the counter's value, every stripe read in one nested
// transaction: a stripe is one load, so no stripe count pays for a fork.
// The result is a consistent atomic snapshot — concurrent non-ancestor
// adders conflict with the read and serialize around it.
func (t *TCounter) Sum(c *pnstm.Ctx) int64 {
	var total int64
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		total = 0
		for _, s := range t.stripes {
			total += pnstm.Load(c, s)
		}
		return nil
	})
	return total
}
