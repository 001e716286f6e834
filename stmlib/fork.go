package stmlib

import (
	"pnstm"
	"pnstm/internal/fork"
)

// jobFunc is a fork job written as a closure.
type jobFunc[T any] func(c *pnstm.Ctx, lo, hi int) T

func (f jobFunc[T]) Do(c *pnstm.Ctx, lo, hi int) T { return f(c, lo, hi) }

// doFunc is a fork job with no result.
type doFunc func(c *pnstm.Ctx, lo, hi int)

func (f doFunc) Do(c *pnstm.Ctx, lo, hi int) struct{} { f(c, lo, hi); return struct{}{} }

// inChild runs a job in a nested child transaction of its own.
type inChild[T any, J fork.Job[T]] struct{ j J }

func (a inChild[T, J]) Do(c *pnstm.Ctx, lo, hi int) (r T) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		r = a.j.Do(c, lo, hi)
		return nil
	})
	return r
}

// forEachGroup is fork.Each with each group in one nested child: stmlib's
// jobs load and store variables directly, and a group is a block, not a
// transaction. Called from inside an Atomic, the groups are one atomic
// step of it, and a conflict retries only the group it hit.
func forEachGroup[T any, J fork.Job[T]](c *pnstm.Ctx, units, perChild int, j J, join func(T)) {
	fork.Each(c, units, perChild, inChild[T, J]{j}, join)
}
