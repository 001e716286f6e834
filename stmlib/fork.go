package stmlib

import "pnstm"

// A nested child pays for itself only when its work covers its fork,
// join and nested begin/commit (the price Assa et al. put on a child in
// "Using Nesting to Push the Limits of Transactional Data Structure
// Libraries"). Each fork site names the least work a child must carry,
// in its own units:
const (
	// leavesPerChild: a sorted-map wave of fewer than 8 leaves runs as
	// one child, so a limit-64 scan's 3-leaf first wave does not fork,
	// while 100 leaves still fork the full fanout. A child costs several
	// leaves' work: on 2 vCPUs BenchmarkScanWave runs a 3-leaf wave 2.4
	// times as long in two children as in one.
	leavesPerChild = 4
	// bucketsPerChild and tasksPerChild keep the map's and the image's
	// plans: one group per bucket or structure, up to the fanout. A
	// counter reads all its stripes in one child: a stripe is one load.
	bucketsPerChild = 1
	tasksPerChild   = 1
)

// A job is the work of one fork site: do covers units [lo, hi) inside a
// group's nested child and returns the group's result.
type job[T any] interface {
	do(c *pnstm.Ctx, lo, hi int) T
}

// jobFunc is a job written as a closure.
type jobFunc[T any] func(c *pnstm.Ctx, lo, hi int) T

func (f jobFunc[T]) do(c *pnstm.Ctx, lo, hi int) T { return f(c, lo, hi) }

// doFunc is a job with no result.
type doFunc func(c *pnstm.Ctx, lo, hi int)

func (f doFunc) do(c *pnstm.Ctx, lo, hi int) struct{} { f(c, lo, hi); return struct{}{} }

// forEachGroup splits units into contiguous near-equal groups, as many
// as carry perChild units each, at most fanout and never fewer than one
// (the price rule), and runs j over each in a nested child transaction
// of its own: parallel siblings when there are several, one plain nested
// Atomic when there is one. Called from inside an Atomic, the groups are
// one atomic step of it, and a conflict retries only the group it hit.
// Once every group has finished, join (if not nil) receives their
// results in group order.
//
// The one-group plan forks nothing and allocates nothing of its own:
// only the fork copies j into the closures it hands to Ctx.Parallel, so
// a job that is a value (not a closure) runs unboxed when it does not
// fork.
func forEachGroup[T any, J job[T]](c *pnstm.Ctx, units, perChild, fanout int, j J, join func(T)) {
	n := max(1, min(fanout, units/perChild))
	if n == 1 {
		var r T
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			r = j.do(c, 0, units)
			return nil
		})
		if join != nil {
			join(r)
		}
		return
	}
	jf := j // the fork's copy, so that j itself never leaves this frame
	parts := make([]T, n)
	fns := make([]func(*pnstm.Ctx), n)
	for g := range fns {
		fns[g] = func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				parts[g] = jf.do(c, g*units/n, (g+1)*units/n)
				return nil
			})
		}
	}
	c.Parallel(fns...)
	if join != nil {
		for _, r := range parts {
			join(r)
		}
	}
}
