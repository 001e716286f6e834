// Package fork is the one way the serving path forks: the server's planner
// and every stmlib bulk operation split their work into groups through
// Each, priced by the one table below. A group is a parallel block, not a
// transaction (paper §3.1): what its job begins is a child of the caller's
// transaction, and a job opens the nested child it needs, if any.
package fork

import "pnstm"

// The price table: the least work one group must carry at a site, in
// that site's units, for the group to pay its fork, its join and its
// nested begin/commit (the price Assa et al. put on a child in "Using
// Nesting to Push the Limits of Transactional Data Structure Libraries").
// A site whose every unit covers that passes 1. BenchmarkForkPrice is
// the rung that prices a group against loads per unit.
const (
	// LeavesPerChild prices a sorted-map wave: a limit-64 scan's 3-leaf
	// first wave is one group, while 100 leaves still fork every worker.
	LeavesPerChild = 4
	// OpsPerBlock prices the server's planner: a batch or an envelope
	// forks at most one block per OpsPerBlock ops.
	OpsPerBlock = 8
)

// A Job is the work of one fork site: Do covers units [lo, hi) in the
// context it is handed and returns the group's result.
type Job[T any] interface {
	Do(c *pnstm.Ctx, lo, hi int) T
}

// Each splits units into n = max(1, min(P, units/perChild)) contiguous
// near-equal groups (perChild >= 1), P the runtime's Workers — at most P
// sibling blocks run at once (paper §3), so a wider fork only queues —
// and runs job over each: one group as job.Do(c, 0, units) in the
// caller, several as parallel sibling blocks of c. Only the fork copies
// job into closures, so a job that is a value (not a closure) costs no
// object when it does not fork. Once every group has finished, join (if
// not nil) receives their results in group order.
func Each[T any, J Job[T]](c *pnstm.Ctx, units, perChild int, job J, join func(T)) {
	n := max(1, min(c.Runtime().Workers(), units/perChild))
	if n == 1 {
		r := job.Do(c, 0, units)
		if join != nil {
			join(r)
		}
		return
	}
	jf := job // the fork's copy, so that job itself never leaves this frame
	parts := make([]T, n)
	fns := make([]func(*pnstm.Ctx), n)
	for g := range fns {
		fns[g] = func(c *pnstm.Ctx) { parts[g] = jf.Do(c, g*units/n, (g+1)*units/n) }
	}
	c.Parallel(fns...)
	if join != nil {
		for _, r := range parts {
			join(r)
		}
	}
}
