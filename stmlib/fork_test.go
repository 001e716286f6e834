package stmlib

import (
	"fmt"
	"testing"

	"pnstm"
	"pnstm/internal/fork"
)

// TestForkWidthFollowsWorkers: a bulk operation forks at most one group
// per worker of the runtime it runs on, so a one-worker runtime begins two
// transactions for a Len (itself and one child) and a sixteen-worker one
// uses all sixteen. The width is the runtime's, not the structure's.
func TestForkWidthFollowsWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := scanTestRT(t, workers)
			tm := NewTMap[int, int](64)
			sm, last := hundredLeaves(t, rt)
			mustRun(t, rt, func(c *pnstm.Ctx) {
				for k := range 256 {
					tm.Put(c, k, k)
				}
			})
			rt.Publisher().Drain() // see hundredLeaves
			begun := func(op func(c *pnstm.Ctx) int, want int) uint64 {
				t.Helper()
				var n uint64
				mustRun(t, rt, func(c *pnstm.Ctx) {
					before := rt.Stats()
					if got := op(c); got != want {
						t.Errorf("answered %d, want %d", got, want)
					}
					n = rt.Stats().Sub(before).Begun
				})
				return n
			}
			if got, want := begun(tm.Len, 256), uint64(1+min(workers, 64)); got != want {
				t.Errorf("Len over 64 buckets began %d transactions, want %d (itself and a child per worker)", got, want)
			}
			rangeCount := func(c *pnstm.Ctx) int { return sm.RangeCount(c, 0, last+1) }
			want := uint64(1 + min(workers, sm.Leaves()/fork.LeavesPerChild))
			if got := begun(rangeCount, last+1); got != want {
				t.Errorf("RangeCount over %d leaves began %d transactions, want %d (itself and a child per worker)", sm.Leaves(), got, want)
			}
		})
	}
}
