package fork_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pnstm"
	"pnstm/internal/fork"
)

func newRT(tb testing.TB, workers int) *pnstm.Runtime {
	tb.Helper()
	rt, err := pnstm.New(pnstm.Config{Workers: workers, SharedReads: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	return rt
}

func mustRun(tb testing.TB, rt *pnstm.Runtime, fn func(*pnstm.Ctx)) {
	tb.Helper()
	if err := rt.Run(fn); err != nil {
		tb.Fatal(err)
	}
}

// span is one group as a job saw it: its units and the context it ran in.
type span struct {
	lo, hi int
	c      *pnstm.Ctx
}

// recorder is a job that records every group it runs and returns the
// group's first unit.
type recorder struct {
	mu    *sync.Mutex
	spans *[]span
}

func newRecorder() recorder { return recorder{mu: new(sync.Mutex), spans: new([]span)} }

func (r recorder) Do(c *pnstm.Ctx, lo, hi int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	*r.spans = append(*r.spans, span{lo, hi, c})
	return lo
}

// TestEachGroups: Each runs max(1, min(Workers, units/perChild)) groups,
// contiguous and near-equal, that cover [0, units) exactly once.
func TestEachGroups(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		rt := newRT(t, workers)
		for units := 0; units <= 40; units++ {
			for _, perChild := range []int{1, 2, 4, 8} {
				rec := newRecorder()
				mustRun(t, rt, func(c *pnstm.Ctx) { fork.Each(c, units, perChild, rec, nil) })
				spans := *rec.spans
				name := fmt.Sprintf("%d units, %d per child, %d workers", units, perChild, workers)
				if want := max(1, min(workers, units/perChild)); len(spans) != want {
					t.Fatalf("%s: %d groups, want %d", name, len(spans), want)
				}
				slices.SortFunc(spans, func(a, b span) int { return a.lo - b.lo })
				next, least, most := 0, units, 0
				for _, s := range spans {
					if s.lo != next || s.hi < s.lo {
						t.Fatalf("%s: groups %v do not tile [0, %d)", name, spans, units)
					}
					next, least, most = s.hi, min(least, s.hi-s.lo), max(most, s.hi-s.lo)
				}
				if next != units || most-least > 1 {
					t.Fatalf("%s: groups %v do not cover [0, %d) in near-equal parts", name, spans, units)
				}
			}
		}
	}
}

// TestEachOneGroupRunsInCaller: a single group runs in the caller's own
// context, dispatching no block and beginning no transaction.
func TestEachOneGroupRunsInCaller(t *testing.T) {
	rt := newRT(t, 4)
	rec := newRecorder()
	mustRun(t, rt, func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			before := rt.Stats()
			fork.Each(c, 7, 4, rec, nil) // 7/4: one group
			d := rt.Stats().Sub(before)
			if n := d.Dispatches + d.BorrowDispatch + d.SerializedFork + d.InlineChildren; n != 0 {
				t.Errorf("one group ran %d blocks, want 0", n)
			}
			if d.Begun != 0 {
				t.Errorf("one group began %d transactions, want 0", d.Begun)
			}
			if spans := *rec.spans; len(spans) != 1 || spans[0] != (span{0, 7, c}) {
				t.Errorf("one group ran as %v, want [0, 7) in the caller's context", spans)
			}
			return nil
		})
	})
}

// TestEachJoinsInGroupOrder: join receives the groups' results in group
// order, however the groups were scheduled.
func TestEachJoinsInGroupOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 8} {
		rt := newRT(t, workers)
		var got []int
		mustRun(t, rt, func(c *pnstm.Ctx) {
			fork.Each(c, 40, 1, newRecorder(), func(lo int) { got = append(got, lo) })
		})
		var want []int
		for g := range workers {
			want = append(want, g*40/workers)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%d workers joined %v, want %v", workers, got, want)
		}
	}
}

// TestEachGroupIsNotATransaction: a forked group is a parallel block of
// the caller's transaction and begins nothing of its own. What its job
// begins is a child of the caller's transaction, so the caller's abort
// rolls it back.
func TestEachGroupIsNotATransaction(t *testing.T) {
	rt := newRT(t, 4)
	vars := make([]*pnstm.TVar[int], 4)
	for i := range vars {
		vars[i] = pnstm.NewTVar(0)
	}
	mustRun(t, rt, func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			rec := newRecorder()
			before := rt.Stats()
			fork.Each(c, 4, 1, rec, nil)
			d := rt.Stats().Sub(before)
			if len(*rec.spans) != 4 {
				t.Fatalf("%d groups ran, want 4", len(*rec.spans))
			}
			if d.Begun != 0 {
				t.Errorf("4 groups began %d transactions, want 0", d.Begun)
			}
			return nil
		})
	})
	abort := errors.New("abort")
	mustRun(t, rt, func(c *pnstm.Ctx) {
		err := c.Atomic(func(c *pnstm.Ctx) error {
			before := rt.Stats()
			fork.Each(c, 4, 1, stores(vars), nil)
			if d := rt.Stats().Sub(before); d.Begun != 4 {
				t.Errorf("4 groups of one Atomic each began %d transactions, want 4", d.Begun)
			}
			return abort
		})
		if err != abort {
			t.Fatalf("Atomic = %v, want the abort", err)
		}
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			for i, v := range vars {
				if got := pnstm.Load(c, v); got != 0 {
					t.Errorf("var %d = %d after the caller aborted, want 0", i, got)
				}
			}
			return nil
		})
	})
}

// stores is a job that sets its units' variables to 1, each group in one
// nested transaction of its own.
type stores []*pnstm.TVar[int]

func (s stores) Do(c *pnstm.Ctx, lo, hi int) struct{} {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		for _, v := range s[lo:hi] {
			pnstm.Store(c, v, 1)
		}
		return nil
	})
	return struct{}{}
}

// loads is a job that sums the variables of its units, each group in one
// nested transaction of its own, as stmlib runs its groups.
type loads [][]*pnstm.TVar[int]

func (l loads) Do(c *pnstm.Ctx, lo, hi int) (sum int) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		sum = 0
		for _, unit := range l[lo:hi] {
			for _, v := range unit {
				sum += pnstm.Load(c, v)
			}
		}
		return nil
	})
	return sum
}

// BenchmarkForkPrice is the rung behind the price table: 8 units of W
// loads each, run as 1, 2, 4 or 8 groups of one nested transaction each
// (a per-child minimum of units/groups on an 8-worker runtime), inside
// one transaction of a root of its own, as a served request runs. A
// group costs its fork, its join and its nested begin and commit; a unit
// costs W loads. The per-child minimum of a site is the least work at
// which more groups stop losing to one.
func BenchmarkForkPrice(b *testing.B) {
	const units = 8
	rt := newRT(b, 8)
	for _, w := range []int{4, 32, 256} {
		job := make(loads, units)
		for u := range job {
			job[u] = make([]*pnstm.TVar[int], w)
			for i := range job[u] {
				job[u][i] = pnstm.NewTVar(1)
			}
		}
		for _, groups := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("W=%d/groups=%d", w, groups), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n := 0
					mustRun(b, rt, func(c *pnstm.Ctx) {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							n = 0
							fork.Each(c, units, units/groups, job, func(s int) { n += s })
							return nil
						})
					})
					if n != units*w {
						b.Fatalf("loaded %d, want %d", n, units*w)
					}
				}
			})
		}
	}
}
