package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestCrisisBreakerCrossRootWriteStorm reproduces the cross-root
// livelock that nested escalation cannot resolve: several concurrent
// root transactions, each a straight-line write burst over the same
// small object set, abort each other on every attempt. The exponential
// backoff tops out at backoffMax — comparable to one attempt's
// execution time — so staggering never separates them and, without the
// crisis breaker, the group can spin indefinitely (observed in practice
// as the group-commit pipelining cliff). With the breaker, one root
// takes the crisis token, the rest quiesce, and the storm drains. The
// test asserts completion within a generous wall-clock bound and that
// the token is free again afterward.
func TestCrisisBreakerCrossRootWriteStorm(t *testing.T) {
	const (
		roots   = 4
		objects = 32
		rounds  = 20
	)
	rt := newRT(t, 4, func(c *Config) {
		// Engage quickly so the test exercises the breaker, not just
		// survives by luck of the backoff jitter.
		c.CrisisAborts = 4
		c.CrisisBackoff = 500 * time.Microsecond
	})
	objs := make([]*Object, objects)
	for i := range objs {
		objs[i] = NewObject(0)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < roots; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				// Each attempt writes every object in a fresh random
				// order, split across two nested parallel children —
				// the group-commit batch shape that livelocks in
				// practice. Any two concurrent roots overlap everywhere.
				order := rng.Perm(objects)
				lo, hi := order[:objects/2], order[objects/2:]
				bump := func(idx []int) func(*Ctx) {
					return func(c *Ctx) {
						_ = c.Atomic(func(c *Ctx) error {
							for _, j := range idx {
								c.Store(objs[j], c.Load(objs[j]).(int)+1)
							}
							return nil
						})
					}
				}
				err := rt.Run(func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Parallel(bump(lo), bump(hi))
						return nil
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r + 1))
	}
	go func() { wg.Wait(); close(done) }()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("write storm did not drain: cross-root livelock (crisis breaker ineffective)")
	}

	if rt.crisisToken.Load() {
		t.Fatal("crisis token still held after all roots finished")
	}
	total := 0
	for _, o := range objs {
		total += o.Peek().(int)
	}
	// Every root increments every object once per round.
	if want := roots * rounds * objects; total != want {
		t.Fatalf("lost updates: total = %d, want %d", total, want)
	}
	if st := rt.Stats(); st.Crises > 0 {
		t.Logf("breaker engaged %d time(s), %d aborts over %d commits",
			st.Crises, st.Aborted, st.Committed)
	}
}
