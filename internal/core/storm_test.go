package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestCrossRootWriteStormDrains: several concurrent root transactions,
// each a write burst over the same object set split across two nested
// parallel children, abort each other on most attempts — the shape
// nested escalation cannot resolve, since the conflict is between
// roots. The conflict wait, escalation and randomized backoff with the
// slot yield must drain the storm on their own: every root commits
// every round, no increment is lost or doubled, and the whole storm
// finishes within a wall bound far above its usual tenths of a second.
// The 8 × 128 shape at the default wait is the wide one; the 4 × 32
// shape pins shortWait so most conflicts abort instead of waiting.
func TestCrossRootWriteStormDrains(t *testing.T) {
	for _, tc := range []struct {
		name           string
		roots, objects int
		wait           func(*Config)
	}{
		{"4x32", 4, 32, shortWait},
		{"8x128", 8, 128, func(*Config) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 20
			rt := newRT(t, 4, tc.wait)
			objs := make([]*Object, tc.objects)
			for i := range objs {
				objs[i] = NewObject(0)
			}

			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < tc.roots; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < rounds; i++ {
						// Each attempt writes every object in a fresh
						// random order: any two concurrent roots
						// overlap everywhere.
						order := rng.Perm(tc.objects)
						lo, hi := order[:tc.objects/2], order[tc.objects/2:]
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
				t.Fatal("write storm did not drain within 60s: cross-root livelock")
			}

			total := 0
			for _, o := range objs {
				total += o.Peek().(int)
			}
			// Every root increments every object once per round.
			if want := tc.roots * rounds * tc.objects; total != want {
				t.Fatalf("lost updates: total = %d, want %d", total, want)
			}
			st := rt.Stats()
			t.Logf("%d aborts, %d escalations over %d commits",
				st.Aborted, st.Escalations, st.Committed)
		})
	}
}

// TestHotObjectRootStormDrains: two goroutines each run 300 roots that
// increment one hot object, aborting at the first failed re-test
// (tinyWait). Every one of the 600 increments must land.
func TestHotObjectRootStormDrains(t *testing.T) {
	const goroutines, roots = 2, 300
	rt := newRT(t, 2, tinyWait)
	hot := NewObject(0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < roots; i++ {
				err := rt.Run(func(c *Ctx) {
					_ = c.Atomic(func(c *Ctx) error {
						c.Store(hot, c.Load(hot).(int)+1)
						return nil
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("hot-object storm did not drain within 60s")
	}
	if got, want := hot.Peek().(int), goroutines*roots; got != want {
		t.Fatalf("lost updates: hot = %d, want %d", got, want)
	}
}
