package stmlib_test

import (
	"fmt"
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

func TestTQueueFIFO(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			rt := newRT(t, 2, serial)
			q := stmlib.NewTQueue[int]()
			run(t, rt, func(c *pnstm.Ctx) {
				if _, ok := q.Pop(c); ok {
					t.Error("pop from empty queue")
				}
				for i := 0; i < 10; i++ {
					q.Push(c, i)
				}
				if n := q.Len(c); n != 10 {
					t.Errorf("len = %d", n)
				}
				for i := 0; i < 10; i++ {
					v, ok := q.Pop(c)
					if !ok || v != i {
						t.Errorf("pop %d = %d,%v", i, v, ok)
					}
				}
				if n := q.Len(c); n != 0 {
					t.Errorf("len after drain = %d", n)
				}
				// Interleave pushes and pops across the two-stack flip.
				q.PushAll(c, 100, 101, 102)
				if v, _ := q.Pop(c); v != 100 {
					t.Errorf("pop = %d want 100", v)
				}
				q.Push(c, 103)
				for want := 101; want <= 103; want++ {
					if v, ok := q.Pop(c); !ok || v != want {
						t.Errorf("pop = %d,%v want %d", v, ok, want)
					}
				}
			})
		})
	}
}

// TestTQueueAbortRestores checks that aborting a transaction undoes its
// queue operations, including across the in/out-stack flip.
func TestTQueueAbortRestores(t *testing.T) {
	rt := newRT(t, 2, false)
	q := stmlib.NewTQueue[int]()
	sentinel := fmt.Errorf("deliberate abort")
	run(t, rt, func(c *pnstm.Ctx) {
		q.PushAll(c, 1, 2, 3)
		err := c.Atomic(func(c *pnstm.Ctx) error {
			if v, _ := q.Pop(c); v != 1 { // forces the flip
				t.Errorf("pop = %d", v)
			}
			q.Push(c, 4)
			if n := q.Len(c); n != 3 {
				t.Errorf("len inside tx = %d", n)
			}
			return sentinel
		})
		if err != sentinel {
			t.Fatalf("err = %v", err)
		}
		// The abort must restore 1,2,3 exactly.
		for want := 1; want <= 3; want++ {
			if v, ok := q.Pop(c); !ok || v != want {
				t.Errorf("post-abort pop = %d,%v want %d", v, ok, want)
			}
		}
		if _, ok := q.Pop(c); ok {
			t.Error("queue not empty after drain")
		}
	})
}

// TestTQueueProducersConsumers pushes from parallel producer transactions
// and drains afterwards: the element multiset must be exact, and each
// producer's elements must come out in its push order (FIFO per producer).
func TestTQueueProducersConsumers(t *testing.T) {
	rt := newRT(t, 4, false)
	q := stmlib.NewTQueue[[2]int]() // (producer, seq)
	const producers, per = 6, 30
	run(t, rt, func(c *pnstm.Ctx) {
		fns := make([]func(*pnstm.Ctx), producers)
		for p := 0; p < producers; p++ {
			p := p
			fns[p] = func(c *pnstm.Ctx) {
				for i := 0; i < per; i++ {
					q.Push(c, [2]int{p, i})
				}
			}
		}
		c.Parallel(fns...)
	})
	run(t, rt, func(c *pnstm.Ctx) {
		if n := q.Len(c); n != producers*per {
			t.Fatalf("len = %d want %d", n, producers*per)
		}
		next := make([]int, producers)
		for {
			v, ok := q.Pop(c)
			if !ok {
				break
			}
			p, seq := v[0], v[1]
			if seq != next[p] {
				t.Fatalf("producer %d out of order: got seq %d want %d", p, seq, next[p])
			}
			next[p]++
		}
		for p, n := range next {
			if n != per {
				t.Errorf("producer %d delivered %d want %d", p, n, per)
			}
		}
	})
}
