package stmlib_test

import (
	"fmt"
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

func TestTMapPointOps(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			rt := newRT(t, 4, serial)
			m := stmlib.NewTMap[string, int](16)
			run(t, rt, func(c *pnstm.Ctx) {
				if _, ok := m.Get(c, "a"); ok {
					t.Error("empty map has a")
				}
				m.Put(c, "a", 1)
				m.Put(c, "b", 2)
				m.Put(c, "a", 3) // overwrite
				if v, ok := m.Get(c, "a"); !ok || v != 3 {
					t.Errorf("a = %d,%v want 3,true", v, ok)
				}
				if _, ok := m.Get(c, "b"); !ok {
					t.Error("b missing")
				}
				if n := m.Len(c); n != 2 {
					t.Errorf("len = %d want 2", n)
				}
				if !m.Delete(c, "a") {
					t.Error("delete a reported absent")
				}
				if m.Delete(c, "a") {
					t.Error("second delete a reported present")
				}
				if n := m.Len(c); n != 1 {
					t.Errorf("len after delete = %d want 1", n)
				}
			})
		})
	}
}

func TestTMapBulkOps(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			rt := newRT(t, 4, serial)
			m := stmlib.NewTMap[int, int](32)
			const n = 200
			run(t, rt, func(c *pnstm.Ctx) {
				keys := make([]int, n)
				for i := 0; i < n; i++ {
					m.Put(c, i, i*i)
					keys[i] = i
				}
				if got := m.Len(c); got != n {
					t.Fatalf("len = %d want %d", got, n)
				}

				// Snapshot is a plain consistent copy.
				snap := m.Snapshot(c)
				if len(snap) != n {
					t.Errorf("snapshot len = %d want %d", len(snap), n)
				}
				for k, v := range snap {
					if v != k*k {
						t.Errorf("snapshot[%d] = %d", k, v)
					}
				}

				// BulkUpdate: increment every even key, delete every odd key.
				m.BulkUpdate(c, keys, func(k, v int, ok bool) (int, bool) {
					if !ok {
						t.Errorf("bulk update: key %d missing", k)
					}
					if k%2 == 0 {
						return v + 1, true
					}
					return 0, false
				})
				if got := m.Len(c); got != n/2 {
					t.Errorf("len after bulk = %d want %d", got, n/2)
				}
				if v, ok := m.Get(c, 4); !ok || v != 17 {
					t.Errorf("m[4] = %d,%v want 17,true", v, ok)
				}
				if _, ok := m.Get(c, 3); ok {
					t.Error("odd key survived")
				}
			})
		})
	}
}

// TestTMapBulkInsideTransaction checks that a bulk operation is one atomic
// step of an enclosing transaction: when the enclosing body aborts after
// the bulk call, none of the bulk children's effects survive.
func TestTMapBulkInsideTransaction(t *testing.T) {
	rt := newRT(t, 4, false)
	m := stmlib.NewTMap[int, int](16)
	sentinel := fmt.Errorf("deliberate abort")
	run(t, rt, func(c *pnstm.Ctx) {
		keys := make([]int, 50)
		for i := range keys {
			m.Put(c, i, i)
			keys[i] = i
		}
		err := c.Atomic(func(c *pnstm.Ctx) error {
			// parallel-nested children commit into this tx
			m.BulkUpdate(c, keys, func(int, int, bool) (int, bool) { return 0, false })
			if n := m.Len(c); n != 0 {
				t.Errorf("len inside tx after bulk delete = %d", n)
			}
			return sentinel
		})
		if err != sentinel {
			t.Fatalf("err = %v", err)
		}
		if n := m.Len(c); n != 50 {
			t.Errorf("bulk delete survived enclosing abort: len = %d want 50", n)
		}
	})
}

func TestTMapParallelSiblingsDisjointKeys(t *testing.T) {
	rt := newRT(t, 4, false)
	m := stmlib.NewTMap[int, int](64)
	const workers, per = 8, 25
	run(t, rt, func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			fns := make([]func(*pnstm.Ctx), workers)
			for w := 0; w < workers; w++ {
				w := w
				fns[w] = func(c *pnstm.Ctx) {
					for i := 0; i < per; i++ {
						m.Put(c, w*per+i, w)
					}
				}
			}
			c.Parallel(fns...)
			return nil
		})
	})
	run(t, rt, func(c *pnstm.Ctx) {
		if n := m.Len(c); n != workers*per {
			t.Errorf("len = %d want %d", n, workers*per)
		}
		for w := 0; w < workers; w++ {
			if v, ok := m.Get(c, w*per); !ok || v != w {
				t.Errorf("m[%d] = %d,%v want %d", w*per, v, ok, w)
			}
		}
	})
}
