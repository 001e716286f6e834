//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"
)

// TestWorkerParksWithoutItsBlock: neither a parked worker nor a pooled
// frame pins anything of the block it last held, so an object only a
// forked child's closure, or the root's own, captured is collected once
// Run has returned (D53: a frame goes back to the pool clean). The frames
// in the pool are taken out and held across each collection, so that the
// pool's own release of them at a collection cannot hide a frame that kept
// its program. The weak package needs Go 1.24.
func TestWorkerParksWithoutItsBlock(t *testing.T) {
	programs := []struct {
		name string
		make func(obj *[64]byte) func(*Ctx)
	}{
		{"fork2", func(obj *[64]byte) func(*Ctx) {
			return func(c *Ctx) { c.Parallel(func(*Ctx) { obj[0]++ }, noop) }
		}},
		{"fork3", func(obj *[64]byte) func(*Ctx) {
			return func(c *Ctx) { c.Parallel(noop, func(*Ctx) { obj[0]++ }, noop) }
		}},
		{"root", func(obj *[64]byte) func(*Ctx) {
			return func(*Ctx) { obj[0]++ }
		}},
	}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			rt := newRT(t, 4)
			w := runCapturing(t, rt, p.make)
			var held []any
			defer func() {
				for _, f := range held {
					frames.Put(f)
				}
			}()
			collected := func() bool {
				for i := 0; i < 8; i++ {
					held = append(held, frames.Get())
				}
				runtime.GC()
				return w.Value() == nil
			}
			if !settle(collected) {
				t.Fatal("an object the program captured is still reachable 1 s after Run returned")
			}
		})
	}
}

// runCapturing runs, as a root, the program mk builds around a fresh
// object, and returns a weak pointer to that object: the caller's frame
// holds no strong one.
func runCapturing(t *testing.T, rt *Runtime, mk func(obj *[64]byte) func(*Ctx)) weak.Pointer[[64]byte] {
	obj := new([64]byte)
	w := weak.Make(obj)
	if err := rt.Run(mk(obj)); err != nil {
		t.Fatal(err)
	}
	return w
}
