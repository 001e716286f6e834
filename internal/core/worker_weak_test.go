//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"
)

// TestWorkerParksWithoutItsBlock: a parked worker pins nothing of the
// block it last ran, so an object only a forked child's closure captured
// is collected once Run has returned (D53: the frame is the collector's).
// The weak package needs Go 1.24.
func TestWorkerParksWithoutItsBlock(t *testing.T) {
	rt := newRT(t, 4)
	var w weak.Pointer[[64]byte]
	if err := rt.Run(func(c *Ctx) {
		obj := new([64]byte)
		w = weak.Make(obj)
		c.Parallel(func(*Ctx) { obj[0]++ }, noop)
	}); err != nil {
		t.Fatal(err)
	}
	collected := func() bool {
		runtime.GC()
		return w.Value() == nil
	}
	if !settle(collected) {
		t.Fatal("a forked child's captured object is still reachable 1 s after Run returned")
	}
}
