//go:build go1.24

package server

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"weak"

	"pnstm"
)

// TestPooledPendingPinsNothing: a pending back in pendings pins nothing of
// the request it carried. A MapPut of a large value and a 64-op envelope
// of puts go through a server, their keys are then deleted from the store
// directly, and the values the server decoded must be collectable — the
// store no longer holds them, so only a pending that kept its request, or
// its op list past release, could. The pendings in the pool are taken out and held
// across each collection, so that the pool's own release of them at a
// collection cannot hide one that kept its request. The weak package
// needs Go 1.24.
func TestPooledPendingPinsNothing(t *testing.T) {
	// One P, so that the pool's per-P slot execute puts a pending in is the
	// test's too, and no collection before the pendings are held: one would
	// empty the pool and free a pending that kept its request along with it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := bootServer(t, Config{})
	w := dialWire(t, s)
	put := func(req Request) {
		t.Helper()
		if resp, ok := w.call(req); !ok || resp.Status != StatusOK {
			t.Fatalf("%+v: %+v", req, resp)
		}
	}

	keys := []string{"big"}
	put(Request{Op: OpMapPut, Name: "m", Key: "big", Value: bytes.Repeat([]byte{0xB1}, 256<<10)})
	ops := make([]TxOp, maxRetainedOps)
	for i := range ops {
		key := fmt.Sprintf("k%02d", i)
		ops[i] = TxOp{Op: OpMapPut, Name: "m", Key: key, Value: bytes.Repeat([]byte{byte(i)}, 512)}
		keys = append(keys, key)
	}
	put(Request{Op: OpTx, Tx: &Tx{Ops: ops}})

	// Take the values as the server decoded and stored them out of the
	// store, on the shard's runtime, so that no further request cycles the
	// pendings through the pool.
	sh := s.shards[0]
	var values []weak.Pointer[byte]
	if err := sh.rt.Run(func(c *pnstm.Ctx) {
		values = values[:0]
		for _, key := range keys {
			v, ok := sh.reg.Map("m").Get(c, key)
			if !ok {
				panic("lost " + key)
			}
			values = append(values, weak.Make(&v[0]))
			sh.reg.Map("m").Delete(c, key)
		}
	}); err != nil {
		t.Fatal(err)
	}

	var held []any // taken out of the pool for good: it refills from New
	pinned := func() []string {
		for i := 0; i < 8; i++ {
			held = append(held, pendings.Get())
		}
		runtime.GC()
		var out []string
		for i, v := range values {
			if v.Value() != nil {
				out = append(out, keys[i])
			}
		}
		return out
	}
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		left := pinned()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("values still reachable 1 s after their keys were deleted: %v", left)
		}
	}
}
