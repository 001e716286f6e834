package stmlib_test

import (
	"fmt"
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

// TestTMapGetAllocCeiling: inside an open transaction a Get that hits
// costs what its own nested Atomic and its two loads (value bucket,
// deadline bucket) cost and nothing more — no boxed key, no second hash.
// Checked in both conflict models: under write-only conflicts a load logs
// an undo record, so the baseline is a nested Atomic doing two loads
// rather than an empty one.
func TestTMapGetAllocCeiling(t *testing.T) {
	for name, cfg := range map[string]pnstm.Config{
		"write-only":  {Workers: 2},
		"sharedreads": {Workers: 2, SharedReads: true},
	} {
		t.Run(name, func(t *testing.T) {
			rt := newRTConfig(t, cfg)
			m := stmlib.NewTMap[string, []byte](64)
			a, b := pnstm.NewTVar(0), pnstm.NewTVar(0)
			key := "key-000042"
			run(t, rt, func(c *pnstm.Ctx) {
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					m.Put(c, key, []byte("v"))
					base := testing.AllocsPerRun(200, func() {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							_ = pnstm.Load(c, a) + pnstm.Load(c, b)
							return nil
						})
					})
					get := testing.AllocsPerRun(200, func() {
						if _, ok := m.Get(c, key); !ok {
							t.Error("Get missed the key just stored")
						}
					})
					if get > base {
						t.Errorf("TMap.Get hit: %.0f allocs, a nested Atomic with two loads: %.0f", get, base)
					}
					return nil
				})
			})
		})
	}
}

// TestTSortedMapRangeScanAllocCeiling: a limit-64 scan over a 256-key
// span of a 16k-key map (the benchmark's scan-mem shape: ascending
// preload, 32-entry leaves) pays for the three first-wave children and
// what they return — one exactly-sized part each and one merge — not for
// the eight or nine leaves of the span (D49). The ceiling is a ratchet
// (reads 19; 36 before the fork frame, D53): the frame and the slice of
// its three blocks, a goroutine closure per child, and the scan's own
// parts, merge and closures.
func TestTSortedMapRangeScanAllocCeiling(t *testing.T) {
	const ceiling = 21
	rt := newRTConfig(t, pnstm.Config{Workers: 2, SharedReads: true})
	m := stmlib.NewTSortedMap[string, []byte]()
	keys := make([]string, 16384+256)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	val := make([]byte, 64)
	run(t, rt, func(c *pnstm.Ctx) {
		for _, k := range keys[:16384] {
			m.Put(c, k, val)
		}
	})
	run(t, rt, func(c *pnstm.Ctx) {
		i := 0
		scan := testing.AllocsPerRun(200, func() {
			lo := (i * 977) % 16384
			i++
			if es := m.RangeScan(c, keys[lo], keys[lo+256], 64); len(es) != min(64, 16384-lo) {
				t.Errorf("scan from %d returned %d entries", lo, len(es))
			}
		})
		t.Logf("RangeScan(limit 64) over 256 of 16384 keys: %.1f allocs", scan)
		if scan > ceiling {
			t.Errorf("RangeScan(limit 64): %.1f allocs, ceiling %d", scan, ceiling)
		}
	})
}

// TestWordBackedStructureAllocCeilings: a counter stripe and a queue's
// size are word-backed variables (D52), so an Add and a Push inside an open
// transaction cost their nested Atomic's closures — and the Push its node
// — and neither a boxed integer nor a descriptor: the context reuses the
// one its previous transaction left (D53). The counts start past the
// runtime's preallocated small integers, where a box is a heap object. Each
// ceiling is two below what the boxed representation measured (4 and 4).
func TestWordBackedStructureAllocCeilings(t *testing.T) {
	const addCeiling, pushCeiling = 2, 2
	rt := newRTConfig(t, pnstm.Config{Workers: 2})
	ctr := stmlib.NewTCounter(1)
	q := stmlib.NewTQueue[*int]()
	elem := new(int)
	run(t, rt, func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			ctr.Add(c, 1<<20)
			for i := 0; i < 300; i++ {
				q.Push(c, elem)
			}
			add := testing.AllocsPerRun(200, func() { ctr.Add(c, 1) })
			push := testing.AllocsPerRun(200, func() { q.Push(c, elem) })
			t.Logf("TCounter.Add %.0f allocs, TQueue.Push %.0f allocs", add, push)
			if add > addCeiling {
				t.Errorf("TCounter.Add: %.0f allocs, ceiling %d", add, addCeiling)
			}
			if push > pushCeiling {
				t.Errorf("TQueue.Push: %.0f allocs, ceiling %d", push, pushCeiling)
			}
			return nil
		})
	})
}
