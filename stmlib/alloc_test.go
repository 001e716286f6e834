package stmlib_test

import (
	"fmt"
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

// TestTMapGetAllocCeiling: inside an open transaction a Get that hits
// costs what its own nested Atomic and its one load (the bucket, whose
// entries carry their deadlines) cost and nothing more — no boxed key, no
// second hash. Checked in both conflict models: under write-only
// conflicts a load logs an undo record, so the baseline is a nested
// Atomic doing a load rather than an empty one.
func TestTMapGetAllocCeiling(t *testing.T) {
	for name, cfg := range map[string]pnstm.Config{
		"write-only":  {Workers: 2},
		"sharedreads": {Workers: 2, SharedReads: true},
	} {
		t.Run(name, func(t *testing.T) {
			rt := newRTConfig(t, cfg)
			m := stmlib.NewTMap[string, []byte](64)
			a := pnstm.NewTVar(0)
			key := "key-000042"
			run(t, rt, func(c *pnstm.Ctx) {
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					m.Put(c, key, []byte("v"))
					base := testing.AllocsPerRun(200, func() {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							_ = pnstm.Load(c, a)
							return nil
						})
					})
					get := testing.AllocsPerRun(200, func() {
						if _, ok := m.Get(c, key); !ok {
							t.Error("Get missed the key just stored")
						}
					})
					if get > base {
						t.Errorf("TMap.Get hit: %.0f allocs, a nested Atomic with one load: %.0f", get, base)
					}
					return nil
				})
			})
		})
	}
}

// TestTSortedMapRangeScanAllocCeiling: a limit-64 scan over a 256-key
// span of a 16k-key map (the benchmark's scan-mem shape: ascending
// preload, 32-entry leaves) pays for its one exactly-sized result and
// what the core charges for its transactions and their reads — not for
// the eight or nine leaves of the span (D49), and not for a fork: its
// three-leaf first wave is one nested child (fork.LeavesPerChild), and the
// wave, a value, costs no object of its own. It reads 4, 5 under -race,
// which is the ceiling; 13 while the first wave forked a child per leaf,
// 16 before pooled fork frames (D53), 19 before recycled workers (D2)
// and 36 before the fork frame.
func TestTSortedMapRangeScanAllocCeiling(t *testing.T) {
	const ceiling = 5
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
// A Sum is one plain loop of loads in one nested transaction and costs
// nothing; it cost 2 while it ran its stripes as a fork job.
func TestWordBackedStructureAllocCeilings(t *testing.T) {
	const addCeiling, pushCeiling, sumCeiling = 2, 2, 0
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
			sum := testing.AllocsPerRun(200, func() { ctr.Sum(c) })
			t.Logf("TCounter.Add %.0f allocs, TQueue.Push %.0f allocs, TCounter.Sum %.0f allocs", add, push, sum)
			if add > addCeiling {
				t.Errorf("TCounter.Add: %.0f allocs, ceiling %d", add, addCeiling)
			}
			if push > pushCeiling {
				t.Errorf("TQueue.Push: %.0f allocs, ceiling %d", push, pushCeiling)
			}
			if sum > sumCeiling {
				t.Errorf("TCounter.Sum: %.0f allocs, ceiling %d", sum, sumCeiling)
			}
			return nil
		})
	})
}

// TestTMapPutAllocFlat: a Put copies its bucket into one new slice, so it
// costs the same objects into a 256-entry bucket as into a 1-entry one:
// the array, the slice header boxed into the variable and the stack entry
// the nested write pushes. A rebuilt Go map cost 4 objects past 8
// entries where the slice costs 2.
func TestTMapPutAllocFlat(t *testing.T) {
	const ceiling = 3
	rt := newRTConfig(t, pnstm.Config{Workers: 2})
	small, big := stmlib.NewTMap[string, []byte](1), stmlib.NewTMap[string, []byte](1)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	val := []byte("v")
	run(t, rt, func(c *pnstm.Ctx) {
		small.Put(c, keys[0], val)
		for _, k := range keys {
			big.Put(c, k, val)
		}
	})
	run(t, rt, func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			put1 := testing.AllocsPerRun(200, func() { small.Put(c, keys[0], val) })
			put256 := testing.AllocsPerRun(200, func() { big.Put(c, keys[42], val) })
			t.Logf("Put into 1 entry: %.0f allocs, into 256 entries: %.0f", put1, put256)
			if put256 != put1 {
				t.Errorf("Put into 256 entries: %.0f allocs, into 1 entry: %.0f", put256, put1)
			}
			if put256 > ceiling {
				t.Errorf("Put into 256 entries: %.0f allocs, ceiling %d", put256, ceiling)
			}
			return nil
		})
	})
}

// BenchmarkTMapPut256 overwrites one key of a 256-entry bucket (point-mem's
// occupancy) inside an open transaction.
func BenchmarkTMapPut256(b *testing.B) {
	rt := newRTConfig(b, pnstm.Config{Workers: 2})
	m := stmlib.NewTMap[string, []byte](1)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	val := []byte("v")
	run(b, rt, func(c *pnstm.Ctx) {
		for _, k := range keys {
			m.Put(c, k, val)
		}
	})
	run(b, rt, func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Put(c, keys[i%256], val)
			}
			return nil
		})
	})
}
