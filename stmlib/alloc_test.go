package stmlib_test

import (
	"fmt"
	"testing"

	"pnstm"
	"pnstm/internal/alloctest"
	"pnstm/stmlib"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

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
					base := alloctest.Exact(200, func() {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							_ = pnstm.Load(c, a)
							return nil
						})
					})
					get := alloctest.Exact(200, func() {
						if _, ok := m.Get(c, key); !ok {
							t.Error("Get missed the key just stored")
						}
					})
					if get > base+alloctest.Slack {
						t.Errorf("TMap.Get hit: %.3f allocs, a nested Atomic with one load: %.3f (%.2f slack)", get, base, alloctest.Slack)
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
// the eight or nine leaves of the span (D49), not for a fork: its
// three-leaf first wave is one nested child (fork.LeavesPerChild), and the
// wave, a value, costs no object of its own — and not for that child's
// descriptor, which the scan's context keeps from its previous scan
// (D53). Read exactly, it is 3.99 to 4.04 objects, 4.4 to 4.6 under
// -race, where sync.Pool drops some of what comes back: a ceiling of 4.25,
// 4.75 under -race. It read 4.99 to 5.04 (5.4 to 5.6) while the child's
// descriptor was new every scan, and, rounded down, 13 while the first
// wave forked a child per leaf, 16 before pooled fork frames (D53), 19
// before recycled workers (D2) and 36 before the fork frame.
func TestTSortedMapRangeScanAllocCeiling(t *testing.T) {
	ceiling := 4.25
	if raceEnabled {
		ceiling = 4.75
	}
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
		scan := alloctest.Exact(200, func() {
			lo := (i * 977) % 16384
			i++
			if es := m.RangeScan(c, keys[lo], keys[lo+256], 64); len(es) != min(64, 16384-lo) {
				t.Errorf("scan from %d returned %d entries", lo, len(es))
			}
		})
		t.Logf("RangeScan(limit 64) over 256 of 16384 keys: %.3f allocs", scan)
		if scan > ceiling {
			t.Errorf("RangeScan(limit 64): %.3f allocs, ceiling %.2f", scan, ceiling)
		}
	})
}

// TestTSortedMapRangeCountAllocFree: a count over 256 keys (scan-mem's
// preload shape: 32-entry leaves, so 8 or 9 of them) on a one-worker
// runtime, where its one wave does not fork, counts over the views of the
// leaves it read and copies no entry. In a root of its own, published
// before the next, it costs nothing: the descriptors come off the pooled
// frame (D53). The race build's sync.Pool drops some of what comes
// back, so there the ceiling is 2. It reads 0.14 (1.6 to 1.8 under
// -race), and read 2.22 while a count collected its entries into a slice
// to take its length.
func TestTSortedMapRangeCountAllocFree(t *testing.T) {
	ceiling := 0.0
	if raceEnabled {
		ceiling = 2
	}
	rt := newRTConfig(t, pnstm.Config{Workers: 1, SharedReads: true})
	m := stmlib.NewTSortedMap[string, []byte]()
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	val := make([]byte, 64)
	run(t, rt, func(c *pnstm.Ctx) {
		for _, k := range keys {
			m.Put(c, k, val)
		}
	})
	rt.Publisher().Drain()
	var n int
	count := func(c *pnstm.Ctx) { n = m.RangeCount(c, keys[1000], keys[1256]) }
	got := alloctest.Exact(200, func() {
		run(t, rt, count)
		rt.Publisher().Drain()
	})
	t.Logf("RangeCount over 256 of 4096 keys, in a root of its own: %.3f allocs", got)
	if n != 256 {
		t.Errorf("RangeCount = %d, want 256", n)
	}
	if got > ceiling+alloctest.Slack {
		t.Errorf("RangeCount over 256 keys: %.3f allocs, ceiling %.0f and %.2f slack", got, ceiling, alloctest.Slack)
	}
}

// TestWordBackedStructureAllocCeilings: a counter stripe and a queue's
// size are word-backed variables (D52), so an Add and a Push inside an open
// transaction cost neither a boxed integer nor a descriptor (the context
// reuses the one its previous transaction left, D53) nor a closure: an Add
// costs nothing, a Push its node. The counts start past the runtime's
// preallocated small integers, where a box is a heap object. A Sum is one
// plain loop of loads in one nested transaction and costs nothing. Read
// exactly, Add reads 0.09, Push 1.11 and Sum 0.07: each ceiling is its
// whole objects plus alloctest.Slack. Add read 1.09 while it ran its
// stripe's increment as an Update closure, 4 while the stripe was boxed;
// Push read 4 boxed; Sum read 2 while it forked its stripes.
func TestWordBackedStructureAllocCeilings(t *testing.T) {
	const addCeiling, pushCeiling, sumCeiling = 0, 1, 0
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
			add := alloctest.Exact(200, func() { ctr.Add(c, 1) })
			push := alloctest.Exact(200, func() { q.Push(c, elem) })
			sum := alloctest.Exact(200, func() { ctr.Sum(c) })
			t.Logf("TCounter.Add %.3f allocs, TQueue.Push %.3f allocs, TCounter.Sum %.3f allocs", add, push, sum)
			for _, r := range []struct {
				name    string
				got     float64
				ceiling float64
			}{{"TCounter.Add", add, addCeiling}, {"TQueue.Push", push, pushCeiling}, {"TCounter.Sum", sum, sumCeiling}} {
				if r.got > r.ceiling+alloctest.Slack {
					t.Errorf("%s: %.3f allocs, ceiling %.0f and %.2f slack", r.name, r.got, r.ceiling, alloctest.Slack)
				}
			}
			return nil
		})
	})
}

// TestTMapPutAllocFlat: a Put copies its bucket into one new slice, so it
// costs the same objects into a 256-entry bucket as into a 1-entry one:
// the array, and nothing for the variable, which holds the slice's data
// pointer, length and capacity unboxed (D52). Read exactly, both read
// 1.04: the ceiling is 1 plus alloctest.Slack, and the two may differ
// by alloctest.Slack. They read 2.02 and 2.04 while the slice header was
// boxed into the variable, 3 (rounded down) while the nested write also
// pushed a stack entry, and a rebuilt Go map cost 4 objects past 8
// entries.
func TestTMapPutAllocFlat(t *testing.T) {
	const ceiling = 1
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
			put1 := alloctest.Exact(200, func() { small.Put(c, keys[0], val) })
			put256 := alloctest.Exact(200, func() { big.Put(c, keys[42], val) })
			t.Logf("Put into 1 entry: %.3f allocs, into 256 entries: %.3f", put1, put256)
			if put256 > put1+alloctest.Slack || put1 > put256+alloctest.Slack {
				t.Errorf("Put into 256 entries: %.3f allocs, into 1 entry: %.3f, apart by more than %.2f", put256, put1, alloctest.Slack)
			}
			if put256 > ceiling+alloctest.Slack {
				t.Errorf("Put into 256 entries: %.3f allocs, ceiling %d and %.2f slack", put256, ceiling, alloctest.Slack)
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
