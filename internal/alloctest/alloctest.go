// Package alloctest holds the exact allocation ruler that the allocation
// ceilings of pnstm, internal/core, stmlib and server read.
package alloctest

import "runtime"

// Exact is testing.AllocsPerRun without the rounding down: the heap
// objects one call of f allocates on average, as a fraction, counted from
// runtime.MemStats.Mallocs over runs calls under GOMAXPROCS(1) after one
// warm-up call. AllocsPerRun divides in integers, so a path that allocates
// 4.97 objects a run reads 4 there.
func Exact(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
