//go:build race

package core

// Under the race detector sync.Pool drops a quarter of what is put back at
// random: the ceilings of pooled frames and channels are higher under it
// (pooledCeiling).
func init() { raceEnabled = true }
