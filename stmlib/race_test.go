//go:build race

package stmlib_test

// Under the race detector sync.Pool drops some of what is put back, so an
// exact ceiling that relies on pooled objects is higher under it.
func init() { raceEnabled = true }
