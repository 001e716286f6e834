//go:build race

package pnstm

// Under the race detector sync.Pool drops a quarter of what is put back at
// random, so a root's undo chunks do not all come back (the ceilings of
// TestWordStoreAllocCeilings).
func init() { raceEnabled = true }
