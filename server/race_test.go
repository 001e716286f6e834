//go:build race

package server

// The race detector's instrumentation allocates: exact allocation
// ceilings are only meaningful without it.
func init() { raceEnabled = true }
