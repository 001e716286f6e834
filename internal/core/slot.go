package core

import (
	"math/rand"
	"sync/atomic"

	"pnstm/internal/epoch"
)

// slot is one of the P worker "threads" of the paper (§3). In this
// implementation worker identity is a token, not a goroutine: the goroutine
// currently running a block holds the slot and carries the per-thread state
// with it (ARCHITECTURE.md D2). When a context parks at a fork it releases the
// slot; when the last child finishes it hands its slot to the parked
// continuation.
type slot struct {
	id int

	// ep is the slot's published epoch. It is monotone non-decreasing
	// (ARCHITECTURE.md D11) so that the publisher's maxEpoch() sample dominates
	// the epoch of every context that ever ran — including contexts that
	// are currently parked. Only the slot's holder stores; the publisher
	// loads concurrently.
	ep atomic.Uint64

	// rng drives randomized backoff. Only the slot's holder uses it.
	rng *rand.Rand
}

// publish raises the slot's epoch to at least e.
func (s *slot) publish(e epoch.Epoch) {
	if epoch.Epoch(s.ep.Load()) < e {
		s.ep.Store(uint64(e))
	}
}

// epochOf returns the slot's published epoch.
func (s *slot) epochOf() epoch.Epoch { return epoch.Epoch(s.ep.Load()) }
