package core

import (
	"pnstm/internal/bitnum"
	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
	"sync"
)

// scheduler implements the paper's elementary work-stealing system (§3): a
// single global block queue, P worker slots, and the free bitnum queue,
// all under one monitor — the paper's single queue lock. "Stealing" a
// block pairs an idle slot with a queued block and reserves a bitnum for
// it; the pairing spawns a goroutine that runs the block to completion.
//
// Beyond the paper's queue the scheduler also parks slot *waiters*:
// contexts that yielded their slot after repeated aborts. Queued blocks
// take priority over waiters — a waiter's conflict may only resolve once
// queued descendants have run — and waiters hold no object entries while
// parked (they yield only after rolling back), so this cannot block
// anyone.
type scheduler struct {
	rt *Runtime

	mu      sync.Mutex
	queue   []*block
	qhead   int
	free    *bitnum.Queue
	idle    []*slot
	waiters []chan joinPayload
}

func newScheduler(rt *Runtime, nbits int, slots []*slot) *scheduler {
	s := &scheduler{
		rt:   rt,
		free: bitnum.NewQueue(nbits),
		idle: make([]*slot, len(slots)),
	}
	copy(s.idle, slots)
	return s
}

func (s *scheduler) qlen() int { return len(s.queue) - s.qhead }

// peekLocked returns the next block to dispatch without removing it.
func (s *scheduler) peekLocked() *block {
	return s.queue[s.qhead]
}

// popLocked removes the next block.
func (s *scheduler) popLocked() *block {
	b := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qhead = 0
	}
	return b
}

// enqueue adds blocks to the queue and dispatches.
func (s *scheduler) enqueue(blocks ...*block) {
	s.mu.Lock()
	s.queue = append(s.queue, blocks...)
	s.dispatchLocked()
	s.mu.Unlock()
}

// enqueueAndRelease atomically enqueues fork children and releases the
// forking context's slot (paper parallel(): the forker ceases execution
// and its thread goes back to stealing).
func (s *scheduler) enqueueAndRelease(blocks []block, sl *slot) {
	s.mu.Lock()
	for i := range blocks {
		s.queue = append(s.queue, &blocks[i])
	}
	s.idle = append(s.idle, sl)
	s.dispatchLocked()
	s.mu.Unlock()
}

// releaseSlot returns a slot to the pool.
func (s *scheduler) releaseSlot(sl *slot) {
	s.mu.Lock()
	s.idle = append(s.idle, sl)
	s.dispatchLocked()
	s.mu.Unlock()
}

// parkWaiter releases a slot and registers a channel to receive one back.
func (s *scheduler) parkWaiter(sl *slot, ch chan joinPayload) {
	s.mu.Lock()
	s.idle = append(s.idle, sl)
	s.waiters = append(s.waiters, ch)
	s.dispatchLocked()
	s.mu.Unlock()
}

// freeBitnum is the publisher's callback: a fully published bitnum returns
// to the queue with its minimum re-use epoch (paper Fig. 4 lines 16–18).
func (s *scheduler) freeBitnum(bn bitvec.Bitnum, minEp epoch.Epoch) {
	s.mu.Lock()
	s.free.Release(bn, minEp)
	s.dispatchLocked()
	s.mu.Unlock()
}

// returnUnused gives back a bitnum that was reserved at dispatch but never
// adopted (the block turned out to be a steal-time single child, D9). The
// bitnum was never used at any epoch, so its minimum epoch is unchanged.
func (s *scheduler) returnUnused(f bitnum.Free) {
	s.mu.Lock()
	s.free.Release(f.Bn, f.MinEp)
	s.dispatchLocked()
	s.mu.Unlock()
}

// borrowEligibleLocked reports whether b can run borrowing its base
// transaction's bitnum: it must have an active base transaction and be the
// base transaction's sole live block — not merely its join's last
// unfinished preceding block, since bare nested forks put several live
// joins under one transaction (D15). Observing liveBlocks == 1 from the
// (queued) block's own perspective is stable: finished siblings stay
// finished, and the only block that could fork new ones is the observer.
func borrowEligibleLocked(b *block) bool {
	return b.succ != nil && b.baseTx != nil && b.baseTx.liveBlocks.Load() == 1
}

// dispatchLocked pairs queued blocks with idle slots while bitnums (or
// borrow eligibility) allow, then grants remaining idle slots to waiters.
// Must hold s.mu.
func (s *scheduler) dispatchLocked() {
	for {
		if s.qlen() > 0 && len(s.idle) > 0 {
			b := s.peekLocked()
			if s.free.Len() > 0 {
				f, _ := s.free.Reserve()
				s.popLocked()
				sl := s.popIdleLocked()
				go s.rt.runBlock(sl, b, f, false)
				continue
			}
			if borrowEligibleLocked(b) {
				s.popLocked()
				sl := s.popIdleLocked()
				go s.rt.runBlock(sl, b, bitnum.Free{Bn: bitvec.None}, true)
				continue
			}
			// Head-of-line block needs a bitnum; one will be freed by the
			// publisher as running blocks finish (the parent limiter
			// guarantees at least P bitnums cycle through leaf blocks).
		}
		if len(s.waiters) > 0 && len(s.idle) > 0 {
			ch := s.waiters[0]
			copy(s.waiters, s.waiters[1:])
			s.waiters = s.waiters[:len(s.waiters)-1]
			ch <- joinPayload{slot: s.popIdleLocked()}
			continue
		}
		return
	}
}

func (s *scheduler) popIdleLocked() *slot {
	sl := s.idle[len(s.idle)-1]
	s.idle[len(s.idle)-1] = nil
	s.idle = s.idle[:len(s.idle)-1]
	return sl
}

// freeBitnums reports the current number of free bitnums (tests).
func (s *scheduler) freeBitnums() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free.Len()
}
