package core

import (
	"pnstm/internal/bitnum"
	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
	"sync"
	"sync/atomic"
)

// scheduler implements the paper's elementary work-stealing system (§3): a
// single global block queue, P worker slots, and the free bitnum queue,
// all under one monitor — the paper's single queue lock. "Stealing" a
// block pairs an idle slot with a queued block and reserves a bitnum for
// it; the pairing hands the block to a parked worker goroutine, or starts
// one when none is parked, which runs it to completion (D2).
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

	// handoff passes a dispatch to a parked worker. Unbuffered, so a send
	// succeeds only when one is waiting. parked counts the waiting workers,
	// at most N; workers counts the live ones. Close closes handoff (once:
	// stopped, under mu), and a worker that receives the empty dispatch
	// exits. Workers park on handoff alone: a select over a second, quit
	// channel made a fork and join at GOMAXPROCS=1 about 8% slower.
	handoff chan dispatch
	stopped bool
	parked  atomic.Int32
	workers sync.WaitGroup
}

// dispatch is one steal: the slot, the block it runs and the bitnum
// reserved for it (ignored when borrowed).
type dispatch struct {
	slot     *slot
	block    *block
	free     bitnum.Free
	borrowed bool
}

func newScheduler(rt *Runtime, nbits int, slots []*slot) *scheduler {
	s := &scheduler{
		rt:      rt,
		free:    bitnum.NewQueue(nbits),
		idle:    make([]*slot, len(slots)),
		handoff: make(chan dispatch),
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
				s.start(dispatch{slot: s.popIdleLocked(), block: b, free: f})
				continue
			}
			if borrowEligibleLocked(b) {
				s.popLocked()
				s.start(dispatch{slot: s.popIdleLocked(), block: b, free: bitnum.Free{Bn: bitvec.None}, borrowed: true})
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

// start hands d to a parked worker, or starts a worker with it when none
// is parked.
func (s *scheduler) start(d dispatch) {
	select {
	case s.handoff <- d:
	default:
		s.workers.Add(1)
		go s.worker(d)
	}
}

// worker runs dispatched blocks one after another. It exits when N = 2P
// workers are already parked, or once the runtime has closed. A block tree
// keeps up to N goroutines busy: P hold slots, and up to L = N−P more wait
// at forks (§6.1). Capped at P, the pool would let the rest exit at the
// end of every tree and start them again in the next.
func (s *scheduler) worker(d dispatch) {
	defer s.workers.Done()
	for d.block != nil {
		s.rt.runBlock(d.slot, d.block, d.free, d.borrowed)
		if s.parked.Add(1) > int32(s.rt.nbits) {
			s.parked.Add(-1)
			return
		}
		// The receive replaces d, so a parked worker holds nothing of its
		// last block, whose frame runBlock has released (D53). A closed
		// handoff yields an empty d.
		d = <-s.handoff
		s.parked.Add(-1)
	}
}

// stop closes the handoff and returns once every worker has exited. It
// runs after the last Run has returned, so nothing dispatches any more.
// Idempotent.
func (s *scheduler) stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.handoff)
	}
	s.mu.Unlock()
	s.workers.Wait()
}

func (s *scheduler) popIdleLocked() *slot {
	sl := s.idle[len(s.idle)-1]
	s.idle[len(s.idle)-1] = nil
	s.idle = s.idle[:len(s.idle)-1]
	return sl
}
