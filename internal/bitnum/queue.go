// Package bitnum manages the bounded space of transaction identifiers: the
// free bitnum queue with per-bitnum minimum epochs (paper §3.2) and the
// parent-transaction limiter that guarantees leaf blocks can always run
// (paper §6.1).
package bitnum

import (
	"fmt"
	"sync"

	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

// Free is one entry of the free bitnum queue: a bitnum and the minimum
// epoch at which the context adopting it must be. The minimum epoch is set
// past the epochs at which previous transactions using the bitnum
// committed, so that epochs keep reflecting happens-before across re-use
// (paper §3.2).
type Free struct {
	Bn    bitvec.Bitnum
	MinEp epoch.Epoch
}

// Queue is the FIFO free-bitnum queue. It is unsynchronized: the scheduler
// embeds it under its own monitor, mirroring the paper's single queue lock
// (§3.2: "we can safely achieve [mutual exclusion] with only one lock
// associated with the queue").
//
// A bitnum is in the queue at most once, so a ring of one machine word's
// worth of entries holds every free bitnum with no storage beyond it.
type Queue struct {
	entries [bitvec.Word]Free
	head    int // index of the oldest entry
	count   int
}

// NewQueue returns a queue preloaded with bitnums [0, n), all usable from
// epoch 0.
func NewQueue(n int) *Queue {
	if n <= 0 || n > bitvec.Word {
		panic(fmt.Sprintf("bitnum: queue size %d out of range (0,%d]", n, bitvec.Word))
	}
	q := &Queue{}
	for i := 0; i < n; i++ {
		q.Release(bitvec.Bitnum(i), 0)
	}
	return q
}

// Len returns the number of free bitnums.
func (q *Queue) Len() int { return q.count }

// Reserve pops the oldest free bitnum. ok is false when the queue is empty
// (the caller decides whether to wait, borrow, or serialize).
func (q *Queue) Reserve() (f Free, ok bool) {
	if q.count == 0 {
		return Free{}, false
	}
	f = q.entries[q.head]
	q.head = (q.head + 1) % bitvec.Word
	q.count--
	return f, true
}

// Release appends a freed bitnum with its minimum re-use epoch (called by
// the publisher once the bitnum is fully published).
func (q *Queue) Release(bn bitvec.Bitnum, minEp epoch.Epoch) {
	if !bn.Valid() {
		panic("bitnum: Release of invalid bitnum")
	}
	q.entries[(q.head+q.count)%bitvec.Word] = Free{Bn: bn, MinEp: minEp}
	q.count++
}

// Limiter enforces the paper's L limit (§6.1) on how many bitnums may be
// held by blocked parents at once: a block that wants to fork must acquire
// a slot first, and when none is available the fork degrades to serial
// execution of its inner blocks (§6.2). With L = P−1 out of N = 2P bitnums,
// at least P bitnums always remain for leaf blocks, so the P worker slots
// can never all starve.
//
// Unlike the paper, the limit applies to every fork, transactional or not
// (ARCHITECTURE.md D8): a parked continuation pins its block's bitnum either way.
type Limiter struct {
	mu    sync.Mutex
	limit int
	inUse int
	peak  int
}

// NewLimiter returns a limiter with the given slot count. limit 0 is legal
// (every fork serializes), which is the correct degenerate behaviour for
// P = 1.
func NewLimiter(limit int) *Limiter {
	if limit < 0 {
		panic("bitnum: negative limiter")
	}
	return &Limiter{limit: limit}
}

// TryAcquire takes a parent slot if one is available.
func (l *Limiter) TryAcquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inUse >= l.limit {
		return false
	}
	l.inUse++
	if l.inUse > l.peak {
		l.peak = l.inUse
	}
	return true
}

// Release returns a parent slot.
func (l *Limiter) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inUse == 0 {
		panic("bitnum: Limiter.Release without Acquire")
	}
	l.inUse--
}

// Peak returns the high-water mark of held slots.
func (l *Limiter) Peak() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak
}
