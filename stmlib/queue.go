package stmlib

import (
	"cmp"
	"maps"
	"slices"

	"pnstm"
)

// qnode is one cell of a persistent cons list. Nodes are immutable after
// construction, which is what makes the queue safe under the STM's
// by-reference rollback: an abort restores an old list head, and the old
// list is still intact because no push or pop ever mutates a node.
type qnode[T any] struct {
	v    T
	next *qnode[T]
}

// TQueue is a transactional FIFO queue, implemented as the classic
// two-stack (Okasaki banker's) queue over persistent cons lists: pushes
// cons onto the in-stack in O(1); pops take from the out-stack, reversing
// the in-stack into it when it runs dry — O(1) amortized per element.
//
// Every operation is one nested transaction, so queue operations compose
// with any other transactional state: a body that pops an order, updates
// a TMap and bumps a TCounter commits or aborts as one unit. Because a
// pop touches the same two variables as every other pop, concurrent
// non-ancestor poppers conflict and serialize — a queue is a point of
// ordering by design. Parallel siblings that each push commute on the
// size variable only after serializing on the in-stack head; use one
// queue per producer (fan-in on pop) if push throughput dominates.
//
// Create with NewTQueue; the zero value is not usable.
//
// Beyond plain Push/Pop, the queue supports at-least-once consumption:
// ConsumeLease pops an element under a lease with a deadline, Ack
// settles it, Nack returns it to the queue, and ReclaimExpired — run by
// a reaper with an explicit cutoff — requeues every lease whose
// deadline passed, so an element handed to a worker that died comes
// back for redelivery instead of being lost.
type TQueue[T any] struct {
	in   *pnstm.TVar[*qnode[T]] // newest push first
	out  *pnstm.TVar[*qnode[T]] // oldest element first, ready to pop
	size *pnstm.TVar[int]

	// leases maps lease id → in-flight element, in leaseBuckets buckets,
	// so a lease op copies the one bucket its id hashes to, not the
	// table; leaseSeq issues ids. Both are transactional, so
	// consume/ack/reclaim replay deterministically (per-queue WAL replay
	// preserves op order, and ids depend only on that order).
	leases   *TMap[uint64, lease[T]]
	leaseSeq *pnstm.TVar[uint64]

	// leaseHook, when set, is invoked inside the mutating transaction
	// whenever a lease's deadline appears or goes away — the registry
	// uses it to maintain its deadline index.
	leaseHook func(c *pnstm.Ctx, oldDl, newDl int64, id uint64)
}

// leaseBuckets is the bucket count of a queue's lease table.
const leaseBuckets = 64

// lease is one in-flight (consumed, unacked) element.
type lease[T any] struct {
	v        T
	deadline int64 // absolute Unix nanos; reclaim eligibility
}

// LeaseRecord is one lease's exportable form (snapshots, diagnostics).
type LeaseRecord[T any] struct {
	ID       uint64
	Value    T
	Deadline int64
}

// NewTQueue returns an empty queue.
func NewTQueue[T any]() *TQueue[T] {
	return &TQueue[T]{
		in:       pnstm.NewTVar[*qnode[T]](nil),
		out:      pnstm.NewTVar[*qnode[T]](nil),
		size:     pnstm.NewTVar(0),
		leases:   NewTMap[uint64, lease[T]](leaseBuckets),
		leaseSeq: pnstm.NewTVar[uint64](0),
	}
}

// SetLabel names the queue's variables for conflict attribution (D35):
// "q:<name>/in", "q:<name>/out", "q:<name>/size" and
// "q:<name>/leases/<bucket>". Call once at construction time, before
// transactions touch the queue.
func (q *TQueue[T]) SetLabel(name string) {
	q.in.SetLabel("q:" + name + "/in")
	q.out.SetLabel("q:" + name + "/out")
	q.size.SetLabel("q:" + name + "/size")
	q.leases.labelBuckets("q:" + name + "/leases")
	q.leaseSeq.SetLabel("q:" + name + "/leaseseq")
}

// SetLeaseHook installs the lease deadline-change callback (registry
// index maintenance). Call once at construction time.
func (q *TQueue[T]) SetLeaseHook(h func(c *pnstm.Ctx, oldDl, newDl int64, id uint64)) {
	q.leaseHook = h
}

// Push appends v to the back of the queue.
func (q *TQueue[T]) Push(c *pnstm.Ctx, v T) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		pnstm.Store(c, q.in, &qnode[T]{v: v, next: pnstm.Load(c, q.in)})
		pnstm.Update(c, q.size, func(n int) int { return n + 1 })
		return nil
	})
}

// PushAll appends vs in order as one atomic step.
func (q *TQueue[T]) PushAll(c *pnstm.Ctx, vs ...T) {
	if len(vs) == 0 {
		return
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		head := pnstm.Load(c, q.in)
		for _, v := range vs {
			head = &qnode[T]{v: v, next: head}
		}
		pnstm.Store(c, q.in, head)
		pnstm.Update(c, q.size, func(n int) int { return n + len(vs) })
		return nil
	})
}

// Pop removes and returns the front element; ok is false when the queue
// is empty.
func (q *TQueue[T]) Pop(c *pnstm.Ctx) (v T, ok bool) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		head := q.flip(c)
		if head == nil {
			return nil
		}
		pnstm.Store(c, q.out, head.next)
		pnstm.Update(c, q.size, func(n int) int { return n - 1 })
		v, ok = head.v, true
		return nil
	})
	return v, ok
}

// Len returns the number of queued elements.
func (q *TQueue[T]) Len(c *pnstm.Ctx) int {
	var n int
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		n = pnstm.Load(c, q.size)
		return nil
	})
	return n
}

// Elements returns every queued element in FIFO order without removing
// anything — the queue's drain-view, the bulk read a whole-store
// checkpoint serializes. One nested transaction reads both stacks, so
// the view is a consistent atomic snapshot like TMap.Snapshot.
func (q *TQueue[T]) Elements(c *pnstm.Ctx) []T {
	var out []T
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		out = out[:0]
		// The out-stack already holds the oldest elements front-first.
		for n := pnstm.Load(c, q.out); n != nil; n = n.next {
			out = append(out, n.v)
		}
		// The in-stack holds the newest pushes newest-first: reverse.
		var newest []T
		for n := pnstm.Load(c, q.in); n != nil; n = n.next {
			newest = append(newest, n.v)
		}
		for i := len(newest) - 1; i >= 0; i-- {
			out = append(out, newest[i])
		}
		return nil
	})
	return out
}

// ConsumeLease removes the front element under a lease: the element
// leaves the queue but is remembered (with the absolute deadline in
// Unix nanos) until the consumer Acks the returned id. A consumer that
// never acks loses nothing — once the deadline passes, ReclaimExpired
// returns the element to the queue for redelivery. ok is false when
// the queue is empty.
func (q *TQueue[T]) ConsumeLease(c *pnstm.Ctx, deadline int64) (id uint64, v T, ok bool) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		id, ok = 0, false
		head := q.flip(c)
		if head == nil {
			return nil
		}
		pnstm.Store(c, q.out, head.next)
		pnstm.Update(c, q.size, func(n int) int { return n - 1 })
		id = pnstm.Load(c, q.leaseSeq) + 1
		pnstm.Store(c, q.leaseSeq, id)
		q.leases.Put(c, id, lease[T]{v: head.v, deadline: deadline})
		if q.leaseHook != nil {
			q.leaseHook(c, 0, deadline, id)
		}
		v, ok = head.v, true
		return nil
	})
	return id, v, ok
}

// Ack settles lease id: the element is done and forgotten. It reports
// whether the lease was still held — false means the lease was already
// acked, nacked or reclaimed (the element may be redelivered to
// someone else), so an at-least-once consumer must treat its work as
// possibly duplicated.
func (q *TQueue[T]) Ack(c *pnstm.Ctx, id uint64) bool {
	var had bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		var l lease[T]
		if l, had = q.settle(c, id); had && q.leaseHook != nil {
			q.leaseHook(c, l.deadline, 0, id)
		}
		return nil
	})
	return had
}

// settle removes lease id from the table, returning it and whether it
// was there.
func (q *TQueue[T]) settle(c *pnstm.Ctx, id uint64) (lease[T], bool) {
	l, ok := q.leases.Get(c, id)
	if ok {
		q.leases.Delete(c, id)
	}
	return l, ok
}

// Nack gives lease id's element back to the queue immediately (at the
// back), reporting whether the lease was still held.
func (q *TQueue[T]) Nack(c *pnstm.Ctx, id uint64) bool {
	var had bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		var l lease[T]
		if l, had = q.settle(c, id); !had {
			return nil
		}
		q.Push(c, l.v)
		if q.leaseHook != nil {
			q.leaseHook(c, l.deadline, 0, id)
		}
		return nil
	})
	return had
}

// ReclaimExpired requeues (at the back, ascending lease-id order —
// deterministic for replay) every lease whose deadline is at or before
// cutoff, returning how many. The reaper's primitive: an explicit
// cutoff, no wall clock. A cutoff far in the future drains every
// outstanding lease (shutdown, tests).
func (q *TQueue[T]) ReclaimExpired(c *pnstm.Ctx, cutoff int64) int {
	var n int
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		due := collect(c, q.leases, func(e entry[uint64, lease[T]]) (lease[T], bool) {
			return e.v, e.v.deadline <= cutoff
		})
		n = len(due)
		if n == 0 {
			return nil
		}
		ids := slices.Sorted(maps.Keys(due))
		q.leases.BulkUpdate(c, ids, func(uint64, lease[T], bool) (lease[T], bool) { return lease[T]{}, false })
		for _, id := range ids {
			q.Push(c, due[id].v)
			if q.leaseHook != nil {
				q.leaseHook(c, due[id].deadline, 0, id)
			}
		}
		return nil
	})
	return n
}

// LeaseLen returns the number of outstanding (consumed, unacked)
// leases.
func (q *TQueue[T]) LeaseLen(c *pnstm.Ctx) int { return q.leases.Len(c) }

// LeaseSnapshot returns every outstanding lease in ascending id order
// plus the id sequence watermark — the lease side of the queue's
// checkpoint payload.
func (q *TQueue[T]) LeaseSnapshot(c *pnstm.Ctx) ([]LeaseRecord[T], uint64) {
	var out []LeaseRecord[T]
	var seq uint64
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		out = out[:0]
		for id, l := range q.leases.Snapshot(c) {
			out = append(out, LeaseRecord[T]{ID: id, Value: l.v, Deadline: l.deadline})
		}
		slices.SortFunc(out, func(a, b LeaseRecord[T]) int { return cmp.Compare(a.ID, b.ID) })
		seq = pnstm.Load(c, q.leaseSeq)
		return nil
	})
	return out, seq
}

// ImportLeases restores exported leases and advances the id sequence
// to at least seq, firing the lease hook so the registry's deadline
// index — which snapshots deliberately do not serialize — is rebuilt.
// A record whose id is already leased is skipped.
func (q *TQueue[T]) ImportLeases(c *pnstm.Ctx, recs []LeaseRecord[T], seq uint64) {
	if len(recs) == 0 && seq == 0 {
		return
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		for _, rec := range recs {
			if _, dup := q.leases.Get(c, rec.ID); dup {
				continue
			}
			q.leases.Put(c, rec.ID, lease[T]{v: rec.Value, deadline: rec.Deadline})
			if q.leaseHook != nil {
				q.leaseHook(c, 0, rec.Deadline, rec.ID)
			}
		}
		if cur := pnstm.Load(c, q.leaseSeq); seq > cur {
			pnstm.Store(c, q.leaseSeq, seq)
		}
		return nil
	})
}

// flip returns the current out-stack head, reversing the in-stack into
// the out-stack first if the out-stack is empty. Caller must be inside an
// Atomic.
func (q *TQueue[T]) flip(c *pnstm.Ctx) *qnode[T] {
	head := pnstm.Load(c, q.out)
	if head != nil {
		return head
	}
	in := pnstm.Load(c, q.in)
	if in == nil {
		return nil
	}
	var rev *qnode[T]
	for n := in; n != nil; n = n.next {
		rev = &qnode[T]{v: n.v, next: rev}
	}
	pnstm.Store[*qnode[T]](c, q.in, nil)
	pnstm.Store(c, q.out, rev)
	return rev
}
