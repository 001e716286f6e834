package stmlib_test

import (
	"testing"
	"time"

	"pnstm"
	"pnstm/internal/alloctest"
	"pnstm/stmlib"
)

func TestTQueueLeaseLifecycle(t *testing.T) {
	rt := newRT(t, 2, false)
	q := stmlib.NewTQueue[int]()
	deadline := time.Now().Add(time.Minute).UnixNano()
	run(t, rt, func(c *pnstm.Ctx) {
		if _, _, ok := q.ConsumeLease(c, deadline); ok {
			t.Error("lease from empty queue")
		}
		q.PushAll(c, 10, 11, 12)
		id1, v1, ok := q.ConsumeLease(c, deadline)
		if !ok || v1 != 10 || id1 != 1 {
			t.Fatalf("lease 1 = %d,%d,%v", id1, v1, ok)
		}
		id2, v2, _ := q.ConsumeLease(c, deadline)
		if v2 != 11 || id2 != 2 {
			t.Fatalf("lease 2 = %d,%d", id2, v2)
		}
		if n := q.Len(c); n != 1 {
			t.Errorf("queue len with 2 leased = %d", n)
		}
		if n := q.LeaseLen(c); n != 2 {
			t.Errorf("lease len = %d", n)
		}
		// Ack removes; double-ack reports the lease gone.
		if !q.Ack(c, id1) {
			t.Error("ack = false")
		}
		if q.Ack(c, id1) {
			t.Error("double ack = true")
		}
		// Nack requeues at the tail: remaining order is 12 then 11.
		if !q.Nack(c, id2) {
			t.Error("nack = false")
		}
		if q.Nack(c, id2) {
			t.Error("double nack = true")
		}
		if v, _ := q.Pop(c); v != 12 {
			t.Errorf("pop = %d want 12", v)
		}
		if v, _ := q.Pop(c); v != 11 {
			t.Errorf("pop = %d want 11 (nacked)", v)
		}
		if n := q.LeaseLen(c); n != 0 {
			t.Errorf("lease len after drain = %d", n)
		}
	})
}

func TestTQueueReclaimExpired(t *testing.T) {
	rt := newRT(t, 2, false)
	q := stmlib.NewTQueue[int]()
	now := time.Now().UnixNano()
	run(t, rt, func(c *pnstm.Ctx) {
		q.PushAll(c, 1, 2, 3)
		idA, _, _ := q.ConsumeLease(c, now-2) // overdue
		idB, _, _ := q.ConsumeLease(c, now-1) // overdue
		q.ConsumeLease(c, now+int64(time.Hour))
		if n := q.ReclaimExpired(c, now); n != 2 {
			t.Fatalf("reclaimed %d want 2", n)
		}
		// Reclaim requeues in lease-id order, so the queue holds the
		// values of idA then idB; the future lease stays out.
		if q.Ack(c, idA) || q.Ack(c, idB) {
			t.Error("reclaimed lease still ackable")
		}
		if n := q.LeaseLen(c); n != 1 {
			t.Errorf("lease len = %d want 1", n)
		}
		if v, _ := q.Pop(c); v != 1 {
			t.Errorf("pop = %d want 1", v)
		}
		if v, _ := q.Pop(c); v != 2 {
			t.Errorf("pop = %d want 2", v)
		}
		if n := q.ReclaimExpired(c, now); n != 0 {
			t.Errorf("second reclaim = %d want 0", n)
		}
	})
}

// TestTQueueLeaseConservation checks the at-least-once bookkeeping law:
// queued + leased + acked == produced after any interleaving of consume,
// ack, nack and reclaim.
func TestTQueueLeaseConservation(t *testing.T) {
	rt := newRT(t, 4, false)
	q := stmlib.NewTQueue[int]()
	const produced = 120
	deadline := time.Now().Add(time.Minute).UnixNano()
	acked := 0
	run(t, rt, func(c *pnstm.Ctx) {
		for i := 0; i < produced; i++ {
			q.Push(c, i)
		}
	})
	for round := 0; round < 10; round++ {
		run(t, rt, func(c *pnstm.Ctx) {
			var ids []uint64
			for i := 0; i < 7; i++ {
				if id, _, ok := q.ConsumeLease(c, deadline); ok {
					ids = append(ids, id)
				}
			}
			for i, id := range ids {
				switch i % 3 {
				case 0:
					if q.Ack(c, id) {
						acked++
					}
				case 1:
					q.Nack(c, id)
					// case 2: leave leased
				}
			}
			if got := q.Len(c) + q.LeaseLen(c) + acked; got != produced {
				t.Fatalf("round %d: queued+leased+acked = %d want %d", round, got, produced)
			}
		})
	}
}

func TestTQueueLeaseSnapshotImport(t *testing.T) {
	rt := newRT(t, 2, false)
	q := stmlib.NewTQueue[int]()
	deadline := time.Now().Add(time.Minute).UnixNano()
	run(t, rt, func(c *pnstm.Ctx) {
		q.PushAll(c, 1, 2, 3)
		q.ConsumeLease(c, deadline)
		q.ConsumeLease(c, deadline+1)
	})
	var recs []stmlib.LeaseRecord[int]
	var seq uint64
	run(t, rt, func(c *pnstm.Ctx) { recs, seq = q.LeaseSnapshot(c) })
	if len(recs) != 2 || seq != 2 {
		t.Fatalf("snapshot = %v seq %d", recs, seq)
	}
	if recs[0].ID != 1 || recs[0].Value != 1 || recs[1].Deadline != deadline+1 {
		t.Fatalf("records = %+v", recs)
	}
	q2 := stmlib.NewTQueue[int]()
	run(t, rt, func(c *pnstm.Ctx) { q2.ImportLeases(c, recs, seq) })
	run(t, rt, func(c *pnstm.Ctx) {
		if n := q2.LeaseLen(c); n != 2 {
			t.Fatalf("imported lease len = %d", n)
		}
		if !q2.Ack(c, 1) {
			t.Error("imported lease not ackable")
		}
		// New leases continue past the imported watermark: the next id
		// must be 3, not a reuse of 1 or 2.
		q2.Push(c, 9)
		if id, _, _ := q2.ConsumeLease(c, deadline); id != 3 {
			t.Errorf("next lease id = %d want 3", id)
		}
	})
}

// TestTQueueLeaseAbortRestores checks a lease taken inside an aborted
// transaction leaves no trace: the element returns to the queue and the
// id watermark rolls back (ids are transactional state, so replaying the
// same committed history always mints the same ids).
func TestTQueueLeaseAbortRestores(t *testing.T) {
	rt := newRT(t, 2, false)
	q := stmlib.NewTQueue[int]()
	deadline := time.Now().Add(time.Minute).UnixNano()
	sentinel := errSentinel{}
	run(t, rt, func(c *pnstm.Ctx) {
		q.PushAll(c, 7)
		err := c.Atomic(func(c *pnstm.Ctx) error {
			if id, v, ok := q.ConsumeLease(c, deadline); !ok || v != 7 || id != 1 {
				t.Errorf("lease inside tx = %d,%d,%v", id, v, ok)
			}
			return sentinel
		})
		if err != sentinel {
			t.Fatalf("err = %v", err)
		}
		if n := q.LeaseLen(c); n != 0 {
			t.Errorf("lease survived abort: len = %d", n)
		}
		if id, v, ok := q.ConsumeLease(c, deadline); !ok || v != 7 || id != 1 {
			t.Errorf("re-lease = %d,%d,%v want 1,7,true", id, v, ok)
		}
	})
}

type errSentinel struct{}

func (errSentinel) Error() string { return "deliberate abort" }

// TestLeaseAckAllocFlat: an ack copies the one bucket of the lease table
// its id hashes to, so it costs the same objects with 1,000 leases
// outstanding as with 10: the two may differ by alloctest.Slack. Read
// exactly, they read 1.43 and 1.46 (2.0 and 2.2 under -race): the bucket
// copy, which an ack that empties its bucket does not make, and the rest
// of the transaction. While every lease op copied the whole table, they
// read 4.01 and 6.04, and the copy's time grew with the table.
func TestLeaseAckAllocFlat(t *testing.T) {
	rt := newRTConfig(t, pnstm.Config{Workers: 2})
	deadline := time.Now().Add(time.Hour).UnixNano()
	ack := func(outstanding int) float64 {
		const acks = 200
		q := stmlib.NewTQueue[int]()
		ids := make([]uint64, 0, outstanding+acks+1) // Exact makes one warm-up call
		run(t, rt, func(c *pnstm.Ctx) {
			for i := range cap(ids) {
				q.Push(c, i)
				id, _, ok := q.ConsumeLease(c, deadline)
				if !ok {
					t.Fatal("ConsumeLease found the queue empty")
				}
				ids = append(ids, id)
			}
		})
		var got float64
		run(t, rt, func(c *pnstm.Ctx) {
			got = alloctest.Exact(acks, func() {
				id := ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				if !q.Ack(c, id) {
					t.Fatalf("Ack(%d) = false", id)
				}
			})
		})
		if n := lenLeases(t, rt, q); n != outstanding {
			t.Fatalf("%d leases outstanding after the acks, want %d", n, outstanding)
		}
		return got
	}
	few, many := ack(10), ack(1000)
	t.Logf("Ack with 10 leases outstanding: %.3f allocs, with 1,000: %.3f", few, many)
	if many > few+alloctest.Slack || few > many+alloctest.Slack {
		t.Errorf("Ack with 1,000 leases outstanding: %.3f allocs, with 10: %.3f, apart by more than %.2f", many, few, alloctest.Slack)
	}
}

func lenLeases(t *testing.T, rt *pnstm.Runtime, q *stmlib.TQueue[int]) (n int) {
	run(t, rt, func(c *pnstm.Ctx) { n = q.LeaseLen(c) })
	return n
}
