package bitnum

import (
	"sync"
	"testing"

	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

func TestQueueFIFOAndPreload(t *testing.T) {
	q := NewQueue(4)
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 4; i++ {
		f, ok := q.Reserve()
		if !ok || f.Bn != bitvec.Bitnum(i) || f.MinEp != 0 {
			t.Fatalf("Reserve #%d = %+v ok=%v", i, f, ok)
		}
	}
	if _, ok := q.Reserve(); ok {
		t.Fatal("Reserve on empty queue succeeded")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

func TestQueueReleaseCarriesMinEpoch(t *testing.T) {
	q := NewQueue(2)
	q.Reserve()
	q.Reserve()
	q.Release(1, 50)
	q.Release(0, 70)
	f, ok := q.Reserve()
	if !ok || f.Bn != 1 || f.MinEp != 50 {
		t.Fatalf("first re-reserve = %+v", f)
	}
	f, ok = q.Reserve()
	if !ok || f.Bn != 0 || f.MinEp != 70 {
		t.Fatalf("second re-reserve = %+v", f)
	}
}

// The queue reuses its storage whether it drains or not. A queue that
// never drains keeps its FIFO order, each minimum epoch and its storage of
// N entries, and reserving and releasing allocate nothing.
func TestQueueCompactionReusesStorage(t *testing.T) {
	q := NewQueue(3)
	for round := 0; round < 1000; round++ {
		f1, _ := q.Reserve()
		f2, _ := q.Reserve()
		f3, _ := q.Reserve()
		q.Release(f1.Bn, 1)
		q.Release(f2.Bn, 1)
		q.Release(f3.Bn, 1)
		if q.Len() != 3 {
			t.Fatalf("round %d: Len = %d", round, q.Len())
		}
	}
	if cap(q.entries) > 64 {
		t.Fatalf("queue storage grew to %d entries", cap(q.entries))
	}

	const n = bitvec.Word
	q = NewQueue(n)
	// The bitnum a release puts at the tail comes back after every entry
	// ahead of it, with its own minimum epoch.
	want := make([]Free, 0, n)
	for i := 0; i < n; i++ {
		want = append(want, Free{Bn: bitvec.Bitnum(i)})
	}
	for round := 0; round < 100_000; round++ {
		f, ok := q.Reserve()
		if !ok || f != want[0] {
			t.Fatalf("round %d: Reserve = %+v ok=%v, want %+v", round, f, ok, want[0])
		}
		next := Free{Bn: f.Bn, MinEp: epoch.Epoch(round + 1)}
		q.Release(next.Bn, next.MinEp)
		want = append(want[1:], next)
		if q.Len() != n {
			t.Fatalf("round %d: Len = %d", round, q.Len())
		}
	}
	if c := cap(q.entries[:]); c != n {
		t.Fatalf("never-drained queue storage is %d entries, want %d", c, n)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		f, _ := q.Reserve()
		q.Release(f.Bn, f.MinEp+1)
	})
	if allocs != 0 {
		t.Fatalf("Reserve+Release allocate %v objects", allocs)
	}
}

func TestQueuePanicsOnBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, bitvec.Word + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQueue(%d) did not panic", n)
				}
			}()
			NewQueue(n)
		}()
	}
}

func TestQueueReleaseInvalidPanics(t *testing.T) {
	q := NewQueue(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release(None) did not panic")
		}
	}()
	q.Release(bitvec.None, 1)
}

func TestLimiterBasics(t *testing.T) {
	l := NewLimiter(2)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("could not acquire up to limit")
	}
	if l.TryAcquire() {
		t.Fatal("acquired past limit")
	}
	if l.InUse() != 2 || l.Peak() != 2 || l.Limit() != 2 {
		t.Fatalf("InUse=%d Peak=%d Limit=%d", l.InUse(), l.Peak(), l.Limit())
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("slot not returned")
	}
	l.Release()
	l.Release()
	if l.InUse() != 0 {
		t.Fatalf("InUse = %d", l.InUse())
	}
}

func TestLimiterZeroAlwaysDenies(t *testing.T) {
	l := NewLimiter(0)
	if l.TryAcquire() {
		t.Fatal("limit-0 limiter granted a slot")
	}
}

func TestLimiterReleaseUnderflowPanics(t *testing.T) {
	l := NewLimiter(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	l.Release()
}

func TestLimiterConcurrentNeverExceedsLimit(t *testing.T) {
	const limit = 5
	l := NewLimiter(limit)
	var wg sync.WaitGroup
	violations := make(chan int, 1024)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if l.TryAcquire() {
					if n := l.InUse(); n > limit {
						violations <- n
					}
					l.Release()
				}
			}
		}()
	}
	wg.Wait()
	close(violations)
	for v := range violations {
		t.Fatalf("limiter exceeded limit: %d", v)
	}
	if l.Peak() > limit {
		t.Fatalf("peak %d > limit", l.Peak())
	}
}
