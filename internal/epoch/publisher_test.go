package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnstm/internal/bitvec"
)

// pubHarness wires a Publisher to controllable epoch/free endpoints.
type pubHarness struct {
	st     State
	maxEp  atomic.Uint64
	mu     sync.Mutex
	freed  []freeEvent
	freedC chan freeEvent
}

type freeEvent struct {
	bn    bitvec.Bitnum
	minEp Epoch
}

func newHarness(t *testing.T, bitnums, partitions int, paused bool) (*pubHarness, *Publisher) {
	t.Helper()
	h := &pubHarness{freedC: make(chan freeEvent, 128)}
	p := NewPublisher(&h.st, PublisherConfig{
		Bitnums:     bitnums,
		Partitions:  partitions,
		MaxEpoch:    func() Epoch { return Epoch(h.maxEp.Load()) },
		Free:        h.onFree,
		StartPaused: paused,
		IdleSleep:   5 * time.Microsecond,
	})
	t.Cleanup(p.Close)
	return h, p
}

func (h *pubHarness) onFree(bn bitvec.Bitnum, minEp Epoch) {
	h.mu.Lock()
	h.freed = append(h.freed, freeEvent{bn, minEp})
	h.mu.Unlock()
	h.freedC <- freeEvent{bn, minEp}
}

func TestPublisherPublishesCommitRange(t *testing.T) {
	h, p := newHarness(t, 8, 1, true)
	h.maxEp.Store(10)
	h.st.RecordCommit(2, 7)
	p.StepOnce()
	for e := Epoch(1); e <= 7; e++ {
		if !h.st.Masks.Get(e).Has(2) {
			t.Fatalf("epoch %d not published", e)
		}
	}
	if h.st.Masks.Get(8).Has(2) {
		t.Fatal("published past lastComEp")
	}
	// A later commit extends the range without re-publishing old epochs.
	h.st.RecordCommit(2, 9)
	p.StepOnce()
	if !h.st.Masks.Get(9).Has(2) || !h.st.Masks.Get(8).Has(2) {
		t.Fatal("extension not published")
	}
	if got := p.Frontier(2); got != 9 {
		t.Fatalf("frontier = %d", got)
	}
}

func TestPublisherDiscardPublishesSlackAndFrees(t *testing.T) {
	h, p := newHarness(t, 8, 1, true)
	h.maxEp.Store(20)
	h.st.Discard(5, 12)
	p.StepOnce()

	// Published through maxCurEp+1 = 21 (D5 slack).
	for e := Epoch(1); e <= 21; e++ {
		if !h.st.Masks.Get(e).Has(5) {
			t.Fatalf("epoch %d not discard-published", e)
		}
	}
	if h.st.Masks.Get(22).Has(5) {
		t.Fatal("published past slack horizon")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.freed) != 1 {
		t.Fatalf("freed %d times", len(h.freed))
	}
	if h.freed[0].bn != 5 || h.freed[0].minEp != 22 {
		t.Fatalf("freed %+v, want bn 5 minEp 22", h.freed[0])
	}
	if h.st.IsDiscarded(5) {
		t.Fatal("discarded flag not cleared")
	}
	if !h.st.Discarding().Empty() {
		t.Fatal("discarding vector not cleared")
	}
}

func TestPublisherDiscardIsProcessedOnce(t *testing.T) {
	h, p := newHarness(t, 4, 1, true)
	h.maxEp.Store(3)
	h.st.Discard(1, 2)
	p.StepOnce()
	p.StepOnce()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.freed) != 1 {
		t.Fatalf("freed %d times, want 1", len(h.freed))
	}
}

func TestPublisherBackgroundProgress(t *testing.T) {
	h, _ := newHarness(t, 8, 1, false)
	h.maxEp.Store(50)
	h.st.Discard(3, 40)
	select {
	case ev := <-h.freedC:
		if ev.bn != 3 || ev.minEp != 52 {
			t.Fatalf("freed %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("background publisher made no progress")
	}
}

func TestPublisherPauseBlocksPublication(t *testing.T) {
	h, p := newHarness(t, 8, 1, false)
	p.Pause()
	if !p.Paused() {
		t.Fatal("not paused")
	}
	h.maxEp.Store(5)
	h.st.RecordCommit(0, 4)
	time.Sleep(20 * time.Millisecond)
	if h.st.Masks.Get(4).Has(0) {
		t.Fatal("paused publisher still published")
	}
	p.Resume()
	deadline := time.Now().Add(5 * time.Second)
	for !h.st.Masks.Get(4).Has(0) {
		if time.Now().After(deadline) {
			t.Fatal("resume did not publish")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPublisherPartitionsCoverAllBitnums(t *testing.T) {
	h, p := newHarness(t, 16, 3, true)
	h.maxEp.Store(9)
	for bn := bitvec.Bitnum(0); bn < 16; bn++ {
		h.st.RecordCommit(bn, 6)
	}
	p.Drain()
	for bn := bitvec.Bitnum(0); bn < 16; bn++ {
		for e := Epoch(1); e <= 6; e++ {
			if !h.st.Masks.Get(e).Has(bn) {
				t.Fatalf("bn %d epoch %d unpublished", bn, e)
			}
		}
	}
	st := p.Stats()
	if st.CommitFolds != 16 {
		t.Fatalf("CommitFolds = %d", st.CommitFolds)
	}
}

func TestPublisherDrainQuiesces(t *testing.T) {
	h, p := newHarness(t, 8, 2, true)
	h.maxEp.Store(100)
	for bn := bitvec.Bitnum(0); bn < 8; bn++ {
		h.st.RecordCommit(bn, Epoch(10+bn))
	}
	p.Drain()
	if p.StepOnce() {
		t.Fatal("StepOnce found work after Drain")
	}
}

// A commit that lands while a discard is in flight must still be covered by
// the published horizon (the free minEp must exceed any commit epoch).
func TestPublisherDiscardCoversLateCommit(t *testing.T) {
	h, p := newHarness(t, 4, 1, true)
	h.maxEp.Store(30)
	h.st.RecordCommit(2, 25)
	h.st.Discard(2, 28)
	p.StepOnce()
	h.mu.Lock()
	ev := h.freed[0]
	h.mu.Unlock()
	if ev.minEp <= 28 {
		t.Fatalf("minEp %d does not clear last commit epoch", ev.minEp)
	}
	for e := Epoch(1); e < ev.minEp; e++ {
		if !h.st.Masks.Get(e).Has(2) {
			t.Fatalf("gap at epoch %d below minEp %d", e, ev.minEp)
		}
	}
}

func TestPublisherCloseIdempotent(t *testing.T) {
	_, p := newHarness(t, 4, 2, false)
	p.Close()
	p.Close() // must not panic or deadlock
}

// A publisher that keeps every bitnum's frontier moving keeps the mask
// table to the epochs above the lowest frontier, however many epochs pass,
// with one partition or several (D55).
func TestPublisherFloorBoundsMaskTable(t *testing.T) {
	for _, parts := range []int{1, 3} {
		h, p := newHarness(t, 6, parts, true)
		const step, rounds = chunkLen / 3, 300 // 75 chunks of epochs
		for r := Epoch(1); r <= rounds; r++ {
			for bn := bitvec.Bitnum(0); bn < 6; bn++ {
				h.st.RecordCommit(bn, r*step-Epoch(bn))
			}
			p.StepOnce()
			if n := h.st.Masks.Allocated(); n > 8*chunkLen {
				t.Fatalf("partitions %d, round %d: table holds %d epochs", parts, r, n)
			}
		}
		for e := Epoch(1); e <= rounds*step; e += 101 {
			for bn := bitvec.Bitnum(0); bn < 6; bn++ {
				if want := e <= rounds*step-Epoch(bn); h.st.Masks.Get(e).Has(bn) != want {
					t.Fatalf("partitions %d: Get(%d).Has(%d) = %v", parts, e, bn, !want)
				}
			}
		}
		if h.st.Masks.Get(0) != 0 || h.st.Masks.Get(rounds*step+1) != 0 {
			t.Fatalf("partitions %d: unpublished epochs read %v, %v", parts, h.st.Masks.Get(0), h.st.Masks.Get(rounds*step+1))
		}
	}
}
