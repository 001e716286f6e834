package epoch

import (
	"math/rand"
	"runtime"
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

func newHarness(t *testing.T, bitnums int, paused bool) (*pubHarness, *Publisher) {
	t.Helper()
	h := &pubHarness{freedC: make(chan freeEvent, 128)}
	p := NewPublisher(&h.st, PublisherConfig{
		Bitnums:     bitnums,
		MaxEpoch:    func() Epoch { return Epoch(h.maxEp.Load()) },
		Free:        h.onFree,
		StartPaused: paused,
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
	h, p := newHarness(t, 8, true)
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
	h, p := newHarness(t, 8, true)
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
	h, p := newHarness(t, 4, true)
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
	h, _ := newHarness(t, 8, false)
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

// What the ledger gathered while the publisher was paused is published by
// Resume alone, with no further ledger write.
func TestPublisherPauseBlocksPublication(t *testing.T) {
	h, p := newHarness(t, 8, false)
	p.Pause()
	if !p.Paused() {
		t.Fatal("not paused")
	}
	h.maxEp.Store(5)
	h.st.RecordCommit(0, 4)
	h.st.Discard(1, 3)
	time.Sleep(20 * time.Millisecond)
	if h.st.Masks.Get(4).Has(0) || !h.st.IsDiscarded(1) {
		t.Fatal("paused publisher still published")
	}
	p.Resume()
	deadline := time.Now().Add(5 * time.Second)
	for !h.st.Masks.Get(4).Has(0) || h.st.IsDiscarded(1) {
		if time.Now().After(deadline) {
			t.Fatal("resume did not publish")
		}
		time.Sleep(time.Millisecond)
	}
}

// One cycle covers the whole bitnum space, up to the machine word.
func TestPublisherPublishesAllBitnums(t *testing.T) {
	h, p := newHarness(t, bitvec.Word, true)
	h.maxEp.Store(9)
	for bn := bitvec.Bitnum(0); bn < bitvec.Word; bn++ {
		h.st.RecordCommit(bn, 6)
	}
	if !p.StepOnce() || p.StepOnce() {
		t.Fatal("one cycle did not publish every bitnum")
	}
	for bn := bitvec.Bitnum(0); bn < bitvec.Word; bn++ {
		for e := Epoch(1); e <= 6; e++ {
			if !h.st.Masks.Get(e).Has(bn) {
				t.Fatalf("bn %d epoch %d unpublished", bn, e)
			}
		}
	}
	st := p.Stats()
	if st.CommitFolds != bitvec.Word {
		t.Fatalf("CommitFolds = %d", st.CommitFolds)
	}
}

func TestPublisherDrainQuiesces(t *testing.T) {
	h, p := newHarness(t, 8, true)
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
	h, p := newHarness(t, 4, true)
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
	_, p := newHarness(t, 4, false)
	p.Close()
	p.Close() // must not panic or deadlock
}

// A publisher that keeps every bitnum's frontier moving keeps the mask
// table to the epochs above the lowest frontier, however many epochs pass
// (D55).
func TestPublisherFloorBoundsMaskTable(t *testing.T) {
	h, p := newHarness(t, 6, true)
	const step, rounds = chunkLen / 3, 300 // 75 chunks of epochs
	for r := Epoch(1); r <= rounds; r++ {
		for bn := bitvec.Bitnum(0); bn < 6; bn++ {
			h.st.RecordCommit(bn, r*step-Epoch(bn))
		}
		p.StepOnce()
		if n := h.st.Masks.Allocated(); n > 8*chunkLen {
			t.Fatalf("round %d: table holds %d epochs", r, n)
		}
	}
	for e := Epoch(1); e <= rounds*step; e += 101 {
		for bn := bitvec.Bitnum(0); bn < 6; bn++ {
			if want := e <= rounds*step-Epoch(bn); h.st.Masks.Get(e).Has(bn) != want {
				t.Fatalf("Get(%d).Has(%d) = %v", e, bn, !want)
			}
		}
	}
	if h.st.Masks.Get(0) != 0 || h.st.Masks.Get(rounds*step+1) != 0 {
		t.Fatalf("unpublished epochs read %v, %v", h.st.Masks.Get(0), h.st.Masks.Get(rounds*step+1))
	}
}

// Every ledger write wakes the publisher (D59): a commit is published and a
// discard freed with no poll and no further write behind it. Four writers,
// each on its own bitnums, keep writes landing during scans.
func TestPublisherWakesOnEveryLedgerWrite(t *testing.T) {
	const bitnums, writers, rounds = 16, 4, 20_000
	var st State
	var maxEp atomic.Uint64
	var freed [bitnums]atomic.Uint64
	p := NewPublisher(&st, PublisherConfig{
		Bitnums:  bitnums,
		MaxEpoch: func() Epoch { return Epoch(maxEp.Load()) },
		Free:     func(bn bitvec.Bitnum, _ Epoch) { freed[bn].Add(1) },
	})
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds/writers; r++ {
				bn := bitvec.Bitnum(w + writers*rng.Intn(bitnums/writers))
				// Past every frontier: a discard publishes one epoch past
				// the maxEp it read.
				ep := Epoch(maxEp.Add(2))
				discard := rng.Intn(2) == 0
				done := func() bool { return st.Masks.Get(ep).Has(bn) }
				if discard {
					// At the bitnum's last commit epoch, as a finishing
					// block does: the discard flag alone has to ring.
					want := freed[bn].Load() + 1
					st.Discard(bn, st.LastCommit(bn))
					done = func() bool { return freed[bn].Load() == want }
				} else {
					st.RecordCommit(bn, ep)
				}
				for deadline := time.Now().Add(time.Second); !done(); runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Errorf("writer %d round %d: bitnum %d (discard %v) untouched after 1s", w, r, bn, discard)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
