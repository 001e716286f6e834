package epoch

import (
	"sync"
	"testing"
)

func TestRecordCommitMonotone(t *testing.T) {
	var st State
	st.RecordCommit(4, 10)
	st.RecordCommit(4, 7) // stale write from a previous holder must not regress
	if got := st.LastCommit(4); got != 10 {
		t.Fatalf("LastCommit = %d, want 10", got)
	}
	st.RecordCommit(4, 11)
	if got := st.LastCommit(4); got != 11 {
		t.Fatalf("LastCommit = %d, want 11", got)
	}
}

func TestRecordCommitConcurrentMax(t *testing.T) {
	var st State
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for e := Epoch(1); e <= 1000; e++ {
				st.RecordCommit(9, e)
			}
		}(g)
	}
	wg.Wait()
	if got := st.LastCommit(9); got != 1000 {
		t.Fatalf("LastCommit = %d, want 1000", got)
	}
}

func TestDiscardRecordsLastEpoch(t *testing.T) {
	var st State
	st.Discard(3, 42)
	if !st.IsDiscarded(3) {
		t.Fatal("IsDiscarded = false")
	}
	if got := st.LastCommit(3); got != 42 {
		t.Fatalf("LastCommit = %d, want 42", got)
	}
}

func TestEraseSubtractsDiscardingAndMasks(t *testing.T) {
	var st State
	st.Masks.Or(5, vecOf(1))
	st.Masks.Or(9, vecOf(2))
	st.beginDiscarding(7)
	defer st.endDiscarding(7)

	anc := vecOf(1, 2, 7, 30)
	got := st.Erase(anc, 5, 9)
	if got != vecOf(30) {
		t.Fatalf("Erase = %v, want {30}", got)
	}
	// Without the second epoch, bit 2 survives.
	got = st.Erase(anc, 5)
	if got != vecOf(2, 30) {
		t.Fatalf("Erase = %v, want {2,30}", got)
	}
	// No epochs: only discarding is subtracted.
	got = st.Erase(anc)
	if got != vecOf(1, 2, 30) {
		t.Fatalf("Erase = %v, want {1,2,30}", got)
	}
}

func TestDiscardingBracket(t *testing.T) {
	var st State
	if !st.Discarding().Empty() {
		t.Fatal("fresh state has discarding bits")
	}
	st.beginDiscarding(3)
	st.beginDiscarding(5)
	if got := st.Discarding(); got != vecOf(3, 5) {
		t.Fatalf("Discarding = %v", got)
	}
	st.endDiscarding(3)
	if got := st.Discarding(); got != vecOf(5) {
		t.Fatalf("Discarding = %v", got)
	}
	st.endDiscarding(5)
	if !st.Discarding().Empty() {
		t.Fatal("Discarding not cleared")
	}
}

func TestMaxHelper(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 || Max(4, 4) != 4 {
		t.Fatal("Max broken")
	}
}
