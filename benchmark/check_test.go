package main

import (
	"testing"

	"pnstm/client"
)

// Each checker gets one wrong answer that must be counted as failed
// operations, next to a right one that must pass.

// marksOf is what a committed root tagged tag leaves behind when every
// overlap zone is won by the lower leaf.
func marksOf(tag uint32) []int {
	vals := make([]int, coreObjectCount)
	for leaf := coreLeaves - 1; leaf >= 0; leaf-- {
		for i := leaf * coreStride; i < leaf*coreStride+coreObjects; i++ {
			vals[i] = leafMark(tag, leaf)
		}
	}
	return vals
}

func TestCheckMarks(t *testing.T) {
	vals := marksOf(77)
	if bad := checkMarks(vals, 77); bad != 0 {
		t.Fatalf("a fully written object array has %d bad objects", bad)
	}
	vals[coreObjectCount/2] = 0 // an unwritten object
	if bad := checkMarks(vals, 77); bad != 1 {
		t.Errorf("an unwritten object counted as %d failures, want 1", bad)
	}
	if bad := checkMarks(marksOf(76), 77); bad != coreObjectCount {
		t.Errorf("a stale root's marks counted as %d failures, want %d", bad, coreObjectCount)
	}
	far := marksOf(77)
	far[0] = leafMark(77, coreLeaves-1) // a leaf whose window does not reach object 0
	if bad := checkMarks(far, 77); bad != 1 {
		t.Errorf("a mark from a leaf that cannot have written the object counted as %d failures, want 1", bad)
	}
}

func scanAnswer(d *dataset, lo, n int) []client.Entry {
	es := make([]client.Entry, n)
	for i := range es {
		v := make([]byte, valueLen)
		d.fillValue(v, uint32(lo+i), 0)
		es[i] = client.Entry{Key: d.keys[lo+i], Value: v}
	}
	return es
}

func TestCheckScan(t *testing.T) {
	d := newDataset(1)
	lo, hi := d.keys[500], d.keys[500+scanSpan]
	if !checkScan(scanAnswer(d, 500, scanLimit), lo, hi, scanLimit) {
		t.Fatal("a full, ordered, in-range scan failed the check")
	}
	if checkScan(scanAnswer(d, 500, scanLimit-1), lo, hi, scanLimit) {
		t.Error("a short scan passed")
	}
	if checkScan(scanAnswer(d, 499, scanLimit), lo, hi, scanLimit) {
		t.Error("a scan starting below lo passed")
	}
	swapped := scanAnswer(d, 500, scanLimit)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if checkScan(swapped, lo, hi, scanLimit) {
		t.Error("an out-of-order scan passed")
	}
}

func TestCheckLedger(t *testing.T) {
	want := make([]int64, numAccounts)
	for a := range want {
		want[a] = startBal
	}
	// 1000 acknowledged transfers from account 1 to account 2.
	want[1] -= 1000
	want[2] += 1000
	got := append([]int64(nil), want...)
	if lost := checkLedger(got, want, 1000, 1000); lost != 0 {
		t.Fatalf("an exact ledger reports %d lost envelopes", lost)
	}
	// One acknowledged transfer missing after the restart.
	got[1]++
	got[2]--
	if lost := checkLedger(got, want, 999, 1000); lost != 1 {
		t.Errorf("a dropped transfer counted as %d failures, want 1", lost)
	}
	// The counter survived but the balances did not: still a failure.
	if lost := checkLedger(got, want, 1000, 1000); lost != 1 {
		t.Errorf("wrong balances under a right counter counted as %d failures, want 1", lost)
	}
	if lost := checkLedger(got[:10], want, 1000, 1000); lost == 0 {
		t.Error("missing accounts passed")
	}
}

// failingStore answers every third op wrongly.
type failingStore struct{ coreStore }

func (f *failingStore) do(_ int, o op) bool { return o.Tag%3 != 0 }

func TestWrongAnswersAreCountedNotDropped(t *testing.T) {
	lanes := make([][]op, 4)
	wrong := int64(0)
	for l := range lanes {
		for i := 0; i < 30; i++ {
			tag := uint32(l*30 + i)
			lanes[l] = append(lanes[l], op{Kind: opRoot, Tag: tag})
			if tag%3 == 0 {
				wrong++
			}
		}
	}
	p := runPhase(&failingStore{}, lanes, make([]int64, 120), []int64{60, 120}, nil)
	if p.failed != wrong {
		t.Errorf("runPhase counted %d failed ops, want %d", p.failed, wrong)
	}
	if len(p.lat) != 120 || !(0 < p.marks[0] && p.marks[0] <= p.marks[1] && p.marks[1] <= p.wall) {
		t.Errorf("runPhase recorded %d latency samples, marks %v within %v; want 120 and ordered marks", len(p.lat), p.marks, p.wall)
	}
}
