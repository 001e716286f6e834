package main

import (
	"encoding/binary"

	"pnstm/client"
)

// The correctness checkers are pure functions of what the program under
// test returned, so that tests can feed them a wrong answer and see it
// counted as failed operations.

// leafMark is the value leaf l of the root tagged tag writes.
func leafMark(tag uint32, leaf int) int { return int(tag)<<5 | (leaf + 1) }

// coreStride is the distance between neighbouring leaves' windows: half a
// window, so each leaf shares half its objects with each neighbour.
const coreStride = coreObjects / 2

// coreObjectCount is how many objects the leaves' windows cover together.
const coreObjectCount = (coreLeaves-1)*coreStride + coreObjects

// checkMarks counts the objects that do not carry a mark the root tagged
// tag could have left: the mark of a leaf whose window covers the object.
func checkMarks(vals []int, tag uint32) (bad int) {
	for i, v := range vals {
		leaf := v&31 - 1
		lo := leaf * coreStride
		if v>>5 != int(tag) || leaf < 0 || leaf >= coreLeaves || i < lo || i >= lo+coreObjects {
			bad++
		}
	}
	return bad
}

// checkGet reports whether a MapGet answer is the value of the key asked
// for: found, valueLen bytes, stamped with the key's index.
func checkGet(key uint32, val []byte, found bool) bool {
	return found && len(val) == valueLen && binary.BigEndian.Uint32(val) == key
}

// checkScan reports whether a RangeScan answer is exactly limit entries,
// ascending, inside [lo, hi), each a well-formed value.
func checkScan(es []client.Entry, lo, hi string, limit int) bool {
	if len(es) != limit {
		return false
	}
	prev := ""
	for _, e := range es {
		if e.Key < lo || e.Key >= hi || e.Key <= prev || len(e.Value) != valueLen {
			return false
		}
		prev = e.Key
	}
	return true
}

// checkLedger compares the balances and the transfer counter read back
// after the restart with what the acknowledged transfers imply. want[a] is
// account a's expected balance. It returns the number of acknowledged
// envelopes the recovered state cannot account for: a counter short by k
// is k lost envelopes; beyond that, every account whose balance is off
// witnesses at least one more wrong envelope per two such accounts.
func checkLedger(got, want []int64, xfers, acked int64) (lost int64) {
	if xfers < acked {
		lost = acked - xfers
	} else if xfers > acked {
		lost = xfers - acked
	}
	off := int64(0)
	for a := range want {
		if a >= len(got) || got[a] != want[a] {
			off++
		}
	}
	if byBalance := (off + 1) / 2; byBalance > lost {
		lost = byBalance
	}
	return lost
}
