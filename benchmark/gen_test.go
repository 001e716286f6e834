package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// encodeOps renders a stream as bytes (tests compare streams with it).
func encodeOps(lanes [][]op) []byte {
	var buf []byte
	for _, ops := range lanes {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(ops)))
		for _, o := range ops {
			buf = append(buf, o.Kind)
			buf = binary.BigEndian.AppendUint32(buf, o.A)
			buf = binary.BigEndian.AppendUint32(buf, o.B)
			buf = binary.BigEndian.AppendUint32(buf, o.Tag)
		}
	}
	return buf
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := encodeOps(genLanes(w.Name, 7, 0, 4, 4000))
		b := encodeOps(genLanes(w.Name, 7, 0, 4, 4000))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different streams", w.Name)
		}
		c := encodeOps(genLanes(w.Name, 8, 0, 4, 4000))
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.Name)
		}
		warm := encodeOps(genLanes(w.Name, 7, warmLaneBase, 4, 4000))
		if bytes.Equal(a, warm) {
			t.Errorf("%s: the warm-up replays the measured stream", w.Name)
		}
	}
}

// A caller's stream must not depend on what other callers draw or on how
// long any stream is: lane l of a 16-lane run is lane l generated alone,
// and a shorter run is a prefix of a longer one.
func TestLanesAreIndependent(t *testing.T) {
	for _, w := range workloads {
		all := genLanes(w.Name, 3, 0, 16, 1600)
		for _, l := range []int{0, 5, 15} {
			alone := genLane(w.Name, 3, l, 250)
			if !bytes.Equal(encodeOps([][]op{all[l]}), encodeOps([][]op{alone[:100]})) {
				t.Errorf("%s: lane %d differs when generated alone", w.Name, l)
			}
		}
		if bytes.Equal(encodeOps([][]op{all[0]}), encodeOps([][]op{all[1]})) {
			t.Errorf("%s: lanes 0 and 1 are the same stream", w.Name)
		}
	}
}

func TestStreamsStayInsideTheDataset(t *testing.T) {
	const n = 20000
	count := func(ops []op, kind uint8) (c int) {
		for _, o := range ops {
			if o.Kind == kind {
				c++
			}
		}
		return c
	}
	for _, o := range genLane("point-mem", 1, 0, n) {
		if o.A >= numKeys || o.Tag >= numTails {
			t.Fatalf("point-mem op out of range: %+v", o)
		}
	}
	if puts := count(genLane("point-mem", 1, 0, n), opPut); puts < n*8/100 || puts > n*12/100 {
		t.Errorf("point-mem: %d puts in %d ops, want about 10%%", puts, n)
	}
	for _, o := range genLane("txn-durable", 1, 0, n) {
		if o.A >= numAccounts || o.B >= numAccounts || o.A == o.B {
			t.Fatalf("txn-durable transfer out of range or to itself: %+v", o)
		}
	}
	for _, o := range genLane("scan-mem", 1, 0, n) {
		if o.Kind == opScan && int(o.A)+scanSpan > numKeys {
			t.Fatalf("scan-mem scan past the last key: %+v", o)
		}
		if o.Kind == opSortedPut && o.A >= numKeys {
			t.Fatalf("scan-mem put of a key that was not preloaded: %+v", o)
		}
	}
	if scans := count(genLane("scan-mem", 1, 0, n), opScan); scans < n*67/100 || scans > n*73/100 {
		t.Errorf("scan-mem: %d scans in %d ops, want about 70%%", scans, n)
	}
	for _, o := range genLane("core-nest", 1, 0, 100) {
		if o.Tag == 0 {
			t.Fatal("core-nest: tag 0 is the unwritten mark")
		}
	}
}

func TestDatasetValuesNameTheirKey(t *testing.T) {
	d := newDataset(1)
	buf := make([]byte, valueLen)
	d.fillValue(buf, 1234, 17)
	if !checkGet(1234, buf, true) {
		t.Error("a value does not pass its own key's check")
	}
	if checkGet(1235, buf, true) {
		t.Error("a value passes another key's check")
	}
	if d.keys[9] >= d.keys[10] || d.keys[numKeys-1] >= d.keys[numKeys] {
		t.Error("key names do not sort in index order")
	}
	if bytes.Equal(newDataset(1).tails[3][:], newDataset(2).tails[3][:]) {
		t.Error("value bytes do not depend on the seed")
	}
}

// The generator is part of the benchmark's definition: a change to it
// changes every workload, and the baseline has to be measured again. This
// pins the stream a seed names.
func TestStreamIsPinned(t *testing.T) {
	h := sha256.New()
	for _, w := range workloads {
		h.Write(encodeOps(genLanes(w.Name, 1, 0, 2, 200)))
		h.Write(encodeOps(genLanes(w.Name, 1, warmLaneBase, 2, 20)))
	}
	h.Write(newDataset(1).tails[7][:])
	const want = "4e8de4603e08e903c11eede97d972469fc76a1bacb976b515adad3bbaadb461f"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("op streams of seed 1 hash to %s, want %s", got, want)
	}
}
