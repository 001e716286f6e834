package server

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pnstm/internal/alloctest"
	"pnstm/stmlib"
)

// checkExact fails the test unless got reads want whole objects: not
// below want, and over it by at most alloctest.Slack.
func checkExact(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got < want || got > want+alloctest.Slack {
		t.Errorf("%s: %.3f allocs/op, want %.0f (with %.2f slack)", what, got, want, alloctest.Slack)
	}
}

// TestCodecAllocCeilings pins the request path's codec costs: encoding
// into a warm buffer allocates nothing. A connection's decoder, once it
// has seen the structure name, borrows a read's key from the frame: a
// point read costs nothing, and a transfer envelope decoded into a
// pending's warmed scratch costs the keys of its two MapAdds, the ops that
// keep theirs. The copying decoder ParseRequest runs costs the key of
// each op instead.
func TestCodecAllocCeilings(t *testing.T) {
	req := &Request{ID: 7, Op: OpMapGet, Name: "kv", Key: "key-000042"}
	resp := &Response{ID: 7, Status: StatusOK, Found: true, Value: bytes.Repeat([]byte{0x5a}, 64)}

	buf, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, "AppendRequest into a warm buffer",
		alloctest.Exact(100, func() { buf, _ = AppendRequest(buf[:0], req) }), 0) // reads 0.00
	rbuf := AppendResponse(nil, resp)
	checkExact(t, "AppendResponse into a warm buffer",
		alloctest.Exact(100, func() { rbuf = AppendResponse(rbuf[:0], resp) }), 0) // reads 0.00

	transfer := &Request{ID: 8, Op: OpTx, Tx: &Tx{Ops: []TxOp{
		{Op: OpAssertGE, Name: "acct", Key: "a0001", Delta: 1},
		{Op: OpMapAdd, Name: "acct", Key: "a0001", Delta: -1},
		{Op: OpMapAdd, Name: "acct", Key: "a0002", Delta: 1},
		{Op: OpCounterAdd, Name: "transfers", Delta: 1},
	}}}
	tbuf, err := AppendRequest(nil, transfer)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		borrow            bool
		mapGet, envelope4 float64
	}{
		{borrow: true, mapGet: 0, envelope4: 2},  // reads 0.00, 2.00
		{borrow: false, mapGet: 1, envelope4: 3}, // reads 1.00, 3.00
	} {
		dec := requestDecoder{names: make(map[string]string), borrow: c.borrow}
		var into Request
		if err := dec.parse(buf[4:], &into, nil); err != nil { // interns "kv"
			t.Fatal(err)
		}
		checkExact(t, fmt.Sprintf("borrow %v: decoding a MapGet with its name interned", c.borrow),
			alloctest.Exact(100, func() { _ = dec.parse(buf[4:], &into, nil) }), c.mapGet)
		if !reflect.DeepEqual(&into, req) {
			t.Errorf("borrow %v: decoded %+v, want %+v", c.borrow, &into, req)
		}
		var p pending
		if err := dec.parse(tbuf[4:], &p.req, &p.tx); err != nil { // interns the names, sizes the scratch
			t.Fatal(err)
		}
		checkExact(t, fmt.Sprintf("borrow %v: decoding a 4-op transfer envelope into a warmed scratch", c.borrow),
			alloctest.Exact(100, func() { _ = dec.parse(tbuf[4:], &p.req, &p.tx) }), c.envelope4)
		if !reflect.DeepEqual(&p.req, transfer) || p.req.Tx != &p.tx {
			t.Errorf("borrow %v: decoded %+v, want %+v in the pending's scratch", c.borrow, &p.req, transfer)
		}
	}

	// Reading frames into a pending's buffer and decoding them there
	// allocates nothing per point read.
	dec := requestDecoder{names: make(map[string]string), borrow: true}
	stream := bytes.Repeat(buf, 64)
	br := bufio.NewReader(bytes.NewReader(nil))
	src := bytes.NewReader(nil)
	var p pending
	checkExact(t, "reading and decoding 64 MapGet frames", alloctest.Exact(20, func() {
		src.Reset(stream)
		br.Reset(src)
		for i := 0; i < 64; i++ {
			frame, err := ReadFrame(br, &p.frame)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.parse(frame, &p.req, &p.tx); err != nil {
				t.Fatal(err)
			}
		}
	}), 0) // reads 0.00

	// A frame well over the 512 bytes a buffer starts at, but under
	// maxRetainedFrame, stays in its pending's buffer across release: 64
	// 8 KiB MapPuts, each read into a pending from the pool and released
	// after decoding as runBatch releases it, cost the copies of their
	// keys and values and no buffer. The race build's pool drops some of
	// what is put back, so the row runs without it.
	if raceEnabled {
		return
	}
	put, err := AppendRequest(nil, &Request{ID: 9, Op: OpMapPut, Name: "kv", Key: "key-000042", Value: make([]byte, 8<<10)})
	if err != nil {
		t.Fatal(err)
	}
	stream = bytes.Repeat(put, 64)
	// The 64 frames read 128.6: a collection empties the pool every few
	// runs, and the pendings and frame buffers made again then add 0.6 a
	// run. The row holds the total to under one object more, so a buffer
	// remade on even one frame in 64 fails it.
	got := alloctest.Exact(20, func() {
		src.Reset(stream)
		br.Reset(src)
		for i := 0; i < 64; i++ {
			p := pendings.Get().(*pending)
			frame, err := ReadFrame(br, &p.frame)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.parse(frame, &p.req, &p.tx); err != nil {
				t.Fatal(err)
			}
			p.release()
		}
	})
	if got < 128 || got >= 129 {
		t.Errorf("reading and decoding 64 8 KiB MapPut frames into pooled pendings: %.3f allocs, want 128 (a key and a value each) and under one more", got)
	}
}

// TestFrameBufferReuseLeavesRequestsIntact reads a stream of every kind of
// request the way handleConn does: each frame into the frame buffer of the
// pending it is decoded into, while the pending before it is still held.
// The request the previous pending decoded — sub-ops, Hello and
// ReplSubscribe bodies included — must not change when the next frame is
// read: frames read into one pending never touch what another decoded,
// borrowed bytes included. A pending is released only once the next one
// has its frame, and released pendings come back from the pool, so a 64-op
// envelope right before a 1-op one checks that the envelope scratch takes
// each frame's length.
func TestFrameBufferReuseLeavesRequestsIntact(t *testing.T) {
	var stream []byte
	var want []*Request
	wide := make([]TxOp, maxRetainedOps)
	for i := range wide {
		wide[i] = TxOp{Op: OpMapPut, Name: "m", Key: fmt.Sprintf("w%02d", i), Value: []byte{byte(i)}}
	}
	seeds := fuzzSeedRequests()
	for _, req := range []*Request{
		{ID: 20, Op: OpTx, Tx: &Tx{Ops: wide}},
		{ID: 21, Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: OpMapGet, Name: "m", Key: "w00"}}}},
		{ID: 22, Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: OpRangeScan, Name: "s", Key: "a", Value: []byte("z"), Delta: 8}}}},
	} {
		frame, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, frame[4:])
	}
	for _, payload := range seeds {
		req, err := ParseRequest(bytes.Clone(payload))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, req)
		stream = append(stream, byte(len(payload)>>24), byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)))
		stream = append(stream, payload...)
	}

	br := bufio.NewReader(bytes.NewReader(stream))
	dec := requestDecoder{names: make(map[string]string), borrow: true}
	var prev *pending
	for i, w := range want {
		p := pendings.Get().(*pending)
		frame, err := ReadFrame(br, &p.frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(frame) > 0 && &frame[0] != &p.frame.b[0] {
			t.Fatalf("frame %d (%d bytes) did not land in its pending's buffer", i, len(frame))
		}
		if err := dec.parse(frame, &p.req, &p.tx); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(&p.req, w) {
			t.Errorf("request %d decoded into a recycled pending:\n  want %+v\n  got  %+v", i, w, &p.req)
		}
		if prev != nil {
			if !reflect.DeepEqual(&prev.req, want[i-1]) {
				t.Errorf("request %d changed when frame %d was read into another pending:\n  want %+v\n  got  %+v", i-1, i, want[i-1], &prev.req)
			}
			prev.release()
		}
		prev = p
	}
	prev.release()

	// A frame up to the retention bound lands in its pending's buffer,
	// which goes back to the pool with it.
	p := pendings.Get().(*pending)
	frameOf := func(valueLen int) []byte {
		frame, err := AppendRequest(nil, &Request{ID: 1, Op: OpMapPut, Name: "m", Key: "k", Value: make([]byte, valueLen)})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frameOf(maxRetainedFrame-64))), &p.frame)
	if err != nil {
		t.Fatal(err)
	}
	if &payload[0] != &p.frame.b[0] {
		t.Fatalf("a %d-byte frame did not land in its pending's buffer", len(payload))
	}
	grown := cap(p.frame.b)
	p.release()
	if cap(p.frame.b) != grown {
		t.Errorf("a released pending kept a %d-byte frame buffer, want the %d bytes it grew to", cap(p.frame.b), grown)
	}

	// A frame past the retention bound gets a buffer of its own and
	// leaves the pending's alone.
	p = pendings.Get().(*pending)
	before := cap(p.frame.b)
	payload, err = ReadFrame(bufio.NewReader(bytes.NewReader(frameOf(maxRetainedFrame+1))), &p.frame)
	if err != nil {
		t.Fatal(err)
	}
	if cap(p.frame.b) != before || (before > 0 && &payload[0] == &p.frame.b[0]) {
		t.Errorf("a %d-byte frame was retained by the pending's buffer (cap %d -> %d)", len(payload), before, cap(p.frame.b))
	}
	p.release()
}

// scanEntries is a 64-entry scan result in the benchmark's shape: 8-byte
// keys, 64-byte values stamped with their index.
func scanEntries() []stmlib.SortedEntry[string, []byte] {
	es := make([]stmlib.SortedEntry[string, []byte], 64)
	for i := range es {
		es[i].Key = fmt.Sprintf("k%07d", i)
		es[i].Value = bytes.Repeat([]byte{byte(i)}, 64)
	}
	return es
}

// TestScanCodecAllocCeilings pins what a range-scan result costs on its
// way out of the server and into the caller's hands (D49): the encoder
// sizes the list first and writes it once; the decoder borrows the
// values from its input and shares one string between the keys.
func TestScanCodecAllocCeilings(t *testing.T) {
	es := scanEntries()
	var enc []byte
	checkExact(t, "encodeScan of 64 entries (the exactly-sized buffer)",
		alloctest.Exact(100, func() { enc, _ = encodeScan(es) }), 1) // reads 1.00
	if cap(enc) != len(enc) {
		t.Errorf("encodeScan buffer: len %d, cap %d, want it exactly sized", len(enc), cap(enc))
	}
	kvs := make([]KVEntry, len(es))
	for i, e := range es {
		kvs[i] = KVEntry{Key: e.Key, Value: e.Value}
	}
	if want := AppendKVs(nil, kvs); !bytes.Equal(enc, want) {
		t.Error("encodeScan and AppendKVs disagree on the encoding of the same entries")
	}
	var dec []KVEntry
	checkExact(t, "DecodeKVs of 64 entries (the entry slice, the key arena)",
		alloctest.Exact(100, func() { dec, _ = DecodeKVs(enc) }), 2) // reads 2.00
	if !reflect.DeepEqual(dec, kvs) {
		t.Error("DecodeKVs did not return the entries encodeScan wrote")
	}
}

// TestScanResultSurvivesFrameBufferReuse is the poisoned-buffer test for
// DecodeKVs, which borrows from its input: a scan response is read through a
// connection's FrameBuf and parsed, its entries decoded by reference,
// and then the frame buffer is overwritten as the next frame would. The
// entries alias the result's own copy of the payload, never the frame.
func TestScanResultSurvivesFrameBufferReuse(t *testing.T) {
	es := scanEntries()
	enc, err := encodeScan(es)
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendResponse(nil, &Response{ID: 9, Status: StatusOK,
		TxResults: []TxResult{{Status: StatusOK, Num: int64(len(es)), Value: enc}}})
	var fb FrameBuf
	payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), &fb)
	if err != nil {
		t.Fatal(err)
	}
	if &payload[0] != &fb.b[0] {
		t.Fatalf("a %d-byte scan response did not land in the connection's buffer", len(payload))
	}
	resp, err := ParseResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := DecodeKVs(resp.TxResults[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	poison(fb.b[:cap(fb.b)])
	if len(kvs) != len(es) {
		t.Fatalf("decoded %d entries, want %d", len(kvs), len(es))
	}
	for i, kv := range kvs {
		if kv.Key != es[i].Key || !bytes.Equal(kv.Value, es[i].Value) {
			t.Errorf("entry %d changed when the frame buffer was overwritten: %q %x", i, kv.Key, kv.Value)
		}
	}
}
