package server

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pnstm/stmlib"
)

// TestCodecAllocCeilings pins the request path's codec costs: encoding
// into a warm buffer allocates nothing, decoding a point read into a
// caller's Request costs its key and nothing else once the connection's
// decoder has seen the structure name, and decoding a transfer envelope
// into a pending's warmed envelope scratch costs its three keys.
func TestCodecAllocCeilings(t *testing.T) {
	req := &Request{ID: 7, Op: OpMapGet, Name: "kv", Key: "key-000042"}
	resp := &Response{ID: 7, Status: StatusOK, Found: true, Value: bytes.Repeat([]byte{0x5a}, 64)}

	buf, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { buf, _ = AppendRequest(buf[:0], req) }); got != 0 {
		t.Errorf("AppendRequest into a warm buffer: %.0f allocs, want 0", got)
	}
	rbuf := AppendResponse(nil, resp)
	if got := testing.AllocsPerRun(100, func() { rbuf = AppendResponse(rbuf[:0], resp) }); got != 0 {
		t.Errorf("AppendResponse into a warm buffer: %.0f allocs, want 0", got)
	}

	dec := requestDecoder{names: make(map[string]string)}
	var into Request
	if err := dec.parse(buf[4:], &into, nil); err != nil { // interns "kv"
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = dec.parse(buf[4:], &into, nil) }); got > 1 {
		t.Errorf("decoding a MapGet with its name interned: %.0f allocs, ceiling 1 (the key)", got)
	}
	if !reflect.DeepEqual(&into, req) {
		t.Errorf("decoded %+v, want %+v", &into, req)
	}

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
	var p pending
	if err := dec.parse(tbuf[4:], &p.req, &p.tx); err != nil { // interns the names, sizes the scratch
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = dec.parse(tbuf[4:], &p.req, &p.tx) }); got > 3 {
		t.Errorf("decoding a 4-op transfer envelope into a warmed scratch: %.0f allocs, ceiling 3 (its keys)", got)
	}
	if !reflect.DeepEqual(&p.req, transfer) || p.req.Tx != &p.tx {
		t.Errorf("decoded %+v, want %+v in the pending's scratch", &p.req, transfer)
	}

	// Reading frames through a connection's buffer allocates per frame
	// only what the decoder keeps.
	stream := bytes.Repeat(buf, 64)
	br := bufio.NewReader(bytes.NewReader(nil))
	src := bytes.NewReader(nil)
	var fb FrameBuf
	if got := testing.AllocsPerRun(20, func() {
		src.Reset(stream)
		br.Reset(src)
		for i := 0; i < 64; i++ {
			frame, err := ReadFrame(br, &fb)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.parse(frame, &into, nil); err != nil {
				t.Fatal(err)
			}
		}
	}); got > 64 {
		t.Errorf("reading and decoding 64 MapGet frames: %.0f allocs, ceiling 64 (one key each)", got)
	}
}

// TestFrameBufferReuseLeavesRequestsIntact reads a stream of every kind of
// request through one connection buffer, as handleConn does, overwrites
// the buffer after each parse and checks that the request just decoded —
// sub-ops, Hello and ReplSubscribe bodies included — did not change: a
// pending outlives its frame. A second pass decodes the stream into one
// recycled pending, released between frames as execute releases it, with
// a 64-op envelope right before a 1-op one: the envelope scratch must take
// each frame's length, and what it holds must not be the frame's bytes.
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
	dec := requestDecoder{names: make(map[string]string)}
	var fb FrameBuf
	for i, w := range want {
		frame, err := ReadFrame(br, &fb)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(frame) > 0 && &frame[0] != &fb.b[0] {
			t.Fatalf("frame %d (%d bytes) did not land in the connection's buffer", i, len(frame))
		}
		var got Request
		if err := dec.parse(frame, &got, nil); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		poison(fb.b[:cap(fb.b)])
		if !reflect.DeepEqual(&got, w) {
			t.Errorf("request %d changed when the frame buffer was overwritten:\n  want %+v\n  got  %+v", i, w, &got)
		}
	}

	br.Reset(bytes.NewReader(stream))
	p := pendings.Get().(*pending)
	for i, w := range want {
		frame, err := ReadFrame(br, &fb)
		if err != nil {
			t.Fatalf("pass 2, frame %d: %v", i, err)
		}
		if err := dec.parse(frame, &p.req, &p.tx); err != nil {
			t.Fatalf("pass 2, frame %d: %v", i, err)
		}
		poison(fb.b[:cap(fb.b)])
		if !reflect.DeepEqual(&p.req, w) {
			t.Errorf("pass 2, request %d decoded into a recycled pending:\n  want %+v\n  got  %+v", i, w, &p.req)
		}
		p.release()
		p = pendings.Get().(*pending)
	}

	// A frame past the retention bound gets a buffer of its own and
	// leaves the connection's alone.
	big := &Request{ID: 1, Op: OpMapPut, Name: "m", Key: "k", Value: make([]byte, maxRetainedFrame+1)}
	frame, err := AppendRequest(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	before := cap(fb.b)
	payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), &fb)
	if err != nil {
		t.Fatal(err)
	}
	if cap(fb.b) != before || (before > 0 && &payload[0] == &fb.b[0]) {
		t.Errorf("a %d-byte frame was retained by the connection buffer (cap %d -> %d)", len(payload), before, cap(fb.b))
	}
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
	if got := testing.AllocsPerRun(100, func() { enc, _ = encodeScan(es) }); got > 1 {
		t.Errorf("encodeScan of 64 entries: %.0f allocs, ceiling 1 (the exactly-sized buffer)", got)
	}
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
	if got := testing.AllocsPerRun(100, func() { dec, _ = DecodeKVs(enc) }); got > 2 {
		t.Errorf("DecodeKVs of 64 entries: %.0f allocs, ceiling 2 (the entry slice, the key arena)", got)
	}
	if !reflect.DeepEqual(dec, kvs) {
		t.Error("DecodeKVs did not return the entries encodeScan wrote")
	}
}

// TestScanResultSurvivesFrameBufferReuse is the poisoned-buffer test for
// the one decoder that borrows: a scan response is read through a
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
