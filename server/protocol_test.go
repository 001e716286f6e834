package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func roundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	back, err := ParseRequest(payload)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	return back
}

func TestRequestRoundTripEveryOp(t *testing.T) {
	reqs := []*Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpMapGet, Name: "m", Key: "k"},
		{ID: 3, Op: OpMapPut, Name: "m", Key: "k", Value: []byte("v")},
		{ID: 4, Op: OpMapDelete, Name: "m", Key: "k"},
		{ID: 5, Op: OpMapLen, Name: "m"},
		{ID: 6, Op: OpQueuePush, Name: "q", Value: []byte{0, 1, 2}},
		{ID: 7, Op: OpQueuePop, Name: "q"},
		{ID: 8, Op: OpQueueLen, Name: "q"},
		{ID: 9, Op: OpCounterAdd, Name: "c", Delta: -42},
		{ID: 10, Op: OpCounterSum, Name: "c"},
		{ID: 11, Op: OpStats},
		{ID: 12, Op: OpMapAdd, Name: "m", Key: "k", Delta: -3},
		{ID: 13, Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpAssertGE, Name: "stock", Key: "anvil", Delta: 2},
			{Op: OpMapAdd, Name: "stock", Key: "anvil", Delta: -2},
			{Op: OpMapPut, Name: "m", Key: "k", Value: []byte("v")},
			{Op: OpMapGet, Name: "m", Key: "k"},
			{Op: OpQueuePush, Name: "q", Value: []byte{7}},
			{Op: OpQueuePop, Name: "q"},
			{Op: OpCounterAdd, Name: "c", Delta: 5},
			{Op: OpCounterSum, Name: "c"},
			{Op: OpAssertEq, Name: "c", Delta: 5},
			{Op: OpAssertEq, Name: "m", Key: "k", Value: []byte("v")},
		}}},
	}
	for _, req := range reqs {
		back := roundTripRequest(t, req)
		// Requests without a composite body decode with nil Tx; empty
		// slices normalize to nil.
		if !reflect.DeepEqual(req, back) {
			t.Errorf("op %d: round trip mismatch:\n  sent %+v\n  got  %+v", req.Op, req, back)
		}
	}
}

// TestCheckoutTxShape pins the envelope client.Checkout sends: per order
// line a guard then its decrement, then the two counter credits.
func TestCheckoutTxShape(t *testing.T) {
	co := &Checkout{
		Sold:    "sold",
		Revenue: "rev",
		Cents:   1250,
		Lines:   []CheckoutLine{{SKU: "anvil", Qty: 2}, {SKU: "cog", Qty: 1}},
	}
	got, err := CheckoutTx("stock", co)
	if err != nil {
		t.Fatal(err)
	}
	// The guard/decrement pairing is the contract the client's failed-SKU
	// mapping relies on (line i ↔ ops 2i, 2i+1).
	want := &Tx{Ops: []TxOp{
		{Op: OpAssertGE, Name: "stock", Key: "anvil", Delta: 2},
		{Op: OpMapAdd, Name: "stock", Key: "anvil", Delta: -2},
		{Op: OpAssertGE, Name: "stock", Key: "cog", Delta: 1},
		{Op: OpMapAdd, Name: "stock", Key: "cog", Delta: -1},
		{Op: OpCounterAdd, Name: "sold", Delta: 3},
		{Op: OpCounterAdd, Name: "rev", Delta: 1250},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkout envelope:\n  got  %+v\n  want %+v", got, want)
	}
	// Non-positive quantities are refused at translation.
	if _, err := CheckoutTx("stock", &Checkout{Lines: []CheckoutLine{{SKU: "anvil", Qty: 0}}}); err == nil {
		t.Error("zero-quantity checkout translated")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{ID: 1, Status: StatusOK},
		{ID: 2, Status: StatusOK, Found: true, Value: []byte("hello")},
		{ID: 3, Status: StatusOK, Num: -7},
		{ID: 4, Status: StatusRejected, Msg: "anvil"},
		{ID: 5, Status: StatusErr, Msg: "boom"},
		{ID: 6, Status: StatusNotPrimary, Msg: "read-only replica; primary is 10.0.0.1:7455"},
		{ID: 7, Status: StatusOK, TxResults: []TxResult{
			{Status: StatusOK, Found: true, Num: 3, Value: []byte("v")},
			{Status: StatusOK},
		}},
		{ID: 8, Status: StatusRejected, Num: 1, Msg: "assert failed", TxResults: []TxResult{
			{Status: StatusOK, Num: 2},
			{Status: StatusRejected, Num: 0},
			{}, // never executed
		}},
	}
	for _, resp := range resps {
		frame := AppendResponse(nil, resp)
		payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		back, err := ParseResponse(payload)
		if err != nil {
			t.Fatalf("ParseResponse: %v", err)
		}
		if !reflect.DeepEqual(resp, back) {
			t.Errorf("round trip mismatch:\n  sent %+v\n  got  %+v", resp, back)
		}
	}
}

func TestParseRejectsMalformedFrames(t *testing.T) {
	good, err := AppendRequest(nil, &Request{ID: 9, Op: OpMapPut, Name: "m", Key: "k", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	payload := good[4:]

	if _, err := ParseRequest(payload[:len(payload)-3]); err == nil {
		t.Error("truncated request accepted")
	}
	if _, err := ParseRequest(append(append([]byte{}, payload...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	bad := append([]byte{}, payload...)
	bad[8] = 200 // opcode byte
	if _, err := ParseRequest(bad); err == nil {
		t.Error("unknown opcode accepted")
	}
	// Guards are envelope-only sub-opcodes, not top-level requests.
	bad = append([]byte{}, payload...)
	bad[8] = OpAssertGE
	if _, err := ParseRequest(bad); err == nil {
		t.Error("guard opcode accepted at top level")
	}
	if _, err := ParseResponse([]byte{1, 2, 3}); err == nil {
		t.Error("short response accepted")
	}
	// An envelope smuggling a non-sub-opcode (a nested envelope, a stats
	// call) must be refused at decode.
	txFrame, err := AppendRequest(nil, &Request{ID: 1, Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: OpMapGet, Name: "m", Key: "k"}}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []uint8{OpTx, OpStats, OpPing, opRemovedCheckout, 99} {
		bad = append([]byte{}, txFrame[4:]...)
		// The sub-op byte sits right after the common header (id 8 + op 1
		// + name u16 + key u16 + value u32 + delta 8) plus the u16 count.
		bad[8+1+2+2+4+8+2] = op
		if _, err := ParseRequest(bad); err == nil {
			t.Errorf("sub-opcode %d accepted inside an envelope", op)
		}
	}
}

// TestParseResponseRejectsUnknownStatus covers the status byte the same
// way unknown opcodes are covered: top-level and per-sub-op result
// statuses outside the defined set are decode errors, not silently
// accepted values.
func TestParseResponseRejectsUnknownStatus(t *testing.T) {
	frame := AppendResponse(nil, &Response{ID: 1, Status: StatusOK})
	payload := append([]byte{}, frame[4:]...)
	for _, st := range []uint8{0, statusRemovedCrossShard, StatusNotPrimary + 1, 200} {
		payload[8] = st
		if _, err := ParseResponse(payload); err == nil {
			t.Errorf("status %d accepted", st)
		}
	}
	frame = AppendResponse(nil, &Response{ID: 1, Status: StatusOK, TxResults: []TxResult{{Status: StatusOK}}})
	payload = append([]byte{}, frame[4:]...)
	// The sub-result status byte follows the fixed body (id 8 + status 1
	// + found 1 + num 8 + value u32 + msg u16) plus the u16 count.
	off := 8 + 1 + 1 + 8 + 4 + 2 + 2
	// A server stamps a sub-result OK or Rejected, nothing else.
	for _, st := range []uint8{StatusErr, statusRemovedCrossShard, StatusNotPrimary, 255} {
		payload[off] = st
		if _, err := ParseResponse(payload); err == nil {
			t.Errorf("sub-result status %d accepted", st)
		}
	}
	// Status 0 IS legal for a sub-result: the op never executed.
	payload[off] = 0
	if _, err := ParseResponse(payload); err != nil {
		t.Errorf("unexecuted sub-result rejected: %v", err)
	}
}

func TestAppendRequestRejectsOversizeFields(t *testing.T) {
	long := strings.Repeat("k", 1<<16)
	cases := []*Request{
		{Op: OpMapGet, Name: "m", Key: long},
		{Op: OpMapGet, Name: long},
		{Op: OpMapPut, Name: "m", Key: "k", Value: make([]byte, MaxFrame/2+1)},
		{Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: OpMapGet, Name: "m", Key: long}}}},
	}
	for i, req := range cases {
		if _, err := AppendRequest(nil, req); err == nil {
			t.Errorf("case %d: oversize field accepted", i)
		}
	}
}

func TestAppendResponseClampsOversizeMsg(t *testing.T) {
	resp := &Response{ID: 1, Status: StatusErr, Msg: strings.Repeat("e", 1<<16+10)}
	frame := AppendResponse(nil, resp)
	payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Msg) != 1<<16-1 {
		t.Errorf("msg came back with %d bytes", len(back.Msg))
	}
	if resp.Msg[:10] != back.Msg[:10] {
		t.Error("clamped msg lost its prefix")
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil); err == nil {
		t.Error("oversize frame accepted")
	}
}

func TestInt64Encoding(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		got, err := DecodeInt64(EncodeInt64(v))
		if err != nil || got != v {
			t.Errorf("round trip %d → %d, %v", v, got, err)
		}
	}
	if _, err := DecodeInt64([]byte{1, 2}); err == nil {
		t.Error("short int64 accepted")
	}
}

func TestStreamOfFrames(t *testing.T) {
	var stream []byte
	for i := 0; i < 5; i++ {
		var err error
		stream, err = AppendRequest(stream, &Request{ID: uint64(i), Op: OpPing})
		if err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	for i := 0; i < 5; i++ {
		payload, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		req, err := ParseRequest(payload)
		if err != nil || req.ID != uint64(i) {
			t.Fatalf("frame %d: %+v, %v", i, req, err)
		}
	}
}
