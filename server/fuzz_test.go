package server

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"pnstm/stmlib"
)

// Fuzz harnesses for the frame codecs (`go test -fuzz=FuzzRequest ./server`;
// under plain `go test` the seed corpus below runs as a regression
// suite). The checked property is decode/encode idempotence: any byte
// string ParseRequest/ParseResponse accepts must re-encode to a frame
// that parses back to the SAME value — no partially-validated fields, no
// state smuggled through unchecked bytes. Decoders additionally must
// never panic or over-read, whatever the input (the cursor enforces
// that; fuzzing is what keeps it honest as the format grows envelopes).

// fuzzSeedRequests covers every opcode and the composite bodies.
func fuzzSeedRequests() [][]byte {
	reqs := []*Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpMapGet, Name: "m", Key: "k"},
		{ID: 3, Op: OpMapPut, Name: "m", Key: "k", Value: []byte("v")},
		{ID: 4, Op: OpMapDelete, Name: "m", Key: "k"},
		{ID: 5, Op: OpQueuePush, Name: "q", Value: []byte{0, 1}},
		{ID: 6, Op: OpQueuePop, Name: "q"},
		{ID: 7, Op: OpCounterAdd, Name: "c", Delta: -9},
		{ID: 8, Op: OpCounterSum, Name: "c"},
		{ID: 9, Op: OpStats},
		{ID: 10, Op: OpMapAdd, Name: "m", Key: "k", Delta: 4},
		{ID: 11, Op: OpTx, Tx: checkoutSeedTx()},
		{ID: 12, Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpAssertGE, Name: "stock", Key: "anvil", Delta: 2},
			{Op: OpMapAdd, Name: "stock", Key: "anvil", Delta: -2},
			{Op: OpCounterAdd, Name: "sold", Delta: 2},
			{Op: OpAssertEq, Name: "sold", Delta: 2},
			{Op: OpQueuePush, Name: "q", Value: []byte("x")},
		}}},
		{ID: 13, Op: OpHello, Hello: &Hello{Version: ProtoVersion, Features: FeatureCrossShard | FeatureReplStream, MaxStalenessMs: 1500}},
		{ID: 14, Op: OpReplSubscribe, Sub: &ReplSubscribe{Shard: 3, FromLSN: 1 << 40}},
		// Second-generation sub-ops (D45): sorted maps and ranges…
		{ID: 15, Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpSortedPut, Name: "board", Key: "p1", Value: []byte("1")},
			{Op: OpSortedPutTTL, Name: "board", Key: "p2", Value: []byte("2"), Delta: 1 << 60},
			{Op: OpSortedGet, Name: "board", Key: "p1"},
			{Op: OpSortedDelete, Name: "board", Key: "p0"},
			{Op: OpRangeScan, Name: "board", Key: "a", Value: []byte("z"), Delta: 100},
			{Op: OpRangeCount, Name: "board", Key: "a"},
			{Op: OpSortedLen, Name: "board"},
			{Op: OpSortedExpire, Name: "board", Key: "p2", Delta: 1 << 61},
		}}},
		// …and TTLs plus queue leases.
		{ID: 16, Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpMapPutTTL, Name: "sessions", Key: "s1", Value: []byte("tok"), Delta: 1 << 60},
			{Op: OpExpire, Name: "sessions", Key: "s0", Delta: 1 << 59},
			{Op: OpLeaseConsume, Name: "jobs", Delta: 1 << 60},
			{Op: OpLeaseAck, Name: "jobs", Delta: 7},
			{Op: OpLeaseNack, Name: "jobs", Delta: 8},
			{Op: OpLeaseReclaim, Name: "jobs", Delta: 1 << 60},
			{Op: OpLeaseLen, Name: "jobs"},
		}}},
	}
	var seeds [][]byte
	for _, req := range reqs {
		frame, err := AppendRequest(nil, req)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, frame[4:]) // payload without the length prefix
	}
	return seeds
}

func FuzzRequestRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeedRequests() {
		f.Add(seed)
	}
	// Malformed shapes: truncation, trailing garbage, bad opcodes — the
	// removed checkout opcode with its old body among them.
	f.Add(removedCheckoutFrame(11))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 99})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := ParseRequest(payload)
		if err != nil {
			return // rejected input: only property is "no panic"
		}
		frame, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %+v: %v", req, err)
		}
		back, err := ParseRequest(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded request does not re-parse: %+v: %v", req, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("request round trip diverged:\n  first  %+v\n  second %+v", req, back)
		}
		// A decoded request owns its bytes: connections refill the buffer
		// a frame was parsed from while the request is still queued.
		scratch := bytes.Clone(payload)
		aliased, err := ParseRequest(scratch)
		poison(scratch)
		if err != nil || !reflect.DeepEqual(req, aliased) {
			t.Fatalf("request changed when its frame buffer was overwritten (err %v):\n  want %+v\n  got  %+v", err, req, aliased)
		}
		// A connection's decoder borrows the key and value of an op that
		// keeps nothing; every op that can change the store owns its own.
		scratch = bytes.Clone(payload)
		var borrowed Request
		if err := (&requestDecoder{borrow: true}).parse(scratch, &borrowed, nil); err != nil || !reflect.DeepEqual(req, &borrowed) {
			t.Fatalf("the borrowing decoder disagrees (err %v):\n  want %+v\n  got  %+v", err, req, &borrowed)
		}
		ops := []TxOp{borrowed.pointOp()}
		if borrowed.Tx != nil {
			ops = borrowed.Tx.Ops
		}
		before := make([]TxOp, len(ops))
		for i, op := range ops {
			if Mutates(op.Op) && (pointsInto(scratch, unsafe.StringData(op.Key)) || pointsInto(scratch, unsafe.SliceData(op.Value))) {
				t.Fatalf("op %d, which can change the store, borrows from the frame: %+v", op.Op, op)
			}
			before[i] = TxOp{Key: strings.Clone(op.Key), Value: bytes.Clone(op.Value)}
		}
		poison(scratch)
		for i, op := range ops {
			if Mutates(op.Op) && (op.Key != before[i].Key || !bytes.Equal(op.Value, before[i].Value)) {
				t.Fatalf("op %d changed when its frame was overwritten: %q %x, want %q %x", op.Op, op.Key, op.Value, before[i].Key, before[i].Value)
			}
		}
	})
}

// pointsInto reports whether p points into frame.
func pointsInto[T any](frame []byte, p *T) bool {
	if p == nil || len(frame) == 0 {
		return false
	}
	lo, at := uintptr(unsafe.Pointer(&frame[0])), uintptr(unsafe.Pointer(p))
	return at >= lo && at < lo+uintptr(len(frame))
}

// checkoutSeedTx is the envelope client.Checkout sends for a one-line
// order.
func checkoutSeedTx() *Tx {
	tx, err := CheckoutTx("stock", &Checkout{
		Sold: "sold", Revenue: "rev", Cents: 500,
		Lines: []CheckoutLine{{SKU: "anvil", Qty: 2}},
	})
	if err != nil {
		panic(err)
	}
	return tx
}

// removedCheckoutFrame is the payload an old client's OpCheckout request
// had: the common header with opcode 11, then one order line and the
// counter names.
func removedCheckoutFrame(id uint64) []byte {
	frame, err := AppendRequest(nil, &Request{ID: id, Op: opRemovedCheckout, Name: "stock"})
	if err != nil {
		panic(err)
	}
	buf := append(frame[4:], 0, 1) // u16 nlines
	buf = appendI64(appendU16Str(buf, "anvil"), 2)
	return appendI64(appendU16Str(appendU16Str(buf, "sold"), "rev"), 500)
}

// poison overwrites a frame buffer the way the next frame would.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// FuzzGSNRecordRoundTrip holds the cross-shard WAL record codec (D30)
// to the same standard as the wire codecs: decode-or-reject with no
// panic, and anything accepted must survive re-encode → re-decode
// unchanged — a record that mutates across a log rewrite would make
// replay diverge between shards.
func FuzzGSNRecordRoundTrip(f *testing.F) {
	seedReqs := []*Request{
		{Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpMapAdd, Name: "a", Key: "bal", Delta: -5},
			{Op: OpMapAdd, Name: "b", Key: "bal", Delta: 5},
		}}},
		{Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpMapPut, Name: "m", Key: "k", Value: []byte("v")},
			{Op: OpQueuePush, Name: "q", Value: []byte{0, 1}},
		}}},
	}
	for i, req := range seedReqs {
		body, err := encodeGSNRecord(uint64(i+1), []int{0, i + 1}, req)
		if err != nil {
			panic(err)
		}
		f.Add(body)
	}
	f.Add([]byte("XGSN"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 24))
	f.Fuzz(func(t *testing.T, body []byte) {
		gsn, logSet, req, err := decodeGSNRecord(body)
		if err != nil {
			return // rejected input: only property is "no panic"
		}
		if gsn == 0 || len(logSet) == 0 {
			t.Fatalf("decoder accepted gsn=%d logSet=%v", gsn, logSet)
		}
		again, err := encodeGSNRecord(gsn, logSet, req)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		gsn2, logSet2, req2, err := decodeGSNRecord(again)
		if err != nil {
			t.Fatalf("re-encoded record does not re-decode: %v", err)
		}
		if gsn2 != gsn || !reflect.DeepEqual(logSet2, logSet) || !reflect.DeepEqual(req2, req) {
			t.Fatalf("GSN record round trip diverged:\n  first  %d %v %+v\n  second %d %v %+v",
				gsn, logSet, req, gsn2, logSet2, req2)
		}
	})
}

// FuzzDecodeImage holds the snapshot codec to the same standard:
// recovery and a replica's snapshot install feed disk or stream bytes
// straight into decodeImage, so it must reject or round-trip — never
// panic, and never size an allocation by a count the payload cannot
// back. A payload without the IMG2 magic never decodes.
func FuzzDecodeImage(f *testing.F) {
	full := &stmlib.RegistryImage{
		Maps:     map[string]map[string][]byte{"m": {"k1": []byte("v1"), "k2": []byte("v2")}},
		Queues:   map[string][][]byte{"q": {[]byte("a"), []byte("b")}},
		Counters: map[string]int64{"c": -7},
		MapTTLs:  map[string]map[string]int64{"m": {"k2": 12345}},
		Sorted: map[string][]stmlib.SortedEntry[string, []byte]{
			"board": {{Key: "p1", Value: []byte("one")}, {Key: "p2", Value: []byte("two"), Exp: 999}},
		},
		Leases:    map[string][]stmlib.LeaseRecord[[]byte]{"q": {{ID: 3, Value: []byte("leased"), Deadline: 777}}},
		LeaseSeqs: map[string]uint64{"q": 3},
	}
	f.Add(encodeImage(full, 42))
	f.Add(encodeImage(&stmlib.RegistryImage{}, 0))
	f.Add(oversizeCountImage())
	f.Add(imageWithoutMagic())
	f.Fuzz(func(t *testing.T, data []byte) {
		img, mark, err := decodeImage(data)
		if err != nil {
			return // rejected input: only property is "no panic"
		}
		if !bytes.HasPrefix(data, imageMagic) {
			t.Fatalf("a payload without the magic decoded: % x", data)
		}
		back, backMark, err := decodeImage(encodeImage(img, mark))
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %+v: %v", img, err)
		}
		if backMark != mark || !reflect.DeepEqual(img, back) {
			t.Fatalf("image round trip diverged:\n  first  %d %+v\n  second %d %+v", mark, img, backMark, back)
		}
	})
}

// FuzzClassifyTx feeds arbitrary decoded envelopes through the routing
// classifier for every small shard count. classifyTx gates which commit
// path runs; a panic or a malformed plan here would take down the
// connection handler, so the property is total: any envelope the wire
// codec accepts must classify, and a cross plan — read-only or not —
// must name ≥2 sorted participants whose slices cover the envelope in
// order, and be marked read-only exactly when no sub-op writes.
func FuzzClassifyTx(f *testing.F) {
	for _, seed := range fuzzSeedRequests() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := ParseRequest(payload)
		if err != nil || req.Op != OpTx {
			return
		}
		for n := 1; n <= 5; n++ {
			plan := classifyTx(req.Tx, n)
			switch plan.kind {
			case planSingle:
				if plan.target < 0 || plan.target >= n {
					t.Fatalf("n=%d: single plan targets shard %d", n, plan.target)
				}
			case planCross:
				if n < 2 || len(plan.participants) < 2 {
					t.Fatalf("n=%d: cross plan with participants %v", n, plan.participants)
				}
				writes := false
				for i := range req.Tx.Ops {
					writes = writes || Mutates(req.Tx.Ops[i].Op)
				}
				if plan.readOnly == writes {
					t.Fatalf("n=%d: cross plan readOnly=%v for an envelope that writes=%v", n, plan.readOnly, writes)
				}
				covered, partials := 0, 0
				for i, sh := range plan.participants {
					if i > 0 && sh <= plan.participants[i-1] {
						t.Fatalf("n=%d: participants not ascending: %v", n, plan.participants)
					}
					if sh < 0 || sh >= n {
						t.Fatalf("n=%d: participant %d out of range", n, sh)
					}
					slice := plan.slices[sh]
					if len(slice) == 0 {
						t.Fatalf("n=%d: participant %d has an empty slice", n, sh)
					}
					for j, item := range slice {
						if j > 0 && item.idx <= slice[j-1].idx {
							t.Fatalf("n=%d shard %d: slice not in envelope order: %+v", n, sh, slice)
						}
						if item.idx < 0 || item.idx >= len(req.Tx.Ops) {
							t.Fatalf("n=%d shard %d: slice index %d out of range", n, sh, item.idx)
						}
						if item.partial {
							partials++
						} else {
							covered++
						}
					}
				}
				// Every op executes on exactly one shard, except global
				// counter reads (no single home), which instead place one
				// partial item on EVERY shard.
				executed, globals := 0, 0
				for i := range req.Tx.Ops {
					if _, ok := crossShardHome(&req.Tx.Ops[i], n); ok {
						executed++
					} else {
						globals++
					}
				}
				if covered != executed || partials != globals*n {
					t.Fatalf("n=%d: slices hold %d exec + %d partial items, envelope needs %d + %d",
						n, covered, partials, executed, globals*n)
				}
			default:
				t.Fatalf("n=%d: unknown plan kind %d", n, plan.kind)
			}
		}
	})
}

// FuzzHelloInfoRoundTrip holds the handshake payload codec (D39) to the
// wire-codec standard. The client feeds server-supplied bytes straight
// into ParseHelloInfo during Connect, so the decoder must reject or
// round-trip — a panic here would take down every dial.
func FuzzHelloInfoRoundTrip(f *testing.F) {
	f.Add(EncodeHelloInfo(&HelloInfo{Version: ProtoVersion, Features: FeatureCrossShard, Role: RolePrimary, Shards: 1}))
	f.Add(EncodeHelloInfo(&HelloInfo{
		Version: ProtoVersion, Features: FeatureCrossShard | FeatureReplStream,
		Role: RoleReplica, Shards: 16, Primary: "10.0.0.1:7455",
	}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 15))
	f.Fuzz(func(t *testing.T, payload []byte) {
		info, err := ParseHelloInfo(payload)
		if err != nil {
			return // rejected input: only property is "no panic"
		}
		if info.Role != RolePrimary && info.Role != RoleReplica {
			t.Fatalf("decoder accepted unknown role %d", info.Role)
		}
		back, err := ParseHelloInfo(EncodeHelloInfo(info))
		if err != nil {
			t.Fatalf("re-encoded hello info does not re-parse: %+v: %v", info, err)
		}
		if !reflect.DeepEqual(info, back) {
			t.Fatalf("hello info round trip diverged:\n  first  %+v\n  second %+v", info, back)
		}
	})
}

// FuzzKVListRoundTrip holds the range-scan result codec to the wire
// standard: DecodeKVs feeds client-visible bytes (TxResults Value slots)
// straight into user code, so it must reject or round-trip, never panic
// or over-read — including against inflated count prefixes. The decoder
// borrows (D49), so two more properties ride along: no returned value
// can be grown into its neighbour (cap == len), and an empty value
// decodes as nil exactly as the copying decoder's did.
func FuzzKVListRoundTrip(f *testing.F) {
	f.Add(AppendKVs(nil, nil))
	f.Add(AppendKVs(nil, []KVEntry{{Key: "k", Value: []byte("v")}}))
	f.Add(AppendKVs(nil, []KVEntry{
		{Key: "", Value: nil},
		{Key: "p2", Value: bytes.Repeat([]byte{7}, 100)},
	}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // inflated count, no entries
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, 9))
	f.Fuzz(func(t *testing.T, payload []byte) {
		kvs, err := DecodeKVs(payload)
		if err != nil {
			return // rejected input: only property is "no panic"
		}
		again, err := DecodeKVs(AppendKVs(nil, kvs))
		if err != nil {
			t.Fatalf("re-encoded KV list does not re-decode: %v", err)
		}
		if len(again) != len(kvs) {
			t.Fatalf("KV list round trip changed length: %d != %d", len(again), len(kvs))
		}
		for i := range kvs {
			if kvs[i].Key != again[i].Key || !bytes.Equal(kvs[i].Value, again[i].Value) {
				t.Fatalf("KV entry %d diverged: %+v != %+v", i, kvs[i], again[i])
			}
			if v := kvs[i].Value; cap(v) != len(v) {
				t.Fatalf("KV entry %d: value of %d bytes has capacity %d: an append would write into the next entry", i, len(v), cap(v))
			}
			if v := kvs[i].Value; v != nil && len(v) == 0 {
				t.Fatalf("KV entry %d: empty value decoded as non-nil", i)
			}
		}
	})
}

func FuzzResponseRoundTrip(f *testing.F) {
	resps := []*Response{
		{ID: 1, Status: StatusOK},
		{ID: 2, Status: StatusOK, Found: true, Num: -3, Value: []byte("v"), Msg: ""},
		{ID: 3, Status: StatusRejected, Num: 1, Msg: "assert failed", TxResults: []TxResult{
			{Status: StatusOK, Num: 7}, {Status: StatusRejected}, {},
		}},
		{ID: 4, Status: StatusErr, Msg: "boom"},
		{ID: 5, Status: statusRemovedCrossShard, Msg: "2 shards"}, // rejected: the reserved number
		{ID: 6, Status: StatusNotPrimary, Msg: "read-only replica; primary is 10.0.0.1:7455"},
		{ID: 7, Status: StatusOK, Value: EncodeHelloInfo(&HelloInfo{
			Version: ProtoVersion, Features: FeatureCrossShard | FeatureReplStream,
			Role: RoleReplica, Shards: 4, Primary: "10.0.0.1:7455",
		})},
		// D45 result vectors: a range scan's KV list riding a sub-result
		// Value, and a lease grant (id in Num, payload in Value).
		{ID: 8, Status: StatusOK, TxResults: []TxResult{
			{Status: StatusOK, Num: 2, Value: AppendKVs(nil, []KVEntry{
				{Key: "p1", Value: []byte("one")},
				{Key: "p2", Value: []byte("two")},
			})},
			{Status: StatusOK, Found: true, Num: 41, Value: []byte("job")},
		}},
	}
	for _, resp := range resps {
		frame := AppendResponse(nil, resp)
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 30))
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := ParseResponse(payload)
		if err != nil {
			return
		}
		if resp.Status == 0 || resp.Status == statusRemovedCrossShard || resp.Status > StatusNotPrimary {
			t.Fatalf("decoder accepted unknown status %d", resp.Status)
		}
		for i := range resp.TxResults {
			if st := resp.TxResults[i].Status; st > StatusRejected {
				t.Fatalf("decoder accepted unknown sub-result status %d", st)
			}
		}
		frame := AppendResponse(nil, resp)
		back, err := ParseResponse(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded response does not re-parse: %+v: %v", resp, err)
		}
		if !reflect.DeepEqual(resp, back) {
			t.Fatalf("response round trip diverged:\n  first  %+v\n  second %+v", resp, back)
		}
		// The client's reader refills its frame buffer as soon as a
		// response is parsed, while the caller still holds the response.
		scratch := bytes.Clone(payload)
		aliased, err := ParseResponse(scratch)
		poison(scratch)
		if err != nil || !reflect.DeepEqual(resp, aliased) {
			t.Fatalf("response changed when its frame buffer was overwritten (err %v):\n  want %+v\n  got  %+v", err, resp, aliased)
		}
	})
}
