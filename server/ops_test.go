package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"pnstm"
	"pnstm/internal/wal"
)

// TestWireNumbersAreGolden pins every opcode's and status's number. Both
// const blocks are positional: deleting a line (or inserting one anywhere
// but the end) renumbers everything after it — in every WAL record on
// disk and every peer on the wire — and nothing else would notice.
func TestWireNumbersAreGolden(t *testing.T) {
	for _, g := range []struct {
		name      string
		got, want uint8
	}{
		{"OpPing", OpPing, 1}, {"OpMapGet", OpMapGet, 2}, {"OpMapPut", OpMapPut, 3},
		{"OpMapDelete", OpMapDelete, 4}, {"OpMapLen", OpMapLen, 5}, {"OpQueuePush", OpQueuePush, 6},
		{"OpQueuePop", OpQueuePop, 7}, {"OpQueueLen", OpQueueLen, 8}, {"OpCounterAdd", OpCounterAdd, 9},
		{"OpCounterSum", OpCounterSum, 10}, {"opRemovedCheckout", opRemovedCheckout, 11},
		{"OpStats", OpStats, 12}, {"OpTx", OpTx, 13}, {"OpMapAdd", OpMapAdd, 14},
		{"OpAssertEq", OpAssertEq, 15}, {"OpAssertGE", OpAssertGE, 16}, {"OpHello", OpHello, 17},
		{"OpReplSubscribe", OpReplSubscribe, 18}, {"OpSortedGet", OpSortedGet, 19},
		{"OpSortedPut", OpSortedPut, 20}, {"OpSortedPutTTL", OpSortedPutTTL, 21},
		{"OpSortedDelete", OpSortedDelete, 22}, {"OpSortedLen", OpSortedLen, 23},
		{"OpRangeScan", OpRangeScan, 24}, {"OpRangeCount", OpRangeCount, 25},
		{"OpMapPutTTL", OpMapPutTTL, 26}, {"OpExpire", OpExpire, 27}, {"OpSortedExpire", OpSortedExpire, 28},
		{"OpLeaseConsume", OpLeaseConsume, 29}, {"OpLeaseAck", OpLeaseAck, 30},
		{"OpLeaseNack", OpLeaseNack, 31}, {"OpLeaseReclaim", OpLeaseReclaim, 32}, {"OpLeaseLen", OpLeaseLen, 33},
		{"StatusOK", StatusOK, 1}, {"StatusRejected", StatusRejected, 2}, {"StatusErr", StatusErr, 3},
		{"statusRemovedCrossShard", statusRemovedCrossShard, 4}, {"StatusNotPrimary", StatusNotPrimary, 5},
	} {
		if g.got != g.want {
			t.Errorf("%s = %d, want %d: the number is the wire and WAL format", g.name, g.got, g.want)
		}
	}
	// The table has a row for every opcode above and for nothing else.
	for op := 0; op < 256; op++ {
		known := op >= int(OpPing) && op <= int(OpLeaseLen) && op != opRemovedCheckout
		if has := opTable[op] != (opDesc{}); has != known {
			t.Errorf("opcode %d: table row present = %v, want %v", op, has, known)
		}
	}
}

// TestOpTableInvariants holds every row — all 256, so a hostile byte is
// covered — to the rules the readers of the table rely on.
func TestOpTableInvariants(t *testing.T) {
	h := newExecHarness(t, false)
	for i := 0; i < 256; i++ {
		op, d := uint8(i), opTable[i]
		if d.sub && d.kind == 0 {
			t.Errorf("opcode %d: legal in an envelope but addresses no structure", op)
		}
		if d.kind == 0 && (d.sub || d.composite || d.effect != effectNever) {
			t.Errorf("opcode %d: not executable, yet %+v", op, d)
		}
		if d.kind != 0 && !d.top && !d.sub {
			t.Errorf("opcode %d: executable but legal nowhere", op)
		}
		if Mutates(op) != (d.effect != effectNever) {
			t.Errorf("opcode %d: Mutates = %v, effect = %d", op, Mutates(op), d.effect)
		}
		// Reachability follows the row: a request is parsed iff top, a
		// one-op envelope iff sub, and the executor runs exactly the ops
		// that address a structure.
		frame, err := AppendRequest(nil, &Request{ID: 1, Op: op, Tx: &Tx{}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseRequest(frame[4:]); (err == nil) != d.top {
			t.Errorf("opcode %d: parsed as a request: %v, top = %v", op, err, d.top)
		}
		if _, err := AppendRequest(nil, &Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: op}}}}); (err == nil) != d.sub {
			t.Errorf("opcode %d: encoded as a sub-op: %v, sub = %v", op, err, d.sub)
		}
		resp := h.do(t, txReq(TxOp{Op: op, Name: "inv", Key: "k", Value: EncodeInt64(1)}))
		if notExec := strings.Contains(resp.Msg, "not executable"); notExec != (d.kind == 0) {
			t.Errorf("opcode %d (kind %q): executor answered %+v", op, d.kind, resp)
		}
		if resp := h.do(t, Request{Op: op, Name: "inv", Key: "k", Value: EncodeInt64(1)}); op != OpTx && (resp.Status != StatusErr) != (d.top && d.kind != 0) {
			t.Errorf("opcode %d: as a point request the executor answered %+v, top = %v", op, resp, d.top)
		}
	}
}

// routeFixture prepares one harness with a little of everything and
// returns the sample ops to run against it, keyed by opcode — hits,
// misses, true and false guards. Two fixtures are identical, lease ids
// included, so the same sample sequence keeps them identical for as long
// as the routes under comparison agree.
func routeFixture(t *testing.T, h *execHarness) map[uint8][]TxOp {
	t.Helper()
	five := EncodeInt64(5)
	setup := h.do(t, txReq(
		TxOp{Op: OpMapPut, Name: "m", Key: "k", Value: five},
		TxOp{Op: OpMapPut, Name: "m", Key: "gone", Value: five},
		TxOp{Op: OpMapPutTTL, Name: "m", Key: "ttl", Value: five, Delta: 100},
		TxOp{Op: OpQueuePush, Name: "q", Value: []byte("x")},
		TxOp{Op: OpCounterAdd, Name: "c", Delta: 3},
		TxOp{Op: OpSortedPut, Name: "s", Key: "a", Value: []byte("1")},
		TxOp{Op: OpSortedPut, Name: "s", Key: "b", Value: []byte("2")},
		TxOp{Op: OpSortedPutTTL, Name: "s", Key: "ttl", Value: []byte("3"), Delta: 100},
		TxOp{Op: OpQueuePush, Name: "jobs", Value: []byte("j1")},
		TxOp{Op: OpQueuePush, Name: "jobs", Value: []byte("j2")},
		TxOp{Op: OpQueuePush, Name: "jobs", Value: []byte("j3")},
		TxOp{Op: OpLeaseConsume, Name: "jobs", Delta: 100},
		TxOp{Op: OpLeaseConsume, Name: "jobs", Delta: 100},
		TxOp{Op: OpLeaseConsume, Name: "jobs", Delta: 100}))
	if setup.Status != StatusOK {
		t.Fatalf("fixture: %+v", setup)
	}
	lease := func(i int) int64 { return setup.TxResults[11+i].Num }
	return map[uint8][]TxOp{
		OpMapGet:       {{Name: "m", Key: "k"}, {Name: "m", Key: "absent"}},
		OpMapPut:       {{Name: "m", Key: "new", Value: []byte("v")}},
		OpMapDelete:    {{Name: "m", Key: "gone"}, {Name: "m", Key: "gone"}},
		OpMapLen:       {{Name: "m"}},
		OpMapAdd:       {{Name: "m", Key: "k", Delta: 2}, {Name: "m", Key: "fresh", Delta: -1}},
		OpMapPutTTL:    {{Name: "m", Key: "ttl2", Value: five, Delta: 50}},
		OpExpire:       {{Name: "m", Key: "ttl", Delta: 10}, {Name: "m", Key: "ttl", Delta: 200}},
		OpQueuePush:    {{Name: "q", Value: []byte("y")}},
		OpQueuePop:     {{Name: "q"}, {Name: "empty"}},
		OpQueueLen:     {{Name: "q"}},
		OpCounterAdd:   {{Name: "c", Delta: 4}},
		OpCounterSum:   {{Name: "c"}},
		OpAssertEq:     {{Name: "m", Key: "k", Value: five}, {Name: "m", Key: "k", Value: []byte("no")}, {Name: "m", Key: "absent"}, {Name: "c", Delta: 3}, {Name: "c", Delta: 9}},
		OpAssertGE:     {{Name: "m", Key: "k", Delta: 5}, {Name: "m", Key: "k", Delta: 6}, {Name: "m", Key: "absent", Delta: 1}, {Name: "c", Delta: 3}, {Name: "c", Delta: 9}},
		OpSortedGet:    {{Name: "s", Key: "a"}, {Name: "s", Key: "absent"}},
		OpSortedPut:    {{Name: "s", Key: "c", Value: []byte("3")}},
		OpSortedPutTTL: {{Name: "s", Key: "ttl2", Value: []byte("4"), Delta: 50}},
		OpSortedDelete: {{Name: "s", Key: "b"}, {Name: "s", Key: "b"}},
		OpSortedLen:    {{Name: "s"}},
		OpRangeScan:    {{Name: "s", Key: "a", Value: []byte("z"), Delta: 10}, {Name: "s", Key: "a"}},
		OpRangeCount:   {{Name: "s", Key: "a", Value: []byte("z")}, {Name: "s", Key: "b"}},
		OpSortedExpire: {{Name: "s", Key: "ttl", Delta: 10}, {Name: "s", Key: "ttl", Delta: 200}},
		OpLeaseConsume: {{Name: "q", Delta: 100}, {Name: "empty", Delta: 100}},
		OpLeaseAck:     {{Name: "jobs", Delta: lease(0)}, {Name: "jobs", Delta: lease(0)}},
		OpLeaseNack:    {{Name: "jobs", Delta: lease(1)}, {Name: "jobs", Delta: lease(1)}},
		OpLeaseReclaim: {{Name: "jobs", Delta: 10}, {Name: "jobs", Delta: 200}},
		OpLeaseLen:     {{Name: "jobs"}},
	}
}

// logged runs p alone on a durable harness, appends what it logged and
// returns the WAL's tail.
func (h *execHarness) logged(t *testing.T, p *pending) uint64 {
	h.run(t, p)
	if err := h.r.logBatch(wal.MaxBody); err != nil {
		t.Fatal(err)
	}
	return h.b.wal.TailLSN()
}

// TestSameOpSameAnswerPointVsEnvelope runs every top opcode as a point
// request and as a one-op envelope against identically prepared durable
// shards: same Found/Num/Value, same changed-the-store verdict, same
// number of WAL records.
func TestSameOpSameAnswerPointVsEnvelope(t *testing.T) {
	point, env := newExecHarness(t, true), newExecHarness(t, true)
	samples := routeFixture(t, point)
	routeFixture(t, env)
	for i := 0; i < 256; i++ {
		op := uint8(i)
		if !opTable[op].top || opTable[op].kind == 0 {
			continue
		}
		if len(samples[op]) == 0 {
			t.Errorf("opcode %d is a point op with no sample in routeFixture", op)
		}
		for _, s := range samples[op] {
			s.Op = op
			pp := &pending{req: Request{Op: op, Name: s.Name, Key: s.Key, Value: s.Value, Delta: s.Delta}}
			ep := &pending{req: txReq(s)}
			pLSN, eLSN := point.logged(t, pp), env.logged(t, ep)
			if pp.resp.Status != StatusOK || ep.resp.Status != StatusOK {
				t.Fatalf("%+v: point %+v, envelope %+v", s, pp.resp, ep.resp)
			}
			got, want := ep.resp.TxResults[0], TxResult{Status: StatusOK, Found: pp.resp.Found, Num: pp.resp.Num, Value: pp.resp.Value}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v: envelope answered %+v, point %+v", s, got, want)
			}
			if pp.logged != ep.logged || pp.logged != effected(op, &got) {
				t.Errorf("%+v: logged point=%v envelope=%v, effected=%v", s, pp.logged, ep.logged, effected(op, &got))
			}
			if pLSN != eLSN {
				t.Errorf("%+v: WAL tail point=%d envelope=%d", s, pLSN, eLSN)
			}
		}
	}
}

// TestSameOpSameAnswerEnvelopeVsSlice runs every sub opcode as a
// single-shard one-op envelope and as a cross-shard slice (executeSlice,
// committed or rolled back on its own report as judge would):
// same result, same failure, same redo verdict.
func TestSameOpSameAnswerEnvelopeVsSlice(t *testing.T) {
	env, cross := newExecHarness(t, false), newExecHarness(t, false)
	samples := routeFixture(t, env)
	routeFixture(t, cross)
	for i := 0; i < 256; i++ {
		op := uint8(i)
		if !opTable[op].sub {
			continue
		}
		if len(samples[op]) == 0 {
			t.Errorf("opcode %d is a sub-op with no sample in routeFixture", op)
		}
		for _, s := range samples[op] {
			s.Op = op
			ops, slice := []TxOp{s}, []sliceItem{{idx: 0}}
			ep := &pending{req: txReq(s)}
			env.run(t, ep)
			var rep crossReport
			if err := cross.b.rt.Run(func(c *pnstm.Ctx) {
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					rep = executeSlice(c, cross.b.reg, ops, slice)
					return rep.failErr
				})
			}); err != nil {
				t.Fatal(err)
			}
			if ep.resp.Status == StatusErr || (rep.failErr != nil && !errors.Is(rep.failErr, errRejected)) {
				t.Fatalf("%+v: envelope %+v, slice %v", s, ep.resp, rep.failErr)
			}
			if got, want := rep.results[0], ep.resp.TxResults[0]; !reflect.DeepEqual(got, want) {
				t.Errorf("%+v: slice answered %+v, envelope %+v", s, got, want)
			}
			if (rep.failErr != nil) != (ep.resp.Status == StatusRejected) || rep.failMsg != ep.resp.Msg {
				t.Errorf("%+v: slice failed with %v %q, envelope answered %+v", s, rep.failErr, rep.failMsg, ep.resp)
			}
			redo := rep.failErr == nil && crossWriteSlice(ops, slice, []TxResult{rep.results[0]}) != nil
			if redo != mutating(&ep.req, &ep.resp) {
				t.Errorf("%+v: slice logs a redo record = %v, envelope mutating = %v", s, redo, mutating(&ep.req, &ep.resp))
			}
		}
	}
}

// TestRemovedOpcodeInWALFailsBoot: a log from before the envelope era can
// hold an OpCheckout request. This build cannot replay it, and skipping
// it would drop acked history — so recovery fails, naming the record and
// the way out.
func TestRemovedOpcodeInWALFailsBoot(t *testing.T) {
	dir := t.TempDir()
	if err := wal.WriteManifest(dir, wal.Manifest{Version: wal.ManifestVersion, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	wl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	put, err := AppendRequest(nil, &Request{Op: OpMapPut, Name: "m", Key: "k", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	old := removedCheckoutFrame(0)
	record := binary.BigEndian.AppendUint32(put, uint32(len(old)))
	if _, err := wl.Append(append(record, old...)); err != nil {
		t.Fatal(err)
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: dir})
	if err == nil {
		s.Close()
		t.Fatal("a WAL holding the removed opcode recovered")
	}
	for _, want := range []string{"lsn 1", "request 1", "opcode 11", "previous build", "checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("boot error %q does not mention %q", err, want)
		}
	}
}

// TestRemovedOpcodeOnTheWire: an old client's OpCheckout frame is answered
// StatusErr under its own id, saying the opcode was removed and what to
// send instead, and the connection keeps serving.
func TestRemovedOpcodeOnTheWire(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()
	nc, err := net.DialTimeout("tcp", s.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	old := removedCheckoutFrame(77)
	out := append(binary.BigEndian.AppendUint32(nil, uint32(len(old))), old...)
	out, err = AppendRequest(out, &Request{ID: 78, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	for _, want := range []Response{{ID: 77, Status: StatusErr}, {ID: 78, Status: StatusOK}} {
		payload, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ParseResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != want.ID || resp.Status != want.Status {
			t.Fatalf("got %+v, want id %d status %d", resp, want.ID, want.Status)
		}
		if resp.Status == StatusErr && !(strings.Contains(resp.Msg, "removed") && strings.Contains(resp.Msg, "CheckoutTx")) {
			t.Errorf("refusal %q does not say the opcode was removed and what replaces it", resp.Msg)
		}
	}
}

// TestShardedCounterSumShardClosing: a top-level counter read on a
// sharded server is the one-op read-only cross-shard envelope
// [{OpCounterSum}] (commitCrossShard) and answers the summed partials in
// Num; once a shard has stopped taking work the whole read fails "server
// closing" under the caller's id — queueAll queues nothing, so never a
// partial total, never a hang.
func TestShardedCounterSumShardClosing(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()
	nc, err := net.DialTimeout("tcp", s.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	roundTrip := func(req *Request) Response {
		t.Helper()
		out, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(out); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ParseResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != req.ID {
			t.Fatalf("response id %d, want %d", resp.ID, req.ID)
		}
		return *resp
	}

	if resp := roundTrip(&Request{ID: 1, Op: OpCounterAdd, Name: "hits", Delta: 5}); resp.Status != StatusOK {
		t.Fatalf("add: %+v", resp)
	}
	if resp := roundTrip(&Request{ID: 2, Op: OpCounterSum, Name: "hits"}); resp.Status != StatusOK || resp.Num != 5 || len(resp.TxResults) != 0 {
		t.Fatalf("sharded sum = %+v, want StatusOK Num 5 and no envelope results", resp)
	}

	// Shard 1 refuses new work the way a closing shard does (stopped is
	// what submit tests; Close sets it again and does the rest).
	sh := s.shards[1]
	sh.smu.Lock()
	sh.stopped.Store(true)
	sh.smu.Unlock()
	resp := roundTrip(&Request{ID: 3, Op: OpCounterSum, Name: "hits"})
	if resp.Status != StatusErr || resp.Msg != "server closing" {
		t.Fatalf("sum with a closing shard = %+v, want StatusErr \"server closing\"", resp)
	}
}
