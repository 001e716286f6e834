package client

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pnstm/internal/alloctest"
	"pnstm/server"
)

// echoServer answers every MapGet, top-level or inside an envelope, with
// the request's own key as the value, so a caller can tell its reply from
// anybody else's; an envelope's other sub-ops just succeed. Each
// connection is cut after cutAfter replies, with whatever requests are
// then in flight left unanswered and the last replies possibly still
// unread by the client.
type echoServer struct {
	ln          net.Listener
	cutAfter    int
	refuseHello atomic.Bool // answer OpHello with StatusErr, as a server without the handshake would
	wg          sync.WaitGroup
}

func newEchoServer(t *testing.T, cutAfter int) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	es := &echoServer{ln: ln, cutAfter: cutAfter}
	es.wg.Add(1)
	go func() {
		defer es.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			es.wg.Add(1)
			go es.serve(nc)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		es.wg.Wait()
	})
	return es
}

func (es *echoServer) serve(nc net.Conn) {
	defer es.wg.Done()
	defer nc.Close()
	br := bufio.NewReader(nc)
	var buf []byte
	for replies := 0; replies < es.cutAfter; {
		frame, err := server.ReadFrame(br, nil)
		if err != nil {
			return
		}
		req, err := server.ParseRequest(frame)
		if err != nil {
			return
		}
		resp := server.Response{ID: req.ID, Status: server.StatusOK}
		switch req.Op {
		case server.OpHello:
			if es.refuseHello.Load() {
				resp.Status, resp.Msg = server.StatusErr, "unknown opcode"
				break
			}
			resp.Value = server.EncodeHelloInfo(&server.HelloInfo{Version: server.ProtoVersion, Role: server.RolePrimary, Shards: 1})
		case server.OpMapGet:
			resp.Found, resp.Value = true, []byte(req.Key)
			replies++
		case server.OpTx:
			resp.TxResults = make([]server.TxResult, len(req.Tx.Ops))
			for i, op := range req.Tx.Ops {
				resp.TxResults[i].Status = server.StatusOK
				if op.Op == server.OpMapGet {
					resp.TxResults[i].Found, resp.TxResults[i].Value = true, []byte(op.Key)
				}
			}
			replies++
		}
		buf = server.AppendResponse(buf[:0], &resp)
		if _, err := nc.Write(buf); err != nil {
			return
		}
	}
}

// TestConnectRefusesPeerWithoutHello: a peer that answers the Hello
// with StatusErr is not a server this client can route, so Connect
// fails and names the address instead of taking it for a primary.
func TestConnectRefusesPeerWithoutHello(t *testing.T) {
	es := newEchoServer(t, 1)
	es.refuseHello.Store(true)
	addr := es.ln.Addr().String()
	cl, err := Connect(Options{Addrs: []string{addr}})
	if err == nil {
		cl.Close()
		t.Fatal("Connect accepted a peer that refused the Hello")
	}
	if !strings.Contains(err.Error(), addr) {
		t.Errorf("Connect error %q does not name %s", err, addr)
	}
}

// TestRecycledReplyChannelNeverDeliversStaleResponse fails connections
// with calls in flight, over and over, while later calls on fresh
// connections draw reply channels from the same pool. A channel recycled
// while the failed connection's reader could still send on it would hand
// a later caller somebody else's response: every successful MapGet, and
// every envelope that puts and gets the caller's own key, must return that
// key. The envelopes hold the reader to a fresh results list per reply:
// replies travel by value, so a list the reader decoded into twice would
// change under the call that received it. Run with -race.
func TestRecycledReplyChannelNeverDeliversStaleResponse(t *testing.T) {
	const (
		rounds  = 40
		callers = 8
		perCall = 25 // calls per caller per round; the server cuts well before all are answered
	)
	es := newEchoServer(t, callers*perCall/3)
	var ok, failed atomic.Int64
	for round := 0; round < rounds; round++ {
		cl, err := Connect(Options{Addrs: []string{es.ln.Addr().String()}, PoolSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perCall; i++ {
					key := fmt.Sprintf("r%d-g%d-i%d", round, g, i)
					if i%2 == 1 {
						res, err := cl.Txn().MapPut("kv", key, []byte(key)).MapGet("kv", key).Commit()
						if err != nil {
							failed.Add(1)
							continue
						}
						ok.Add(1)
						if res.Len() != 2 || !res.Found(1) || string(res.Bytes(1)) != key {
							t.Errorf("envelope on %q = %d results, %q: a reply meant for another call", key, res.Len(), res.Bytes(1))
						}
						continue
					}
					v, found, err := cl.MapGet("kv", key)
					if err != nil {
						failed.Add(1)
						continue // the connection was cut under this call
					}
					ok.Add(1)
					if !found || string(v) != key {
						t.Errorf("MapGet(%q) = %q, %v: a reply meant for another call", key, v, found)
					}
				}
			}(g)
		}
		wg.Wait()
		cl.Close()
	}
	if ok.Load() == 0 || failed.Load() == 0 {
		t.Fatalf("the drill needs both outcomes to mean anything: %d calls answered, %d cut off", ok.Load(), failed.Load())
	}
}

// TestEntriesAllocCeiling pins what decoding a 64-entry RangeScan result
// costs the caller: the entry slice and the keys' shared string. The
// values are slices of the result's own payload (the buffer Bytes hands
// out), and Entries returns the decoded slice itself, not a copy.
func TestEntriesAllocCeiling(t *testing.T) {
	kvs := make([]server.KVEntry, 64)
	for i := range kvs {
		kvs[i] = server.KVEntry{Key: fmt.Sprintf("k%07d", i), Value: make([]byte, 64)}
		kvs[i].Value[0] = byte(i)
	}
	res := &TxResults{rs: []server.TxResult{{Status: server.StatusOK, Num: 64, Value: server.AppendKVs(nil, kvs)}}}
	var es []Entry
	var err error
	if got := alloctest.Exact(100, func() { es, err = res.Entries(0) }); got > 2+alloctest.Slack { // reads 2.00
		t.Errorf("Entries on 64 entries: %.3f allocs, ceiling 2 (the entry slice, the keys' string) and %.2f slack", got, alloctest.Slack)
	}
	if err != nil || len(es) != 64 {
		t.Fatalf("Entries = %d entries, %v", len(es), err)
	}
	payload := res.Bytes(0)
	for i, e := range es {
		if e.Key != kvs[i].Key || e.Value[0] != byte(i) || len(e.Value) != 64 {
			t.Errorf("entry %d = %q %x", i, e.Key, e.Value)
		}
		if cap(e.Value) != len(e.Value) {
			t.Errorf("entry %d: value capacity %d past its %d bytes", i, cap(e.Value), len(e.Value))
		}
		if off := 4 + i*(2+8+4+64) + 2 + 8 + 4; &e.Value[0] != &payload[off] {
			t.Errorf("entry %d: value is a copy, not a slice of the result's payload at %d", i, off)
		}
	}
}

// TestReplyValueAllocCeiling pins what a connection's reader pays for the
// values of point-read replies: 64 MapGet replies with 64-byte values,
// decoded the way readLoop decodes them, cost at most one slab refill.
// Each value is its own bytes, capped at its length, and a refill leaves
// the values already handed out as they were.
func TestReplyValueAllocCeiling(t *testing.T) {
	var frames [][]byte
	for i := range 64 {
		resp := &server.Response{ID: uint64(i), Status: server.StatusOK, Found: true, Value: bytes.Repeat([]byte{byte(i)}, 64)}
		frames = append(frames, server.AppendResponse(nil, resp)[4:])
	}
	var slab server.ReplySlab
	var resp server.Response
	values := make([][]byte, 0, 3*len(frames))
	decode := func() {
		for _, f := range frames {
			if err := slab.DecodeResponse(f, &resp); err != nil {
				t.Fatal(err)
			}
			values = append(values, resp.Value)
		}
	}
	decode()
	if got := alloctest.Exact(1, decode); got > 1 { // reads 0 or 1: the 64 values fill half a slab
		t.Errorf("decoding 64 MapGet replies with 64-byte values: %.3f allocs, ceiling 1 (a slab refill)", got)
	}
	for i, v := range values {
		if len(v) != 64 || cap(v) != 64 || !bytes.Equal(v, bytes.Repeat([]byte{byte(i % 64)}, 64)) {
			t.Errorf("value %d: %d bytes, cap %d, %x", i, len(v), cap(v), v)
		}
	}
}

// TestKeptTxResultsSurviveSlabRefills is TestReplyValueAllocCeiling for
// envelope replies: 64 three-op replies, decoded the way readLoop decodes
// them, carve their results lists and small values from the slabs, and
// every list a caller keeps stays as it was decoded while later frames
// refill both slabs several times over. A slab that started again at its
// first slot when full, rather than being replaced, would rewrite them.
func TestKeptTxResultsSurviveSlabRefills(t *testing.T) {
	const rounds = 4 // 768 result slots and 26 KB of values: six result slabs, four value slabs
	result := func(f, i int) server.TxResult {
		return server.TxResult{Status: server.StatusOK, Found: i != 1, Num: int64(f*3 + i),
			Value: bytes.Repeat([]byte{byte(f), byte(i)}, 16+i)}
	}
	var frames [][]byte
	for f := range 64 {
		resp := &server.Response{ID: uint64(f), Status: server.StatusOK,
			TxResults: []server.TxResult{result(f, 0), result(f, 1), result(f, 2)}}
		frames = append(frames, server.AppendResponse(nil, resp)[4:])
	}
	var slab server.ReplySlab
	var resp server.Response
	kept := make([][]server.TxResult, 0, rounds*len(frames))
	decode := func() {
		for _, f := range frames {
			if err := slab.DecodeResponse(f, &resp); err != nil {
				t.Fatal(err)
			}
			kept = append(kept, resp.TxResults)
		}
	}
	decode()
	// 192 slots and 6,528 value bytes a round: at most two result slab
	// refills and one value slab refill.
	if got := alloctest.Exact(rounds-2, decode); got > 3 { // reads 2.50
		t.Errorf("decoding 64 three-op envelope replies: %.3f allocs, ceiling 3 (two result slabs, a value slab)", got)
	}
	for k, rs := range kept {
		f := k % len(frames)
		if len(rs) != 3 || cap(rs) != 3 {
			t.Fatalf("reply %d: %d results, cap %d, want 3 capped at 3", k, len(rs), cap(rs))
		}
		for i, r := range rs {
			want := result(f, i)
			if r.Status != want.Status || r.Found != want.Found || r.Num != want.Num || !bytes.Equal(r.Value, want.Value) {
				t.Errorf("reply %d result %d = %+v, want %+v: rewritten by a later decode", k, i, r, want)
			}
		}
	}
}

// TestCommitDropsItsOps: the results Commit returns live in the builder,
// so the builder must not hold the request's keys and values once it is
// sent. After Commit every op in the builder is cleared, spilled past the
// first four or not, At still counts them, and the results still read as
// the reply said.
func TestCommitDropsItsOps(t *testing.T) {
	es := newEchoServer(t, 1<<20)
	cl, err := Connect(Options{Addrs: []string{es.ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, n := range []int{2, 6} {
		tx := cl.Txn()
		for i := range n - 1 {
			tx.MapPut("kv", fmt.Sprintf("k%d", i), make([]byte, 1<<10))
		}
		tx.MapGet("kv", "last")
		res, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if tx.At() != n {
			t.Errorf("%d ops: At() = %d after Commit", n, tx.At())
		}
		for i, op := range append(tx.first[:], tx.ops...) {
			if !reflect.DeepEqual(op, server.TxOp{}) {
				t.Errorf("%d ops: op %d still held after Commit: %s %q", n, i, op.Name, op.Key)
			}
		}
		if res.Len() != n || !res.Found(n-1) || string(res.Bytes(n-1)) != "last" {
			t.Errorf("%d ops: %d results, last %q", n, res.Len(), res.Bytes(n-1))
		}
	}
}
