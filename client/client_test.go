package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"pnstm/server"
)

// echoServer answers every MapGet with the request's own key as the
// value, so a caller can tell its reply from anybody else's. Each
// connection is cut after cutAfter replies, with whatever requests are
// then in flight left unanswered and the last replies possibly still
// unread by the client.
type echoServer struct {
	ln       net.Listener
	cutAfter int
	wg       sync.WaitGroup
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
			resp.Value = server.EncodeHelloInfo(&server.HelloInfo{Version: server.ProtoVersion, Role: server.RolePrimary, Shards: 1})
		case server.OpMapGet:
			resp.Found, resp.Value = true, []byte(req.Key)
			replies++
		}
		buf = server.AppendResponse(buf[:0], &resp)
		if _, err := nc.Write(buf); err != nil {
			return
		}
	}
}

// TestRecycledReplyChannelNeverDeliversStaleResponse fails connections
// with calls in flight, over and over, while later calls on fresh
// connections draw reply channels from the same pool. A channel recycled
// while the failed connection's reader could still send on it would hand
// a later caller somebody else's response: every successful MapGet must
// return its own key. Run with -race.
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
	if got := testing.AllocsPerRun(100, func() { es, err = res.Entries(0) }); got > 2 {
		t.Errorf("Entries on 64 entries: %.0f allocs, ceiling 2 (the entry slice, the keys' string)", got)
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
