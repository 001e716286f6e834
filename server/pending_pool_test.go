package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bootServer starts a memory server on a kernel-chosen port and closes it
// at cleanup.
func bootServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve() //nolint:errcheck // Close ends it
	}()
	t.Cleanup(func() {
		s.Close()
		<-served
	})
	return s
}

// wireConn is one pipelined connection that writes raw frames: any
// goroutine sends a payload of its own making, malformed ones included,
// and waits for the reply that carries its id.
type wireConn struct {
	t      testing.TB
	nc     net.Conn
	nextID atomic.Uint64

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	waiting map[uint64]chan Response
}

func dialWire(t testing.TB, s *Server) *wireConn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := &wireConn{t: t, nc: nc, waiting: make(map[uint64]chan Response)}
	done := make(chan struct{})
	go w.readLoop(done)
	t.Cleanup(func() {
		nc.Close()
		<-done
	})
	return w
}

func (w *wireConn) readLoop(done chan struct{}) {
	defer close(done)
	br := bufio.NewReader(w.nc)
	for {
		frame, err := ReadFrame(br, nil)
		if err != nil {
			return // closed at cleanup
		}
		resp, err := ParseResponse(frame)
		if err != nil {
			w.t.Errorf("unparseable reply: %v", err)
			return
		}
		w.mu.Lock()
		ch := w.waiting[resp.ID]
		delete(w.waiting, resp.ID)
		w.mu.Unlock()
		if ch == nil {
			w.t.Errorf("a reply with id %d, which no request is waiting for", resp.ID)
			continue
		}
		ch <- *resp
	}
}

// send writes payload as one frame — its leading u64 must be id — and
// waits for the reply to id. ok is false when none came in time.
func (w *wireConn) send(id uint64, payload []byte) (resp Response, ok bool) {
	ch := make(chan Response, 1)
	w.mu.Lock()
	w.waiting[id] = ch
	w.mu.Unlock()
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(payload)), uint32(len(payload)))
	w.wmu.Lock()
	_, err := w.nc.Write(append(frame, payload...))
	w.wmu.Unlock()
	if err != nil {
		w.t.Errorf("write: %v", err)
		return Response{}, false
	}
	select {
	case resp = <-ch:
		return resp, true
	case <-time.After(10 * time.Second):
		w.t.Errorf("request %d: no reply in 10 s", id)
		return Response{}, false
	}
}

// payload encodes req under a fresh id and returns both.
func (w *wireConn) payload(req Request) (uint64, []byte) {
	req.ID = w.nextID.Add(1)
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		panic(err)
	}
	return req.ID, frame[4:]
}

// call round-trips a well-formed request.
func (w *wireConn) call(req Request) (Response, bool) {
	return w.send(w.payload(req))
}

// TestRecycledPendingNeverCrossesRequests drives every kind of frame a
// connection's reader handles through ONE connection of a 4-shard server,
// from 16 goroutines at once: the frames the reader answers itself (parse
// errors, Ping, Stats, an empty envelope), where it keeps its pending for
// the next frame, and every hand-off — a shard's batcher, a read-only
// and a mutating cross-shard envelope and the multi-shard CounterSum
// (commitCrossShard, all three) — where it must let go. A pending reused while a hand-off still
// reads it, or recycled while a reply still needs it, answers somebody
// else's request: here every reply must answer its own. Run with -race.
func TestRecycledPendingNeverCrossesRequests(t *testing.T) {
	const (
		shards     = 4
		goroutines = 16
		rounds     = 20
	)
	s := bootServer(t, Config{Shards: shards, MaxBatch: 16})
	names := namesFor(t, "rp", shards, []int{0, 1})
	mapA, mapB := names[0], names[1]
	w := dialWire(t, s)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			exchangeOwnRequests(t, w, g, rounds, mapA, mapB)
		}(g)
	}
	wg.Wait()

	// The ledger: every transfer moved one unit from a goroutine's account
	// on mapA to its account on mapB, in one cross-shard envelope.
	for g := 0; g < goroutines; g++ {
		acct := fmt.Sprintf("acct-%02d", g)
		resp, ok := w.call(Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpMapGet, Name: mapA, Key: acct}, {Op: OpMapGet, Name: mapB, Key: acct}}}})
		if !ok || resp.Status != StatusOK || len(resp.TxResults) != 2 {
			t.Fatalf("ledger read for %s: %+v", acct, resp)
		}
		a, errA := DecodeInt64(resp.TxResults[0].Value)
		b, errB := DecodeInt64(resp.TxResults[1].Value)
		if errA != nil || errB != nil || a+b != 0 || b != rounds {
			t.Errorf("ledger of %s: %d on %s, %d on %s; want -%d and %d", acct, a, mapA, b, mapB, rounds, rounds)
		}
	}
}

// exchangeOwnRequests is one goroutine of the drill: each round sends one
// frame of every kind, each built so that its reply names it — the
// goroutine's own keys and values, its own running counter and account
// balances, its op counts — and checks that reply.
func exchangeOwnRequests(t *testing.T, w *wireConn, g, rounds int, mapA, mapB string) {
	ctr, acct := fmt.Sprintf("ctr-%02d", g), fmt.Sprintf("acct-%02d", g)
	var sum int64
	for i := 0; i < rounds; i++ {
		key := fmt.Sprintf("g%02d-%03d", g, i)
		check := func(what string, resp Response, ok bool, want func(Response) bool) {
			if ok && !want(resp) {
				t.Errorf("goroutine %d round %d, %s: reply %+v answers another request", g, i, what, resp)
			}
		}
		gotKey := func(r TxResult) bool { return r.Found && string(r.Value) == key }

		// A point put and a get of the goroutine's own key: a shard's batcher.
		resp, ok := w.call(Request{Op: OpMapPut, Name: mapA, Key: key, Value: []byte(key)})
		check("MapPut", resp, ok, func(r Response) bool { return r.Status == StatusOK && r.Value == nil })
		resp, ok = w.call(Request{Op: OpMapGet, Name: mapA, Key: key})
		check("MapGet", resp, ok, func(r Response) bool {
			return r.Status == StatusOK && gotKey(TxResult{Found: r.Found, Value: r.Value})
		})

		// A single-shard envelope whose op count varies by round: the
		// reader's envelope scratch is reused at every length.
		gets := 1 + i%4
		ops := []TxOp{{Op: OpMapPut, Name: mapB, Key: key, Value: []byte(key)}}
		for range gets {
			ops = append(ops, TxOp{Op: OpMapGet, Name: mapB, Key: key})
		}
		resp, ok = w.call(Request{Op: OpTx, Tx: &Tx{Ops: ops}})
		check("single-shard envelope", resp, ok, func(r Response) bool {
			if r.Status != StatusOK || len(r.TxResults) != 1+gets {
				return false
			}
			for _, res := range r.TxResults[1:] {
				if !gotKey(res) {
					return false
				}
			}
			return true
		})

		// A read-only envelope over two shards with a counter guard: a
		// read-only cross-shard envelope.
		resp, ok = w.call(Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpMapGet, Name: mapA, Key: key},
			{Op: OpMapGet, Name: mapB, Key: key},
			{Op: OpAssertGE, Name: ctr, Delta: sum},
			{Op: OpCounterSum, Name: ctr},
		}}})
		check("read-only cross-shard envelope", resp, ok, func(r Response) bool {
			return r.Status == StatusOK && len(r.TxResults) == 4 &&
				gotKey(r.TxResults[0]) && gotKey(r.TxResults[1]) && r.TxResults[3].Num == sum
		})

		// A transfer between shards: a cross-shard envelope.
		resp, ok = w.call(Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpMapAdd, Name: mapA, Key: acct, Delta: -1},
			{Op: OpMapAdd, Name: mapB, Key: acct, Delta: 1},
		}}})
		check("transfer", resp, ok, func(r Response) bool {
			return r.Status == StatusOK && len(r.TxResults) == 2 &&
				r.TxResults[0].Num == -int64(i+1) && r.TxResults[1].Num == int64(i+1)
		})

		// A credit, then the multi-shard CounterSum.
		resp, ok = w.call(Request{Op: OpCounterAdd, Name: ctr, Delta: int64(g + 1)})
		check("CounterAdd", resp, ok, func(r Response) bool { return r.Status == StatusOK })
		sum += int64(g + 1)
		resp, ok = w.call(Request{Op: OpCounterSum, Name: ctr})
		check("CounterSum", resp, ok, func(r Response) bool { return r.Status == StatusOK && r.Num == sum })

		// Frames the reader answers itself, keeping its pending.
		resp, ok = w.call(Request{Op: OpPing})
		check("Ping", resp, ok, func(r Response) bool {
			return r.Status == StatusOK && r.Value == nil && r.TxResults == nil
		})
		resp, ok = w.call(Request{Op: OpStats})
		check("Stats", resp, ok, func(r Response) bool { return r.Status == StatusOK && bytes.HasPrefix(r.Value, []byte("{")) })
		resp, ok = w.call(Request{Op: OpTx, Tx: &Tx{}})
		check("empty envelope", resp, ok, func(r Response) bool { return r.Status == StatusOK && r.TxResults == nil })
		for _, bad := range malformedPayloads(w, key) {
			resp, ok = w.send(bad.id, bad.payload)
			check(bad.what, resp, ok, func(r Response) bool { return r.Status == StatusErr && r.Msg != "" })
		}
	}
}

type malformed struct {
	what    string
	id      uint64
	payload []byte
}

// malformedPayloads are request frames the reader refuses at parse time,
// each still carrying its id: an unknown opcode, an envelope whose op list
// is decoded into the reader's scratch before its last sub-op is refused,
// and a truncated body.
func malformedPayloads(w *wireConn, key string) []malformed {
	id1, unknown := w.payload(Request{Op: OpPing})
	unknown[8] = 0xFA
	id2, badSub := w.payload(Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{
		{Op: OpMapPut, Name: "m", Key: key, Value: []byte(key)},
		{Op: OpMapGet, Name: "m", Key: "k"},
	}}})
	badSub[len(badSub)-(1+2+1+2+1+4+8)] = OpPing // the last sub-op's opcode: top-level only
	id3, truncated := w.payload(Request{Op: OpMapGet, Name: "m", Key: key})
	return []malformed{
		{"unknown opcode", id1, unknown},
		{"invalid sub-opcode", id2, badSub},
		{"truncated frame", id3, truncated[:len(truncated)-3]},
	}
}
