package server

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// The shard loop's ordering rules (D20), asserted on counts and queue
// lengths rather than on timing: a reservation parks the loop, a waiting
// reservation goes before the next batch, reservations are granted in
// the order they queued, and a closed shard answers work with an error.

// newLoopServer returns an in-memory server of n shards whose loops run,
// with no listener.
func newLoopServer(t *testing.T, shards int) *Server {
	t.Helper()
	s, err := New(Config{Shards: shards, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// released wraps a reservation's release so that it runs once, at the
// latest when the test ends: a failed assertion must not leave the loop
// parked under the server's Close.
func released(t *testing.T, release func()) func() {
	once := sync.OnceFunc(release)
	t.Cleanup(once)
	return once
}

// submitAsync queues req on sh and returns where its response arrives.
func submitAsync(t *testing.T, sh *shard, req Request) <-chan Response {
	t.Helper()
	done := make(chan Response, 1)
	if !sh.submit(&pending{req: req, reply: replyFunc(func(r Response) { done <- r })}) {
		t.Fatal("submit refused")
	}
	return done
}

// waitQueued yields until n tasks wait in sh's queue.
func waitQueued(sh *shard, n int) {
	for len(sh.tasks) != n {
		runtime.Gosched()
	}
}

func batchCount(sh *shard) uint64 {
	n, _, _, _ := sh.stats()
	return n
}

func putReq(id uint64, key string) Request {
	return Request{ID: id, Op: OpMapPut, Name: "m", Key: key, Value: []byte("v")}
}

// notAnswered fails the test if done already holds a response.
func notAnswered(t *testing.T, done <-chan Response, what string) {
	t.Helper()
	select {
	case resp := <-done:
		t.Fatalf("%s answered while the loop was parked: %+v", what, resp)
	default:
	}
}

// TestShardLoopHoldsBatchesDuringReservation: a request submitted while a
// reservation is held stays queued — no batch runs — and is answered once
// the reservation is released.
func TestShardLoopHoldsBatchesDuringReservation(t *testing.T) {
	sh := newLoopServer(t, 1).shards[0]
	release, err := sh.pauseCommits()
	if err != nil {
		t.Fatal(err)
	}
	release = released(t, release)
	before := batchCount(sh)
	done := submitAsync(t, sh, putReq(1, "a"))
	if n := batchCount(sh); n != before || len(sh.in) != 1 {
		t.Fatalf("during the reservation: %d batches (want %d), %d queued (want 1)", n, before, len(sh.in))
	}
	notAnswered(t, done, "the request")
	release()
	if resp := <-done; resp.Status != StatusOK {
		t.Fatalf("after release: %+v", resp)
	}
	if n := batchCount(sh); n != before+1 {
		t.Fatalf("after release: %d batches, want %d", n, before+1)
	}
}

// TestShardLoopReservationBeforeNextBatch: a reservation that queues
// while a batch runs is granted when that batch ends, before a batch of
// the requests that queued behind it.
func TestShardLoopReservationBeforeNextBatch(t *testing.T) {
	sh := newLoopServer(t, 1).shards[0]
	before := batchCount(sh)

	// Batch A holds the loop in its delivery until proceed closes.
	delivering, gate := make(chan struct{}), make(chan struct{})
	proceed := released(t, func() { close(gate) })
	aDone := make(chan Response, 1)
	if !sh.submit(&pending{req: putReq(1, "a"), reply: replyFunc(func(r Response) {
		close(delivering)
		<-gate
		aDone <- r
	})}) {
		t.Fatal("submit refused")
	}
	<-delivering

	granted := make(chan func(), 1)
	go func() {
		release, err := sh.pauseCommits()
		if err != nil {
			t.Error(err)
			release = func() {}
		}
		granted <- release
	}()
	waitQueued(sh, 1)
	bDone := submitAsync(t, sh, putReq(2, "b"))
	proceed()

	release := released(t, <-granted)
	if n := batchCount(sh); n != before+1 || len(sh.in) != 1 {
		t.Fatalf("reservation granted after %d batches with %d queued, want %d and 1", n-before, len(sh.in), 1)
	}
	notAnswered(t, bDone, "the batch behind the reservation")
	release()
	for _, done := range []<-chan Response{aDone, bDone} {
		if resp := <-done; resp.Status != StatusOK {
			t.Fatalf("response %+v", resp)
		}
	}
	if n := batchCount(sh); n != before+2 {
		t.Fatalf("%d batches, want %d", n-before, 2)
	}
}

// TestShardLoopReservationsInArrivalOrder: reservations waiting behind a
// held one are granted one at a time, in the order they queued.
func TestShardLoopReservationsInArrivalOrder(t *testing.T) {
	sh := newLoopServer(t, 1).shards[0]
	hold, err := sh.pauseCommits()
	if err != nil {
		t.Fatal(err)
	}
	hold = released(t, hold)
	const waiters = 4
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := sh.pauseCommits()
			if err != nil {
				t.Error(err)
				return
			}
			order <- i
			release()
		}()
		waitQueued(sh, i)
	}
	hold()
	wg.Wait()
	close(order)
	want := 1
	for got := range order {
		if got != want {
			t.Fatalf("reservation %d granted in position %d", got, want)
		}
		want++
	}
}

// TestShardLoopClosedShardRefuses: work offered to a closed shard gets an
// error, not a hang — a reservation, a replica's record, Export after
// Close, and a coordinator whose second participant has closed, which
// releases the first.
func TestShardLoopClosedShardRefuses(t *testing.T) {
	s := newLoopServer(t, 2)
	names := namesFor(t, "cl", 2, []int{0, 1})
	req := &Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{
		{Op: OpMapAdd, Name: names[0], Key: "bal", Delta: 1},
		{Op: OpMapAdd, Name: names[1], Key: "bal", Delta: -1},
	}}}
	plan := classifyTx(req.Tx, 2)
	if plan.kind != planCross {
		t.Fatalf("envelope did not classify as cross: %+v", plan)
	}

	// Shard 1 refuses new work the way a closing shard does.
	sh1 := s.shards[1]
	sh1.smu.Lock()
	sh1.stopped = true
	sh1.smu.Unlock()
	if resp := s.runCrossShard(req, &plan); resp.Status != StatusErr || resp.Msg != "server closing" {
		t.Fatalf("coordinator with a closing participant: %+v", resp)
	}
	release, err := s.shards[0].pauseCommits()
	if err != nil {
		t.Fatalf("shard 0 after the refused coordinator: %v", err)
	}
	release()

	s.Close()
	body, err := AppendRequest(nil, &Request{Op: OpMapPut, Name: "m", Key: "k", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.shards {
		if _, err := sh.pauseCommits(); !errors.Is(err, errShardClosed) {
			t.Errorf("shard %d: reservation after Close: %v, want errShardClosed", sh.id, err)
		}
		if err := sh.applyShipped(body); !errors.Is(err, errShardClosed) {
			t.Errorf("shard %d: replica record after Close: %v, want errShardClosed", sh.id, err)
		}
	}
	if _, _, err := s.Export(); !errors.Is(err, errShardClosed) {
		t.Errorf("Export after Close: %v, want errShardClosed", err)
	}
}

// TestShardLoopCloseWithCoordinatorWaiting: Close returns while a
// cross-shard coordinator holds its reservation on shard 0 and waits for
// shard 1; its queued reservation still runs, so the envelope commits.
func TestShardLoopCloseWithCoordinatorWaiting(t *testing.T) {
	s := newLoopServer(t, 2)
	names := namesFor(t, "cw", 2, []int{0, 1})
	req := &Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{
		{Op: OpMapAdd, Name: names[0], Key: "bal", Delta: 1},
		{Op: OpMapAdd, Name: names[1], Key: "bal", Delta: -1},
	}}}
	plan := classifyTx(req.Tx, 2)
	if plan.kind != planCross {
		t.Fatalf("envelope did not classify as cross: %+v", plan)
	}
	hold, err := s.shards[1].pauseCommits()
	if err != nil {
		t.Fatal(err)
	}
	hold = released(t, hold)
	resp := make(chan Response, 1)
	go func() { resp <- s.runCrossShard(req, &plan) }()
	// Participants are taken in ascending id: one reservation queued on
	// shard 1 means the coordinator holds shard 0.
	waitQueued(s.shards[1], 1)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	hold()
	<-closed
	if r := <-resp; r.Status != StatusOK {
		t.Fatalf("coordinator: %+v", r)
	}
}
