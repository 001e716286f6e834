package server

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// The shard loop's ordering rules (D20), asserted on counts and queue
// lengths rather than on timing: a task holds the loop while it runs,
// requests and tasks run in the order they queued — a batch ends at the
// first task queued behind its requests, and tasks keep their order
// whether do or queueAll queued them — and a closed shard answers work
// with an error.

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

// park queues a task that holds sh's loop until the returned release
// runs, and returns once the loop is in it. release runs once, at the
// latest when the test ends: a failed assertion must not leave the loop
// held under the server's Close.
func park(t *testing.T, sh *shard) (release func()) {
	t.Helper()
	parked, resume := make(chan struct{}), make(chan struct{})
	go func() {
		if err := sh.do(func() error {
			close(parked)
			<-resume
			return nil
		}); err != nil {
			t.Error(err)
			close(parked)
		}
	}()
	<-parked
	release = sync.OnceFunc(func() { close(resume) })
	t.Cleanup(release)
	return release
}

// submitAsync queues req on sh and returns where its response arrives;
// it may run on any goroutine.
func submitAsync(t *testing.T, sh *shard, req Request) <-chan Response {
	t.Helper()
	done := make(chan Response, 1)
	if !sh.submit(&pending{req: req, reply: replyFunc(func(r Response) { done <- r })}) {
		t.Error("submit refused")
		done <- Response{Status: StatusErr, Msg: "submit refused"}
	}
	return done
}

// waitQueued yields until n items (requests and tasks) wait in sh's
// queue.
func waitQueued(sh *shard, n int) {
	for len(sh.q) != n {
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

// notAnswered reports an error if done already holds a response.
func notAnswered(t *testing.T, done <-chan Response, what string) {
	t.Helper()
	select {
	case resp := <-done:
		t.Errorf("%s answered while a task held the loop: %+v", what, resp)
	default:
	}
}

// crossPair returns a transfer envelope between shards 0 and 1 of s
// and its plan.
func crossPair(t *testing.T, s *Server, prefix string) (*Request, txPlan) {
	t.Helper()
	names := namesFor(t, prefix, len(s.shards), []int{0, 1})
	req := &Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{
		{Op: OpMapAdd, Name: names[0], Key: "bal", Delta: 1},
		{Op: OpMapAdd, Name: names[1], Key: "bal", Delta: -1},
	}}}
	plan := classifyTx(req.Tx, len(s.shards))
	if plan.kind != planCross {
		t.Fatalf("envelope did not classify as cross: %+v", plan)
	}
	return req, plan
}

// TestShardLoopHoldsBatchesDuringReservation: a request submitted while
// a task holds the loop (the form a reservation takes) stays queued — no
// batch runs — and is answered once the task returns.
func TestShardLoopHoldsBatchesDuringReservation(t *testing.T) {
	sh := newLoopServer(t, 1).shards[0]
	release := park(t, sh)
	before := batchCount(sh)
	done := submitAsync(t, sh, putReq(1, "a"))
	if n := batchCount(sh); n != before || len(sh.q) != 1 {
		t.Fatalf("during the task: %d batches (want %d), %d queued (want 1)", n, before, len(sh.q))
	}
	notAnswered(t, done, "the request")
	release()
	if resp := <-done; resp.Status != StatusOK {
		t.Fatalf("after the task: %+v", resp)
	}
	if n := batchCount(sh); n != before+1 {
		t.Fatalf("after the task: %d batches, want %d", n, before+1)
	}
}

// TestShardLoopReservationBeforeNextBatch: a task (the form a
// reservation takes) that queues while a batch runs goes when that batch
// ends, before a batch of the requests that queued behind it; while it
// runs no batch does, even of requests submitted during it; once it
// returns they are all answered.
func TestShardLoopReservationBeforeNextBatch(t *testing.T) {
	sh := newLoopServer(t, 1).shards[0]
	before := batchCount(sh)

	// Batch A holds the loop in its delivery until proceed closes.
	delivering, gate := make(chan struct{}), make(chan struct{})
	proceed := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(proceed)
	aDone := make(chan Response, 1)
	if !sh.submit(&pending{req: putReq(1, "a"), reply: replyFunc(func(r Response) {
		close(delivering)
		<-gate
		aDone <- r
	})}) {
		t.Fatal("submit refused")
	}
	<-delivering

	var bDone, cDone <-chan Response
	taskDone := make(chan error, 1)
	go func() {
		taskDone <- sh.do(func() error {
			if n := batchCount(sh); n != before+1 || len(sh.q) != 1 {
				t.Errorf("task ran after %d batches with %d queued, want 1 and 1", n-before, len(sh.q))
			}
			cDone = submitAsync(t, sh, putReq(3, "c"))
			notAnswered(t, bDone, "the batch behind the task")
			notAnswered(t, cDone, "a request submitted during the task")
			if n := batchCount(sh); n != before+1 {
				t.Errorf("%d batches ran during the task, want none", n-before-1)
			}
			return nil
		})
	}()
	waitQueued(sh, 1)
	bDone = submitAsync(t, sh, putReq(2, "b"))
	proceed()
	if err := <-taskDone; err != nil {
		t.Fatal(err)
	}
	for _, done := range []<-chan Response{aDone, bDone, cDone} {
		if resp := <-done; resp.Status != StatusOK {
			t.Fatalf("response %+v", resp)
		}
	}
}

// TestShardLoopBatchAfterWaitingTasks: the loop runs its queue in
// arrival order, so a task one task queues goes behind the requests
// already waiting. Task T1 and request R queue while a batch holds the
// loop, and T1 queues T2: the order is T1, R's batch, T2, so tasks that
// each queue the next cannot starve the batches.
func TestShardLoopBatchAfterWaitingTasks(t *testing.T) {
	sh := newLoopServer(t, 1).shards[0]

	// Batch A holds the loop in its delivery until proceed runs, so T1
	// and R queue behind it in that order.
	delivering, gate := make(chan struct{}), make(chan struct{})
	proceed := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(proceed)
	if !sh.submit(&pending{req: putReq(1, "a"), reply: replyFunc(func(Response) {
		close(delivering)
		<-gate
	})}) {
		t.Fatal("submit refused")
	}
	<-delivering

	order := make(chan string, 3)
	if !sh.enqueue(func() {
		order <- "T1"
		if !sh.enqueue(func() { order <- "T2" }) {
			t.Error("T1 could not queue T2")
			order <- "no T2"
		}
	}) {
		t.Fatal("enqueue refused")
	}
	if !sh.submit(&pending{req: putReq(2, "r"), reply: replyFunc(func(r Response) {
		if r.Status != StatusOK {
			t.Errorf("R: %+v", r)
		}
		order <- "R"
	})}) {
		t.Fatal("submit refused")
	}
	proceed()
	got := []string{<-order, <-order, <-order}
	if want := []string{"T1", "R", "T2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestShardLoopTasksInArrivalOrder: tasks waiting behind a running one
// run one at a time, in the order they queued, whether do or queueAll
// queued them.
func TestShardLoopTasksInArrivalOrder(t *testing.T) {
	s := newLoopServer(t, 2)
	sh := s.shards[0]
	release := park(t, sh)
	const waiters = 6
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		if i%2 == 0 {
			if err := s.queueAll([]int{0, 1}, nil, func(q *shard) {
				if q == sh {
					order <- i
					wg.Done()
				}
			}); err != nil {
				t.Fatal(err)
			}
		} else {
			go func() {
				defer wg.Done()
				if err := sh.do(func() error { order <- i; return nil }); err != nil {
					t.Error(err)
				}
			}()
		}
		waitQueued(sh, i)
	}
	release()
	wg.Wait()
	close(order)
	want := 1
	for got := range order {
		if got != want {
			t.Fatalf("task %d ran in position %d", got, want)
		}
		want++
	}
}

// TestShardLoopClosedShardRefuses: work offered to a closed shard gets an
// error, not a hang — a task, a replica's record, a set of tasks one of
// whose shards has closed (which queues nothing on the others, and
// draws no GSN), a cross-shard envelope, and Export after Close.
func TestShardLoopClosedShardRefuses(t *testing.T) {
	s := newLoopServer(t, 2)
	req, plan := crossPair(t, s, "cl")

	// Shard 1 refuses new work the way a closing shard does.
	sh1 := s.shards[1]
	sh1.smu.Lock()
	sh1.stopped.Store(true)
	sh1.smu.Unlock()
	gsn := s.gsn.Load()
	release := park(t, s.shards[0])
	if err := s.queueAll([]int{0, 1}, new(uint64), func(*shard) {}); !errors.Is(err, errShardClosed) {
		t.Fatalf("queueAll with a closing shard: %v, want errShardClosed", err)
	}
	done := make(chan Response, 1)
	s.commitCrossShard(req, plan, func(r Response) { done <- r })
	if resp := <-done; resp.Status != StatusErr || resp.Msg != "server closing" {
		t.Fatalf("envelope with a closing participant: %+v", resp)
	}
	if n := len(s.shards[0].q); n != 0 || s.gsn.Load() != gsn {
		t.Fatalf("refused sets left %d tasks on shard 0 and moved the GSN %d → %d", n, gsn, s.gsn.Load())
	}
	release()
	if err := s.shards[0].do(func() error { return nil }); err != nil {
		t.Fatalf("shard 0 after the refused envelope: %v", err)
	}

	s.Close()
	body, err := AppendRequest(nil, &Request{Op: OpMapPut, Name: "m", Key: "k", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.shards {
		if err := sh.do(func() error { return nil }); !errors.Is(err, errShardClosed) {
			t.Errorf("shard %d: task after Close: %v, want errShardClosed", sh.id, err)
		}
		if err := sh.applyShipped(body); !errors.Is(err, errShardClosed) {
			t.Errorf("shard %d: replica record after Close: %v, want errShardClosed", sh.id, err)
		}
		if err := s.queueAll([]int{sh.id}, nil, func(*shard) {}); !errors.Is(err, errShardClosed) {
			t.Errorf("shard %d: queueAll after Close: %v, want errShardClosed", sh.id, err)
		}
	}
	if _, _, err := s.Export(); !errors.Is(err, errShardClosed) {
		t.Errorf("Export after Close: %v, want errShardClosed", err)
	}
}

// TestShardLoopCloseWithPartnerWaiting: Close returns while a cross-shard
// envelope's task on shard 0 waits for its partner's task on shard 1,
// which is queued behind a task holding shard 1's loop; the partner
// still runs, so the envelope commits.
func TestShardLoopCloseWithPartnerWaiting(t *testing.T) {
	s := newLoopServer(t, 2)
	req, plan := crossPair(t, s, "cw")
	release := park(t, s.shards[1])
	resp := make(chan Response, 1)
	s.commitCrossShard(req, plan, func(r Response) { resp <- r })
	// Shard 0's loop has taken its task; shard 1's waits behind the park.
	waitQueued(s.shards[0], 0)
	waitQueued(s.shards[1], 1)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	release()
	<-closed
	if r := <-resp; r.Status != StatusOK {
		t.Fatalf("envelope: %+v", r)
	}
}

// TestShardLoopCloseRunsTaskFailsRequestBehind: Close while a batch holds
// the loop — a batch whose window a queued task ended — with a request
// queued behind that task. The batch's request is answered, the task
// still runs, and the request behind it gets "server closing".
func TestShardLoopCloseRunsTaskFailsRequestBehind(t *testing.T) {
	s, err := New(Config{Workers: 2, MaxBatch: 4, BatchDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	sh := s.shards[0]

	delivering, gate := make(chan struct{}), make(chan struct{})
	proceed := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(proceed)
	first := make(chan Response, 1)
	if !sh.submit(&pending{req: putReq(1, "a"), reply: replyFunc(func(r Response) {
		close(delivering)
		<-gate
		first <- r
	})}) {
		t.Fatal("submit refused")
	}
	waitQueued(sh, 0) // the request waits in its batch's window
	ran := make(chan struct{})
	if !sh.enqueue(func() { close(ran) }) {
		t.Fatal("enqueue refused")
	}
	<-delivering // the task ended the window
	behind := submitAsync(t, sh, putReq(2, "b"))
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for !sh.stopped.Load() {
		runtime.Gosched()
	}
	proceed()
	<-closed
	if r := <-first; r.Status != StatusOK {
		t.Fatalf("the batch's request: %+v", r)
	}
	select {
	case <-ran:
	default:
		t.Fatal("the task queued before Close did not run")
	}
	if r := <-behind; r.Status != StatusErr || r.Msg != "server closing" {
		t.Fatalf("the request behind the task: %+v, want \"server closing\"", r)
	}
}

// TestCrossShardReadOnlyEnvelopeMissesLaterWrites: a read-only envelope
// R over shards A and B is ordered in real time against single-shard
// writes. B's loop holds a batch window open around a put W when R
// queues, and R's slice on A runs at once. Then X puts A.v and is
// acknowledged, and only then does Y put B.v (each with a filler that
// fills its batch). Y queues behind R on B, so R sees neither X nor Y.
// With requests and tasks on separate queues, B's open batch took Y
// ahead of R, and R saw Y but not X.
func TestCrossShardReadOnlyEnvelopeMissesLaterWrites(t *testing.T) {
	s, err := New(Config{Shards: 2, Workers: 2, MaxBatch: 2, BatchDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	names := namesFor(t, "rt", 2, []int{0, 1})
	a, b := s.shards[0], s.shards[1]
	put := func(sh *shard, key string) <-chan Response {
		return submitAsync(t, sh, Request{Op: OpMapPut, Name: names[sh.id], Key: key, Value: []byte("v")})
	}

	w := put(b, "w")
	waitQueued(b, 0) // W waits in its batch's window
	req := &Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{
		{Op: OpMapGet, Name: names[0], Key: "v"},
		{Op: OpMapGet, Name: names[1], Key: "v"},
	}}}
	plan := classifyTx(req.Tx, len(s.shards))
	if plan.kind != planCross || !plan.readOnly {
		t.Fatalf("envelope did not classify as a read-only cross plan: %+v", plan)
	}
	read := make(chan Response, 1)
	s.commitCrossShard(req, plan, func(r Response) { read <- r })
	if err := a.do(func() error { return nil }); err != nil {
		t.Fatal(err) // R's slice on A has run
	}
	x := put(a, "v")
	put(a, "filler")
	if r := <-x; r.Status != StatusOK {
		t.Fatalf("X: %+v", r)
	}
	y := put(b, "v")
	put(b, "filler")

	r := <-read
	if r.Status != StatusOK || len(r.TxResults) != 2 {
		t.Fatalf("R: %+v", r)
	}
	if r.TxResults[0].Found || r.TxResults[1].Found {
		t.Fatalf("R saw A.v %v and B.v %v, want neither: Y was sent after X's ack, and X after R's slice on A",
			r.TxResults[0].Found, r.TxResults[1].Found)
	}
	for _, done := range []<-chan Response{w, y} {
		if resp := <-done; resp.Status != StatusOK {
			t.Fatalf("put: %+v", resp)
		}
	}
}

// TestKeptEnvelopeResultsSurviveLaterBatches keeps the Response copies of
// one batch of envelopes, as a connection's writer holds them until it
// encodes them, while 300 more envelope batches run on the same loop. The
// result slots of every envelope come from the loop's slab
// (batchRun.carveResults), which is replaced when full and never written
// again: every kept result must still read as it was delivered.
func TestKeptEnvelopeResultsSurviveLaterBatches(t *testing.T) {
	s := newLoopServer(t, 1)
	sh := s.shards[0]
	envelope := func(id uint64, k int, delta int64) Request {
		key := fmt.Sprintf("k%03d", k)
		return Request{ID: id, Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpMapAdd, Name: "m", Key: key, Delta: delta},
			{Op: OpMapGet, Name: "m", Key: key},
			{Op: OpCounterAdd, Name: "c", Delta: delta},
		}}}
	}

	// One batch of 8 envelopes, queued while the loop is held.
	release := park(t, sh)
	before := batchCount(sh)
	var dones []<-chan Response
	for k := range 8 {
		dones = append(dones, submitAsync(t, sh, envelope(uint64(k+1), k, int64(1000+k))))
	}
	waitQueued(sh, len(dones))
	release()
	kept := make([]Response, len(dones))
	want := make([][]TxResult, len(dones))
	for k, done := range dones {
		kept[k] = <-done
		rs := kept[k].TxResults
		if kept[k].Status != StatusOK || len(rs) != 3 || rs[0].Num != int64(1000+k) ||
			!rs[1].Found || !bytes.Equal(rs[1].Value, EncodeInt64(int64(1000+k))) {
			t.Fatalf("envelope %d = %+v", k, kept[k])
		}
		want[k] = slices.Clone(rs)
		for i := range want[k] {
			want[k][i].Value = bytes.Clone(rs[i].Value)
		}
	}
	if n := batchCount(sh) - before; n != 1 {
		t.Fatalf("the 8 envelopes ran in %d batches, want 1", n)
	}

	// 300 batches more, 900 result slots: the slab is replaced 7 times.
	for i := range 300 {
		if resp := <-submitAsync(t, sh, envelope(uint64(100+i), 8+i%64, int64(i+1))); resp.Status != StatusOK {
			t.Fatalf("batch %d: %+v", i, resp)
		}
	}
	for k := range kept {
		if !reflect.DeepEqual(kept[k].TxResults, want[k]) {
			t.Errorf("envelope %d's delivered results changed under later batches:\n  got  %+v\n  want %+v", k, kept[k].TxResults, want[k])
		}
	}
}
