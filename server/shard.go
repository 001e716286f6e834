package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pnstm"
	"pnstm/internal/metrics"
	"pnstm/internal/wal"
	"pnstm/stmlib"
)

// shard is one engine partition: a private runtime, structure registry,
// loop and (durable servers) write-ahead log. Shards share nothing —
// group commits on different shards run fully in parallel, fsyncs
// included.
//
// The shard is one goroutine (loop, D20) reading one FIFO queue. Each
// item is a request or a task — a checkpoint's capture, an Export's, a
// replica's image swap or shipped record, a reaper's scan, or one
// shard's part of a cross-shard envelope — and the loop runs the work
// in arrival order, one item to its end before the next: consecutive
// requests form one batch (root, log, acks), and a task runs alone.
// Tasks queued on several shards at once share one order (queueAll).
// Every root on the shard's live registry runs here.
type shard struct {
	id  int
	rt  *pnstm.Runtime
	reg *stmlib.Registry
	wal *wal.Log                // nil without DataDir
	cfg *atomic.Pointer[Config] // the server's configuration
	obs *batchObs               // nil: uninstrumented

	q    chan item // arrivals, in order; closed by close
	done chan struct{}

	// smu/stopped fence put against close (see put); the loop reads
	// stopped alone, to fail the requests still queued at close.
	smu     sync.RWMutex
	stopped atomic.Bool

	mu       sync.Mutex
	batches  uint64
	requests uint64
	largest  int

	// maxGSN is the highest cross-shard GSN this shard's log holds a
	// record for (D30) — snapshots capture it as their watermark so
	// recovery can tell "this GSN's record was truncated by a
	// checkpoint" from "this shard never logged it".
	maxGSN atomic.Uint64
}

// item is one arrival on a shard's queue: a request (p) or a task.
type item struct {
	p    *pending
	task func()
}

// errShardClosed answers work offered to a shard whose loop has stopped.
var errShardClosed = errors.New("server: shard closed")

// start runs the shard's loop. Recovery replays the log before this,
// straight through applyRecord.
func (sh *shard) start() {
	// The queue buffer is sized off the boot MaxBatch and stays fixed:
	// raising the knob live still works (collect drains whatever is
	// queued), the channel is just a smaller staging area. Past it,
	// senders block in order, so a connection pipelining cross-shard
	// envelopes is held back the way one pipelining point requests is.
	sh.q = make(chan item, 4*sh.cfg.Load().MaxBatch)
	sh.done = make(chan struct{})
	go sh.loop()
}

// put queues it behind everything already queued; false once the shard
// is shutting down. The smu/stopped handshake makes every successful
// send happen before close closes the queue, so the loop's range sees
// it, and nothing is sent on a closed queue.
func (sh *shard) put(it item) bool {
	sh.smu.RLock()
	defer sh.smu.RUnlock()
	if sh.stopped.Load() {
		return false
	}
	sh.q <- it
	return true
}

// submit hands a request to the loop; false when the shard is shutting
// down (callers answer StatusErr themselves).
func (sh *shard) submit(p *pending) bool { return sh.put(item{p: p}) }

// submitOrFail is submit for callers with nothing else to do on refusal:
// a request the shard will not take is answered "server closing".
func (sh *shard) submitOrFail(p *pending) {
	if !sh.submit(p) {
		p.finish(Response{ID: p.req.ID, Status: StatusErr, Msg: "server closing"})
	}
}

// enqueue queues t for the loop; false when the shard is shutting down.
// A queued task always runs, after close included.
func (sh *shard) enqueue(t func()) bool { return sh.put(item{task: t}) }

// do runs f as a task on the loop and returns its result: f holds a
// position between two group commits in this shard's commit order — a
// checkpoint's capture, a replica's image swap or shipped record, a
// reaper's scan. errShardClosed once the shard is shutting down.
func (sh *shard) do(f func() error) error {
	errc := make(chan error, 1)
	if !sh.enqueue(func() { errc <- f() }) {
		return errShardClosed
	}
	return <-errc
}

// applyShipped applies a record shipped from the primary on the loop,
// between two read batches (shard.applyRecord).
func (sh *shard) applyShipped(body []byte) error {
	return sh.do(func() error { return sh.applyRecord(body, nil) })
}

// queueAll queues task once on each shard in ids, as one item in the
// single order all shards share (D20): the calls are serialized by
// queueMu, so the tasks of any two calls sit in the same relative order
// on every shard both touch. Each task first waits until its call has
// queued them all, so nothing queued on one shard after a partner's task
// has run can overtake the task on another: the shared order is also
// real-time order. A task may wait on the other tasks of its own call,
// never on anything queued later, so no tasks wait on each other in a
// ring — which is also why holding queueMu while a full queue blocks the
// send is safe: every loop ahead of a task keeps draining. The sends go
// under the fences this call holds, not through put, whose second read
// lock would wait behind a pending close. With gsn non-nil the next GSN
// is drawn into it first, so each shard's log holds its GSN records in
// increasing order (D30). If any shard has stopped, nothing is queued
// and the result is errShardClosed.
func (s *Server) queueAll(ids []int, gsn *uint64, task func(*shard)) error {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	for _, id := range ids {
		sh := s.shards[id]
		sh.smu.RLock()
		defer sh.smu.RUnlock()
		if sh.stopped.Load() {
			return errShardClosed
		}
	}
	if gsn != nil {
		*gsn = s.gsn.Add(1)
	}
	placed := make(chan struct{})
	defer close(placed)
	for _, id := range ids {
		sh := s.shards[id]
		sh.q <- item{task: func() { <-placed; task(sh) }}
	}
	return nil
}

// close stops the loop: tasks already queued still run, requests still
// queued fail with "server closing". Setting stopped under the write
// lock waits out every in-flight put — the loop is still consuming, so
// those sends cannot block indefinitely — and then nothing more can be
// sent, so the queue can close.
func (sh *shard) close() {
	sh.smu.Lock()
	sh.stopped.Store(true)
	close(sh.q)
	sh.smu.Unlock()
	<-sh.done
}

// loop runs the queue in arrival order: a task alone, a request with the
// requests queued behind it as one batch, then the task that ended the
// batch, if one did.
func (sh *shard) loop() {
	defer close(sh.done)
	r := newBatchRun(nil, sh.wal)
	r.shardID = uint8(sh.id)
	for it := range sh.q {
		switch {
		case it.task != nil:
			it.task()
		case sh.stopped.Load():
			it.p.finish(Response{ID: it.p.req.ID, Status: StatusErr, Msg: "server closing"})
		default:
			if t := sh.runBatch(r, it.p); t != nil {
				t()
			}
		}
	}
}

// runBatch collects a batch around first and runs it as a single root
// transaction, makes it durable and delivers every response. It returns
// the task that ended the batch, if one did; the loop runs it next.
func (sh *shard) runBatch(r *batchRun, first *pending) (next func()) {
	formStart := time.Now()
	// A batch loads the registry and the configuration once, when it is
	// collected: a PUT /config retunes a running shard at the next batch
	// boundary, and a batch never sees two configurations.
	r.reg, r.cfg = sh.reg, sh.cfg.Load()
	next = sh.collect(r, first)
	sh.obs.observeBatch(len(r.batch), time.Since(formStart))
	batch := r.batch

	r.carveResults()
	r.seq.Store(0)
	r.traced = sh.rt.TracingEnabled()
	if r.traced {
		r.batchID++
	}
	if err := sh.rt.Run(r.root); err != nil {
		// Run fails only with ErrClosed, and Close, Kill and New's
		// teardown close a shard's runtime only after its loop has
		// stopped: a bug alone gets here.
		panic(fmt.Sprintf("server: shard %d: batch root: %v", sh.id, err))
	}

	// Make the batch durable before any of its acks leave: one record,
	// one fsync, covering every mutating request in commit order.
	if sh.wal != nil {
		if werr := r.logBatch(wal.MaxBody); werr != nil {
			// The store applied the batch but the log did not: nothing
			// acked here may claim durability, so every request fails.
			// The wal latches itself shut on append failure (memory is
			// now ahead of the durable history, and logging further
			// batches over the hole would recover divergent state), so
			// subsequent mutating batches fail too until a restart
			// re-opens a consistent prefix.
			for _, p := range batch {
				p.resp = Response{ID: p.req.ID, Status: StatusErr, Msg: "wal: " + werr.Error()}
			}
		}
	}

	sh.mu.Lock()
	sh.batches++
	sh.requests += uint64(len(batch))
	if len(batch) > sh.largest {
		sh.largest = len(batch)
	}
	sh.mu.Unlock()

	for i, p := range batch {
		resp := p.resp
		resp.ID = p.req.ID
		if resp.Status == 0 {
			resp = Response{ID: p.req.ID, Status: StatusErr, Msg: "internal: request not executed"}
		}
		if resp.Status == StatusRejected {
			sh.obs.observeRejected()
		}
		batch[i] = nil // the run must not keep the request alive
		p.finish(resp)
		if _, fromReader := p.reply.(*conn); fromReader {
			p.release() // the writer got its own copy of resp
		}
	}
	return next
}

// collect gathers a batch around the first request: the requests queued
// behind it, then — if there is still room — those that arrive within
// the batching window. A zero window means "only what is already in
// flight", which keeps unloaded latency at the floor while still
// group-committing under concurrency. The first task behind the requests
// ends the batch; collect returns it (nil if none did), so it runs before
// anything queued after it.
func (sh *shard) collect(r *batchRun, first *pending) func() {
	maxBatch, delay := r.cfg.MaxBatch, r.cfg.BatchDelay
	r.batch = append(r.batch[:0], first)
	var window <-chan time.Time // nil until the queue runs dry
	for len(r.batch) < maxBatch {
		var it item
		select {
		case it = <-sh.q:
		default:
			if delay <= 0 {
				return nil
			}
			if window == nil {
				timer := time.NewTimer(delay)
				defer timer.Stop()
				window = timer.C
			}
			select {
			case it = <-sh.q:
			case <-window:
				return nil
			}
		}
		if it.p == nil {
			return it.task // nil once the queue is closed
		}
		r.batch = append(r.batch, it.p)
	}
	return nil
}

// stats is the shard's contribution to ServerStats.
func (sh *shard) stats() (batches, requests uint64, mean float64, largest int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.batches > 0 {
		mean = float64(sh.requests) / float64(sh.batches)
	}
	return sh.batches, sh.requests, mean, sh.largest
}

// batchObs is the loop's instrumentation hooks; a nil *batchObs
// disables them (shards built directly in tests).
type batchObs struct {
	size     *metrics.Histogram // batch occupancy (requests per group commit)
	form     *metrics.Histogram // µs from first request to batch launch
	rejected *metrics.Counter   // StatusRejected responses (guard failures)
}

func (o *batchObs) observeBatch(size int, formed time.Duration) {
	if o == nil {
		return
	}
	o.size.Observe(float64(size))
	o.form.ObserveDuration(formed)
}

func (o *batchObs) observeRejected() {
	if o != nil {
		o.rejected.Inc()
	}
}
