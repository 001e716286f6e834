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
// The shard is one goroutine (loop, D20). It takes one work item at a
// time and runs it to its end before it takes the next: a batch of
// requests (root, log, acks) or a task — a checkpoint's capture, an
// Export's, a replica's image swap or shipped record, a reaper's scan,
// or one shard's part of a cross-shard envelope. At each boundary the
// tasks already waiting run first, then a waiting batch, then whichever
// item arrives; tasks run in the order they were queued, and tasks
// queued on several shards at once share one order (queueAll). Every
// root on the shard's live registry runs here.
type shard struct {
	id  int
	rt  *pnstm.Runtime
	reg *stmlib.Registry
	wal *wal.Log                // nil without DataDir
	cfg *atomic.Pointer[Config] // the server's configuration
	obs *batchObs               // nil: uninstrumented

	in    chan *pending // requests, collected into batches
	tasks chan func()   // work that is not a batch, in arrival order
	stop  chan struct{}
	done  chan struct{}

	// smu/stopped fence submit and enqueue against close: see submit.
	smu     sync.RWMutex
	stopped bool

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

// errShardClosed answers work offered to a shard whose loop has stopped.
var errShardClosed = errors.New("server: shard closed")

// start runs the shard's loop. Recovery replays the log before this,
// straight through applyRecord.
func (sh *shard) start() {
	// The queue buffer is sized off the boot MaxBatch and stays fixed:
	// raising the knob live still works (collect drains whatever is
	// queued), the channel is just a smaller staging area.
	sh.in = make(chan *pending, 4*sh.cfg.Load().MaxBatch)
	// Tasks come from do, Export and cross-shard envelopes. The buffer
	// lets a test see what is queued; past 16, senders block in order,
	// so a connection pipelining cross-shard envelopes is held back the
	// way a full in holds back point requests.
	sh.tasks = make(chan func(), 16)
	sh.stop = make(chan struct{})
	sh.done = make(chan struct{})
	go sh.loop()
}

// submit hands a request to the loop; returns false when the shard is
// shutting down (callers answer StatusErr themselves). The smu/stopped
// handshake makes every successful send happen-before close's stop
// signal — so the loop's final drain pass provably sees it, and no
// request can slip into the queue after the drain and hang unanswered.
func (sh *shard) submit(p *pending) bool {
	sh.smu.RLock()
	defer sh.smu.RUnlock()
	if sh.stopped {
		return false
	}
	sh.in <- p
	return true
}

// submitOrFail is submit for callers with nothing else to do on refusal:
// a request the shard will not take is answered "server closing".
func (sh *shard) submitOrFail(p *pending) {
	if !sh.submit(p) {
		p.finish(Response{ID: p.req.ID, Status: StatusErr, Msg: "server closing"})
	}
}

// enqueue queues t for the loop, behind the tasks already waiting; it
// runs at the next boundary, or after at most one batch when tasks are
// running as it queues (loop). False when the shard is shutting down. A
// queued task always runs, the loop's final pass included.
func (sh *shard) enqueue(t func()) bool {
	sh.smu.RLock()
	defer sh.smu.RUnlock()
	if sh.stopped {
		return false
	}
	sh.tasks <- t
	return true
}

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
// on every shard both touch. A task may wait on the other tasks of its
// own call, never on anything queued later, so no tasks can wait on each
// other in a ring — which is also why holding queueMu while a full queue
// blocks the send is safe: every loop keeps draining. With gsn non-nil
// the next GSN is drawn into it first, so each shard's log holds its GSN
// records in increasing order (D30). If any shard has stopped, nothing
// is queued and the result is errShardClosed.
func (s *Server) queueAll(ids []int, gsn *uint64, task func(*shard)) error {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	for _, id := range ids {
		sh := s.shards[id]
		sh.smu.RLock()
		defer sh.smu.RUnlock()
		if sh.stopped {
			return errShardClosed
		}
	}
	if gsn != nil {
		*gsn = s.gsn.Add(1)
	}
	for _, id := range ids {
		sh := s.shards[id]
		sh.tasks <- func() { task(sh) }
	}
	return nil
}

// close stops the loop: tasks already queued still run, requests still
// queued are failed. Setting stopped (under the write lock) before
// closing stop waits out every in-flight submit and enqueue — the loop
// is still consuming at that point, so those sends cannot block
// indefinitely.
func (sh *shard) close() {
	sh.smu.Lock()
	sh.stopped = true
	sh.smu.Unlock()
	close(sh.stop)
	<-sh.done
}

func (sh *shard) loop() {
	defer close(sh.done)
	r := newBatchRun(nil, nil, sh.wal)
	r.shardID = uint8(sh.id)
	for {
		// The tasks waiting at this boundary, then a waiting batch: a task
		// that queues meanwhile waits for the next boundary, so neither a
		// stream of tasks nor a stream of requests starves the other.
		for n := len(sh.tasks); n > 0; n-- {
			(<-sh.tasks)()
		}
		select {
		case p := <-sh.in:
			sh.runBatch(r, p)
			continue
		default:
		}
		select {
		case t := <-sh.tasks:
			t()
		case p := <-sh.in:
			sh.runBatch(r, p)
		case <-sh.stop:
			// Drain: nothing is submitted or enqueued once stop is closed,
			// so this empties both queues in one pass.
			for {
				select {
				case t := <-sh.tasks:
					t()
				case p := <-sh.in:
					p.finish(Response{ID: p.req.ID, Status: StatusErr, Msg: "server closing"})
				default:
					return
				}
			}
		}
	}
}

// runBatch collects a batch around first and runs it as a single root
// transaction, makes it durable and delivers every response.
func (sh *shard) runBatch(r *batchRun, first *pending) {
	formStart := time.Now()
	// A batch loads the registry and the configuration once, when it is
	// collected: a PUT /config retunes a running shard at the next batch
	// boundary, and a batch never sees two configurations.
	r.reg, r.cfg = sh.reg, sh.cfg.Load()
	sh.collect(r, first)
	sh.obs.observeBatch(len(r.batch), time.Since(formStart))
	batch := r.batch

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
}

// collect gathers a batch around the first request: everything already
// queued, then — if there is still room — whatever arrives within the
// batching window. A zero window means "only what is already in flight",
// which keeps unloaded latency at the floor while still group-committing
// under concurrency.
func (sh *shard) collect(r *batchRun, first *pending) {
	maxBatch, delay := r.cfg.MaxBatch, r.cfg.BatchDelay
	r.batch = append(r.batch[:0], first)
	for len(r.batch) < maxBatch {
		select {
		case p := <-sh.in:
			r.batch = append(r.batch, p)
			continue
		default:
		}
		break
	}
	if delay <= 0 || len(r.batch) >= maxBatch {
		return
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for len(r.batch) < maxBatch {
		select {
		case p := <-sh.in:
			r.batch = append(r.batch, p)
		case <-timer.C:
			return
		case <-sh.stop:
			return
		}
	}
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
