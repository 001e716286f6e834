package server

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pnstm"
	"pnstm/internal/metrics"
	"pnstm/internal/wal"
	"pnstm/stmlib"
)

// The batching engine is where the paper's mechanism meets the network:
// concurrent in-flight requests are coalesced into a group commit. Each
// batch executes as ONE Runtime.Run root transaction whose body runs one
// nested child transaction per request, forked over parallel blocks via
// Ctx.Parallel — the shape of the paper's Figure 1 and of
// examples/inventory's order batches. The children conflict-check
// against each other with the one-word ancestor test, a request whose
// precondition fails (checkout without stock) rolls back alone as a
// nested abort, and the batch commits as a unit.
//
// Group commit amortizes the root begin/commit and the fork/join over
// the whole batch, and the nested children recruit every worker slot —
// so a server under concurrent load runs the paper's benchmark shape
// continuously. MaxBatch 1 degenerates into serial one-request
// transactions, which is the baseline the load generator compares
// against.
//
// A sharded server runs one batcher PER SHARD, each against its shard's
// private runtime, registry and WAL: the commit-ticket sequence below
// orders requests within one shard's log, and batches on different
// shards — disjoint structure sets by construction — execute, fsync and
// ack fully in parallel.

// pending is one request from socket to reply — the one heap object a
// request costs the server besides what its fields point to: the decoded
// request, its response, the route back to its connection and what the
// latency histogram needs. seq/logged are the durability bookkeeping: seq
// is the request's position in the batch's commit order (stamped inside
// its transaction, see batchRun.apply), logged whether it mutated the
// store and therefore goes to the WAL, where batchRun.logBatch encodes it
// in seq order. A pending belongs to whoever holds it — the connection's
// reader until submit, the batcher until finish — and is never reused.
type pending struct {
	req    Request
	resp   Response
	reply  replier
	lat    *metrics.Histogram // observed at finish; nil: not a timed request
	start  time.Time          // when the request was parsed
	seq    uint64
	logged bool
}

// replier is where a pending's response goes: the connection it came
// from, or a replyFunc for requests minted inside the server.
type replier interface{ deliver(Response) }

// replyFunc adapts a function to replier.
type replyFunc func(Response)

func (f replyFunc) deliver(resp Response) { f(resp) }

// finish sends resp back to where the request came from, first recording
// the request's parse-to-delivery latency — batching delay, execution,
// fsync and response routing included — in its class histogram.
func (p *pending) finish(resp Response) {
	if p.lat != nil {
		p.lat.ObserveSince(p.start)
	}
	p.reply.deliver(resp)
}

// errRejected aborts a request's nested transaction without failing the
// batch (checkout precondition).
var errRejected = errors.New("server: rejected")

// minRequestsPerBlock is the batch size below which forking another
// parallel block is not worth a worker wakeup.
const minRequestsPerBlock = 8

// batcher coalesces submitted requests into group commits.
type batcher struct {
	rt  *pnstm.Runtime
	reg *stmlib.Registry
	wal *wal.Log // nil: in-memory only
	in  chan *pending
	// cfg is the server's configuration pointer. A batch loads it once,
	// when it is collected, so a PUT /config retunes a running shard at
	// the next batch boundary and a batch never sees two configurations.
	cfg  *atomic.Pointer[Config]
	stop chan struct{}
	done chan struct{}

	// smu/stopped fence submit against close: see submit.
	smu     sync.RWMutex
	stopped bool

	// pl bounds concurrent group commits with a live-adjustable limit;
	// see Config.MaxInflight for why the default is 1 (overlapping
	// write-heavy batches can livelock) and when pipelining is worth
	// turning on.
	pl     *pipeline
	execWG sync.WaitGroup

	// idle holds finished batchRuns for the loop to refill, so a batch
	// costs no slice, closure or ticket allocation of its own. Both ends
	// are non-blocking: an empty list means a new batchRun, a full one
	// means the finished run is dropped. One run cycles at the default
	// MaxInflight of 1; the capacity covers pipelined shards.
	idle chan *batchRun

	obs *batchObs // nil: uninstrumented

	// shardID and batchSeq stamp trace identity (D35): with tracing on,
	// every batch draws a ticket and stamps (batch, shard) onto its root
	// context, so a request's events can be followed wire → batch root →
	// nested child → commit/abort across the whole store.
	shardID  uint8
	batchSeq atomic.Uint64

	mu       sync.Mutex
	batches  uint64
	requests uint64
	sizeSum  uint64 // sum of batch sizes (mean = sizeSum / batches)
	largest  int
}

func newBatcher(rt *pnstm.Runtime, reg *stmlib.Registry, wl *wal.Log, cfg *atomic.Pointer[Config]) *batcher {
	boot := cfg.Load()
	b := &batcher{
		rt:  rt,
		reg: reg,
		wal: wl,
		cfg: cfg,
		// The queue buffer is sized off the boot MaxBatch and stays fixed:
		// raising the knob live still works (collect drains whatever is
		// queued), the channel is just a smaller staging area.
		in:   make(chan *pending, 4*boot.MaxBatch),
		pl:   newPipeline(boot.MaxInflight),
		idle: make(chan *batchRun, 8),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// submit hands a request to the batcher; returns false when the batcher
// is shutting down (callers answer StatusErr themselves). The smu/
// stopped handshake makes every successful send happen-before close's
// stop signal — so the loop's final drain pass provably sees it, and no
// request can slip into the queue after the drain and hang unanswered.
func (b *batcher) submit(p *pending) bool {
	b.smu.RLock()
	defer b.smu.RUnlock()
	if b.stopped {
		return false
	}
	select {
	case b.in <- p:
		return true
	case <-b.stop:
		return false
	}
}

// submitOrFail is submit for callers with nothing else to do on refusal:
// a request the batcher will not take is answered "server closing".
func (b *batcher) submitOrFail(p *pending) {
	if !b.submit(p) {
		p.finish(Response{ID: p.req.ID, Status: StatusErr, Msg: "server closing"})
	}
}

// close stops the loop and fails whatever was still queued. Setting
// stopped (under the write lock) before closing stop waits out every
// in-flight submit — the loop is still consuming at that point, so
// those sends cannot block indefinitely.
func (b *batcher) close() {
	b.smu.Lock()
	b.stopped = true
	b.smu.Unlock()
	close(b.stop)
	<-b.done
}

func (b *batcher) loop() {
	defer close(b.done)
	for {
		select {
		case p := <-b.in:
			formStart := time.Now()
			r := b.newRun()
			r.collect(p)
			b.pl.acquire() // cap concurrent group commits (live limit)
			b.obs.observeBatch(len(r.batch), time.Since(formStart))
			b.execWG.Add(1)
			go r.exec()
		case <-b.stop:
			b.execWG.Wait() // in-flight batches deliver before the drain
			// Drain: connections stop submitting once stop is closed, so
			// this empties in one pass.
			for {
				select {
				case p := <-b.in:
					p.finish(Response{ID: p.req.ID, Status: StatusErr, Msg: "server closing"})
				default:
					return
				}
			}
		}
	}
}

// batchRun is one group commit from collection to delivery. Its batch
// slice, its commit-order ticket and the two functions the runtime and
// the go statement need are allocated once and reused: the loop takes a
// finished run from batcher.idle, refills it and starts it again.
type batchRun struct {
	b     *batcher
	batch []*pending
	cfg   *Config // the configuration this batch was collected under

	// seq stamps the batch's commit order for the WAL: each mutating
	// request takes a ticket as the LAST step inside its (wrapping)
	// child transaction. If request B observed request A's write, A's
	// child committed — merged into the batch transaction — before B's
	// final attempt read it, so A took its ticket first: sorting by seq
	// reproduces a valid serialization of the batch on replay.
	seq atomic.Uint64

	// traced is one TracingEnabled load per batch, not per request;
	// batchID is the batch's trace ticket when it is set.
	traced  bool
	batchID uint64

	// logged and body are logBatch's scratch, kept across batches (D56).
	logged []*pending
	body   []byte

	exec func()           // r.execute, bound once
	root func(*pnstm.Ctx) // r.runRoot, bound once
}

// newRun returns an idle batchRun, or a new one when none is idle.
func (b *batcher) newRun() *batchRun {
	select {
	case r := <-b.idle:
		return r
	default:
	}
	r := &batchRun{b: b}
	r.exec, r.root = r.execute, r.runRoot
	return r
}

// collect gathers a batch around the first request: everything already
// queued, then — if there is still room — whatever arrives within the
// batching window. A zero window means "only what is already in flight",
// which keeps unloaded latency at the floor while still group-committing
// under concurrency.
func (r *batchRun) collect(first *pending) {
	b := r.b
	r.cfg = b.cfg.Load()
	maxBatch, delay := r.cfg.MaxBatch, r.cfg.BatchDelay
	r.batch = append(r.batch[:0], first)
	for len(r.batch) < maxBatch {
		select {
		case p := <-b.in:
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
		case p := <-b.in:
			r.batch = append(r.batch, p)
		case <-timer.C:
			return
		case <-b.stop:
			return
		}
	}
}

// apply runs one request of the batch in block context c.
func (r *batchRun) apply(c *pnstm.Ctx, p *pending) {
	b := r.b
	if r.traced {
		// Tag the context with the victim request's identity before its
		// child begins: any abort inside carries name:key, which is what
		// the hot-key profiler ranks on (D36).
		c.SetTraceTag(requestTraceTag(&p.req))
	}
	if b.wal == nil || !canMutate(&p.req) {
		// Pure reads never log, so they skip the ticket-stamping
		// wrapper transaction entirely.
		applyRequest(c, b.reg, &p.req, &p.resp)
		return
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		p.logged = false // retried attempts must re-decide
		applyRequest(c, b.reg, &p.req, &p.resp)
		if mutating(&p.req, &p.resp) {
			p.seq = r.seq.Add(1)
			p.logged = true
		}
		return nil
	})
}

// runRoot is the batch's root block: every request is one nested child
// transaction of the batch transaction, and the children are spread over
// at most fanout parallel blocks — the same bucket-group shape stmlib's
// bulk operations use. With fanout ≈ worker count the per-block dispatch
// cost is amortized over batch/fanout requests, which is what lets group
// commit beat batch-size-1 execution even when each request is a single
// point operation; requests in different groups still conflict-check and
// run fully in parallel, and a request aborts alone (its own nested
// transaction) whichever group it rides in.
func (r *batchRun) runRoot(c *pnstm.Ctx) {
	batch := r.batch
	if r.traced {
		c.StampTrace(r.batchID, r.b.shardID)
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		// A block dispatch costs roughly a worker wakeup, so forking
		// pays only when a block carries several point requests; small
		// batches fork fewer blocks (pipelined batches keep the other
		// workers fed) and a lone request runs inline.
		groups := len(batch) / minRequestsPerBlock
		if groups > r.cfg.BatchFanout {
			groups = r.cfg.BatchFanout
		}
		if groups > len(batch) {
			groups = len(batch)
		}
		if groups < 1 {
			groups = 1
		}
		if groups <= 1 {
			// Small batch (or fanout 1): inline children, no fork —
			// with MaxBatch 1 this is the batch-size-1 baseline shape.
			for _, p := range batch {
				r.apply(c, p)
			}
			return nil
		}
		fns := make([]func(*pnstm.Ctx), groups)
		for g := 0; g < groups; g++ {
			lo, hi := g*len(batch)/groups, (g+1)*len(batch)/groups
			slice := batch[lo:hi]
			fns[g] = func(c *pnstm.Ctx) {
				for _, p := range slice {
					r.apply(c, p)
				}
			}
		}
		c.Parallel(fns...)
		return nil
	})
}

// execute runs the collected batch as a single root transaction, makes it
// durable, delivers every response and hands the run back for reuse.
func (r *batchRun) execute() {
	b, batch := r.b, r.batch
	defer b.execWG.Done()
	defer b.pl.release()

	r.seq.Store(0)
	r.traced = b.rt.TracingEnabled()
	if r.traced {
		r.batchID = b.batchSeq.Add(1)
	}
	err := b.rt.Run(r.root)

	// Make the batch durable before any of its acks leave: one record,
	// one fsync, covering every mutating request in commit order.
	if err == nil && b.wal != nil {
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

	b.mu.Lock()
	b.batches++
	b.requests += uint64(len(batch))
	b.sizeSum += uint64(len(batch))
	if len(batch) > b.largest {
		b.largest = len(batch)
	}
	b.mu.Unlock()

	for i, p := range batch {
		resp := p.resp
		resp.ID = p.req.ID
		if err != nil {
			resp = Response{ID: p.req.ID, Status: StatusErr, Msg: "server closing"}
		} else if resp.Status == 0 {
			resp = Response{ID: p.req.ID, Status: StatusErr, Msg: "internal: request not executed"}
		}
		if resp.Status == StatusRejected {
			b.obs.observeRejected()
		}
		batch[i] = nil // the idle run must not keep the request alive
		p.finish(resp)
	}
	select {
	case b.idle <- r:
	default:
	}
}

const maxRetainedBody = 1 << 20 // the largest r.body kept for the next batch (D56)

// logBatch appends the batch's mutating requests — sorted into commit
// order, encoded straight into r.body — to the WAL, normally as one record
// with one fsync. Read-only batches append nothing (and cost no fsync). A
// batch whose encoding would overflow maxBody (wal.MaxBody outside tests;
// legal with a large MaxBatch and near-MaxFrame requests) is split into
// several records: commit order is preserved across the chunks, and
// replaying them as separate root transactions is equivalent because batch
// membership is a grouping of independent requests, not a unit of atomicity.
func (r *batchRun) logBatch(maxBody int) error {
	for _, p := range r.batch {
		if p.logged {
			r.logged = append(r.logged, p)
		}
	}
	if len(r.logged) == 0 {
		return nil
	}
	slices.SortFunc(r.logged, func(a, b *pending) int { return cmp.Compare(a.seq, b.seq) })
	body := r.body[:0]
	defer func() {
		clear(r.logged) // the idle run must not keep the requests alive
		if r.logged, r.body = r.logged[:0], body[:0]; cap(body) > maxRetainedBody {
			r.body = nil
		}
	}()
	for _, p := range r.logged {
		start := len(body)
		var err error
		if body, err = AppendRequest(body, &p.req); err != nil {
			// In memory but unencodable: latch the wal shut ourselves
			// (Append latches its own failures), or the next batch would
			// append over a hole in the durable history.
			r.b.wal.Fail(err)
			return err
		}
		if start > 0 && len(body) > maxBody { // the frame opens the next record
			if _, err := r.b.wal.Append(body[:start]); err != nil {
				return err
			}
			body = body[:copy(body, body[start:])]
		}
	}
	_, err := r.b.wal.Append(body)
	return err
}

// requestTraceTag is a request's identity for abort attribution, as the
// two parts Ctx.SetTraceTag takes: name and key for keyed ops, the
// structure name alone otherwise, "tx" for an anonymous envelope.
func requestTraceTag(req *Request) (name, key string) {
	if req.Name == "" && req.Key == "" {
		return "tx", ""
	}
	return req.Name, req.Key
}

// applyRequest executes one request as its own nested transaction inside
// the batch transaction and renders the response into *resp. The
// request's writes are isolated in its child: a rejected envelope rolls
// back alone while its batch siblings commit.
//
// A request whose body is one stmlib call opens no transaction of its
// own: every stmlib operation is already atomic, so that call's
// transaction IS the request's nested child. Only bodies that compose
// several calls (a composite op, an envelope) wrap them in one.
func applyRequest(c *pnstm.Ctx, reg *stmlib.Registry, req *Request, resp *Response) {
	*resp = Response{ID: req.ID, Status: StatusOK}
	var err error
	if d := &opTable[req.Op]; req.Op == OpTx {
		err = applyTx(c, reg, req.Tx, resp)
	} else if d.kind == 0 || !d.top {
		err = errors.New("unbatchable or unknown opcode")
	} else if d.composite {
		err = c.Atomic(func(c *pnstm.Ctx) error { return applyPoint(c, reg, req, resp) })
	} else {
		err = applyPoint(c, reg, req, resp)
	}
	switch {
	case err == nil:
	case errors.Is(err, errRejected):
		*resp = Response{ID: req.ID, Status: StatusRejected, Found: resp.Found,
			Num: resp.Num, Msg: resp.Msg, TxResults: resp.TxResults}
	default:
		*resp = Response{ID: req.ID, Status: StatusErr, Msg: err.Error()}
	}
}

// applyPoint runs a point request as the sub-op it is and renders the
// result into resp.
func applyPoint(c *pnstm.Ctx, reg *stmlib.Registry, req *Request, resp *Response) error {
	op := req.pointOp()
	res, _, err := execOp(c, reg, &op)
	resp.Found, resp.Num, resp.Value = res.Found, res.Num, res.Value
	return err
}

// txOpFailure is one group's first failure inside an envelope: the
// envelope-order index of the failing sub-op plus its error (errRejected
// for a false guard, anything else for a malformed op). A nil err is no
// failure.
type txOpFailure struct {
	idx int
	err error
	msg string
}

// minTxOpsForFanout is the envelope size below which forking parallel
// grandchildren is not worth the worker wakeups: point-op envelopes (a
// three-line checkout, a CAS pair) run their groups inline — the batch
// level above already fans sibling requests — while bulk envelopes
// (multi-structure ingests, wide audits) amortize one fork per
// structure group over many ops, the same economics as stmlib's bulk
// operations.
const minTxOpsForFanout = 16

// applyTx executes one OpTx envelope inside the request's nested child
// transaction: sub-ops are grouped by the structure they touch,
// same-structure sub-ops run sequentially in envelope order (so a get
// observes an earlier put of the same envelope — read-your-writes), and
// distinct structures fan out as parallel-nested grandchild transactions
// when the envelope is large enough to pay for the forks. A false guard
// or malformed sub-op aborts the WHOLE envelope — every group's writes
// roll back with the child transaction — reporting the failing op's index
// in resp.Num and whatever executed in resp.TxResults. So does a reply
// that would not fit a frame (checkReplySize): an envelope whose answer
// cannot reach its caller never commits.
func applyTx(c *pnstm.Ctx, reg *stmlib.Registry, tx *Tx, resp *Response) error {
	if tx == nil || len(tx.Ops) == 0 {
		return nil
	}
	ops := tx.Ops
	results := make([]TxResult, len(ops))
	resp.TxResults = results
	return c.Atomic(func(c *pnstm.Ctx) error {
		resetTxResults(resp)
		var first txOpFailure
		if len(ops) < minTxOpsForFanout {
			// Too small to fork: the groups run one after another, in
			// first-touch order, and the first failure ends the envelope —
			// later groups never run. The grouping lives on this frame (and
			// is redone by a retried attempt, here and below: it is cheap
			// next to the sub-ops, and hoisting it would let one variable
			// alias this array and the fan-out's heap slice — see D50).
			var buf [2 * minTxOpsForFanout]int32
			heads, next := chainTxOps(ops, buf[:])
			for _, h := range heads {
				if first = runTxChain(c, reg, ops, results, next, h); first.err != nil {
					break
				}
			}
		} else if heads, next := chainTxOps(ops, make([]int32, 2*len(ops))); len(heads) == 1 {
			first = runTxChain(c, reg, ops, results, next, heads[0])
		} else {
			// Parallel children report through disjoint slots; the lowest
			// envelope index wins when several groups failed, so the
			// reported FailedOpIndex is deterministic.
			fails := make([]txOpFailure, len(heads))
			fns := make([]func(*pnstm.Ctx), len(heads))
			for g, h := range heads {
				fns[g] = func(c *pnstm.Ctx) {
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						fails[g] = runTxChain(c, reg, ops, results, next, h)
						return nil
					})
				}
			}
			c.Parallel(fns...)
			for _, f := range fails {
				if f.err != nil && (first.err == nil || f.idx < first.idx) {
					first = f
				}
			}
		}
		if first.err == nil {
			return checkReplySize(results)
		}
		// Record the failure and return the error that rolls the envelope
		// back: the wrapped cause for a malformed sub-op (StatusErr; Msg
		// carries the returned error), errRejected for a false guard.
		resp.Num = int64(first.idx)
		if !errors.Is(first.err, errRejected) {
			return fmt.Errorf("op %d: %w", first.idx, first.err)
		}
		resp.Msg = first.msg
		return errRejected // rolls back every group of this envelope
	})
}

// chainTxOps groups an envelope's sub-ops by the structure they touch, in
// buf (2*len(ops) zeroed words): heads lists each group's first sub-op, in
// first-touch order, and next[i] is the following sub-op of i's group (0:
// none — sub-op 0 follows nothing). Finding a sub-op's predecessor is a
// backwards scan below minTxOpsForFanout, which allocates nothing, and a
// map lookup from there up, which keeps a maximal envelope linear.
func chainTxOps(ops []TxOp, buf []int32) (heads, next []int32) {
	next, heads = buf[:len(ops)], buf[len(ops):len(ops)]
	var last map[txGroup]int32
	if len(ops) >= minTxOpsForFanout {
		last = make(map[txGroup]int32)
	}
	for i := range ops {
		k, prev := groupOf(&ops[i]), -1
		if last == nil {
			for prev = i - 1; prev >= 0 && groupOf(&ops[prev]) != k; prev-- {
			}
		} else {
			if p, ok := last[k]; ok {
				prev = int(p)
			}
			last[k] = int32(i)
		}
		if prev < 0 {
			heads = append(heads, int32(i))
		} else {
			next[prev] = int32(i)
		}
	}
	return heads, next
}

// runTxChain executes one group's sub-ops in envelope order, filling
// their result slots, and returns the group's first failure: the rest of
// the group is abandoned, the envelope is aborting.
func runTxChain(c *pnstm.Ctx, reg *stmlib.Registry, ops []TxOp, results []TxResult, next []int32, head int32) txOpFailure {
	for i := int(head); ; i = int(next[i]) {
		res, msg, err := execOp(c, reg, &ops[i])
		results[i] = res
		if err != nil {
			return txOpFailure{idx: i, err: err, msg: msg}
		}
		if next[i] == 0 {
			return txOpFailure{}
		}
	}
}

// resetTxResults clears what an earlier attempt of the envelope's body
// left behind: the body may retry after a conflict abort, and every
// sub-op is judged on the final attempt only.
func resetTxResults(resp *Response) {
	for i := range resp.TxResults {
		resp.TxResults[i] = TxResult{}
	}
	resp.Msg = ""
	resp.Num = 0
}

// checkReplySize refuses an envelope whose results would not fit one
// response frame: a frame the client's ReadFrame rejects costs the
// connection and every call in flight on it. It runs after the last
// sub-op and before the envelope's transaction commits, so the error
// rolls the envelope back — nothing is applied, nothing logged, and the
// caller is told why.
func checkReplySize(results []TxResult) error {
	size := 0
	for i := range results {
		size += txResultSize(&results[i])
	}
	if size > maxReplyBytes {
		return fmt.Errorf("transaction results encode to %d bytes, over the %d-byte reply limit: read less per transaction", size, maxReplyBytes)
	}
	return nil
}

// maxRangeScanEntries bounds the entry count of one OpRangeScan result;
// clients page with the last key as the next lo bound. It does not bound
// the result's bytes — 8192 values of 2 KB outgrow a response frame —
// which is maxReplyBytes' job.
const maxRangeScanEntries = 8192

// maxReplyBytes bounds the encoded results of one envelope, and one
// OpRangeScan result's KV encoding on its own: a frame the client's
// ReadFrame would reject costs the connection and every call in flight
// on it, so the request fails instead. The 64 KiB below MaxFrame are
// room for the response header and its message.
const maxReplyBytes = MaxFrame - 64<<10

// encodeScan is OpRangeScan's result Value: the AppendKVs encoding of es,
// sized first and written once into a buffer of exactly that size.
func encodeScan(es []stmlib.SortedEntry[string, []byte]) ([]byte, error) {
	size := 4
	for i := range es {
		size += kvSize(es[i].Key, es[i].Value)
	}
	if size > maxReplyBytes {
		return nil, fmt.Errorf("range scan result of %d entries encodes to %d bytes, over the %d-byte reply limit: lower the limit and page by last key",
			len(es), size, maxReplyBytes)
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(es)))
	for i := range es {
		buf = appendKV(buf, es[i].Key, es[i].Value)
	}
	return buf, nil
}

// judgeCounterGuard evaluates a counter guard against an observed sum —
// the ONE implementation shared by the single-shard execution path
// (execOp, shard-local partial) and the read-only fan's merge step
// (fanTx, global total), so the two paths cannot drift in semantics or
// failure text.
func judgeCounterGuard(op *TxOp, total int64) (msg string, ok bool) {
	switch op.Op {
	case OpAssertEq:
		if total != op.Delta {
			return fmt.Sprintf("assert: counter %q = %d, want %d", op.Name, total, op.Delta), false
		}
	case OpAssertGE:
		if total < op.Delta {
			return fmt.Sprintf("assert: counter %q = %d, want >= %d", op.Name, total, op.Delta), false
		}
	}
	return "", true
}

// batchStats is the batcher's contribution to ServerStats.
func (b *batcher) stats() (batches, requests uint64, mean float64, largest int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	mean = 0
	if b.batches > 0 {
		mean = float64(b.sizeSum) / float64(b.batches)
	}
	return b.batches, b.requests, mean, b.largest
}
