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
	"pnstm/internal/fork"
	"pnstm/internal/metrics"
	"pnstm/internal/wal"
	"pnstm/stmlib"
)

// The batching engine is where the paper's mechanism meets the network:
// concurrent in-flight requests are coalesced into a group commit. Each
// batch executes as ONE Runtime.Run root transaction whose body runs one
// nested child transaction per request, forked over parallel blocks via
// fork.Each — the shape of the paper's Figure 1 and of
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
// A sharded server runs one loop PER SHARD, each against its shard's
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
// in seq order. tx is the envelope scratch an OpTx body is decoded into
// (req.Tx points at it), so a reader-minted envelope reuses its op list,
// and frame is the buffer the request's frame was read into: the keys and
// values of its read-only ops borrow from it (D48), so it is the
// pending's until release.
//
// A pending belongs to whoever holds it — the connection's reader until
// it hands the request off, the shard's loop until finish. A reader-minted
// pending comes from pendings and goes back in exactly one place,
// shard.runBatch after finish, when nothing else can reach it; the
// reader keeps it across the frames it answers itself and lets go at every
// hand-off. Every other pending — handed to a cross-shard envelope or a
// replication stream, or minted by the reaper or replay — stays with the
// garbage collector.
type pending struct {
	req    Request
	resp   Response
	reply  replier
	lat    *metrics.Histogram // observed at finish; nil: not a timed request
	start  time.Time          // when the request was parsed
	seq    uint64
	logged bool
	tx     Tx
	frame  FrameBuf
}

// pendings recycles the pendings connection readers mint (D48).
var pendings = sync.Pool{New: func() any { return new(pending) }}

// maxRetainedOps is the largest envelope op list a pooled pending keeps
// for the next request, as maxRetainedBody is for a batch's log body. Its
// frame buffer needs no bound of its own: ReadFrame never grows one past
// maxRetainedFrame, the bound a connection's buffer had.
const maxRetainedOps = 64

// release returns a reader-minted pending to pendings. It clears the op
// list up to its capacity and zeroes everything but its two buffers, so a
// pooled pending pins no key, value, name, response or connection. Under
// the pnstmcheck build tag it first overwrites the frame buffer and the
// op list with 0xA5, so that a borrowed byte read after release reads as
// poison.
func (p *pending) release() {
	tx, frame := p.tx, p.frame
	ops := tx.Ops[:cap(tx.Ops)]
	clear(ops)
	poisonReleased(frame.b[:cap(frame.b)], ops)
	if cap(tx.Ops) > maxRetainedOps {
		tx.Ops = nil
	}
	*p = pending{tx: tx, frame: frame}
	pendings.Put(p)
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

// batchRun is one group commit from collection to delivery: a batch of
// requests, collected under cfg, run against reg and logged to wal. The
// shard's loop owns one and refills it for every batch, so a batch costs
// no slice, closure or ticket allocation of its own; replay builds one per
// record.
type batchRun struct {
	reg   *stmlib.Registry
	cfg   *Config  // the shard's loop only: what collect reads
	wal   *wal.Log // nil: the batch is not logged (memory shards, replay)
	batch []*pending

	// seq stamps the batch's commit order for the WAL: each mutating
	// request takes a ticket as the LAST step inside its (wrapping)
	// child transaction. If request B observed request A's write, A's
	// child committed — merged into the batch transaction — before B's
	// final attempt read it, so A took its ticket first: sorting by seq
	// reproduces a valid serialization of the batch on replay.
	seq atomic.Uint64

	// shardID, traced and batchID stamp trace identity (D35): with
	// tracing on (one TracingEnabled load per batch, not per request),
	// every batch takes the next ticket and stamps (batch, shard) onto its
	// root context, so a request's events can be followed wire → batch
	// root → nested child → commit/abort across the whole store.
	shardID uint8
	traced  bool
	batchID uint64

	// logged and body are logBatch's scratch, kept across batches (D56),
	// and plan is runRoot's (D58).
	logged []*pending
	body   []byte
	plan   plan

	// results is where carveResults takes every envelope's result slots,
	// and scans where every OpRangeScan of the batch encodes its result.
	results resultSlab
	scans   scanSlab

	root func(*pnstm.Ctx) // r.runRoot, bound once
}

func newBatchRun(reg *stmlib.Registry, wl *wal.Log) *batchRun {
	r := &batchRun{reg: reg, wal: wl}
	r.root = r.runRoot
	return r
}

// carveResults gives every envelope of the batch its result slots from
// the run's slab, before the root forks. The slots outlive the batch: a
// reader-minted pending is released right after finish, and the
// connection's writer encodes its copy of the Response later (D48), so
// they cannot live in the pending, and the slab is replaced when full,
// never rewritten. Every other request's list is cleared, so no results
// list of an earlier request is written again. Who clears a slot's value
// is resultSlab's rule.
func (r *batchRun) carveResults() {
	for _, p := range r.batch {
		p.resp.TxResults = nil
		if p.req.Op == OpTx && p.req.Tx != nil && len(p.req.Tx.Ops) > 0 {
			p.resp.TxResults = r.results.carve(len(p.req.Tx.Ops))
		}
	}
}

// apply runs one request of the batch in block context c.
func (r *batchRun) apply(c *pnstm.Ctx, p *pending) {
	if r.traced {
		// Tag the context with the victim request's identity before its
		// child begins: any abort inside carries name:key, which is what
		// /debug/hotkeys ranks on (D36).
		c.SetTraceTag(requestTraceTag(&p.req))
	}
	if r.wal == nil || !canMutate(&p.req) {
		// Pure reads never log, so they skip the ticket-stamping
		// wrapper transaction entirely.
		applyRequest(c, r.reg, &r.scans, &p.req, &p.resp)
		return
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		p.logged = false // retried attempts must re-decide
		applyRequest(c, r.reg, &r.scans, &p.req, &p.resp)
		if mutating(&p.req, &p.resp) {
			p.seq = r.seq.Add(1)
			p.logged = true
		}
		return nil
	})
}

// runRoot is the batch's root block: every request is one nested child
// transaction of the batch transaction, and the plan (D58) cuts the batch
// into chains — the requests on one key, in arrival order, in one block;
// chains that share no key in parallel blocks. A request aborts alone
// (its own nested transaction) whichever chain it rides in. A batch too
// small to fork runs its children inline: with MaxBatch 1 this is the
// batch-size-1 baseline shape.
func (r *batchRun) runRoot(c *pnstm.Ctx) {
	if r.traced {
		c.StampTrace(r.batchID, r.shardID)
	}
	r.plan.batch(r.reg, r.batch)
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		fork.Each(c, r.plan.chains(), 1, r, nil)
		return nil
	})
}

// Do is the batch's fork job: it runs the requests of chains [lo, hi).
func (r *batchRun) Do(c *pnstm.Ctx, lo, hi int) struct{} {
	from, to := r.plan.span(lo, hi)
	for k := from; k < to; k++ {
		r.apply(c, r.batch[r.plan.at(k)])
	}
	return struct{}{}
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
		clear(r.logged) // the run must not keep the requests alive
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
			r.wal.Fail(err)
			return err
		}
		if start > 0 && len(body) > maxBody { // the frame opens the next record
			if _, err := r.wal.Append(body[:start]); err != nil {
				return err
			}
			body = body[:copy(body, body[start:])]
		}
	}
	_, err := r.wal.Append(body)
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
//
// An envelope's results go into the slots resp.TxResults holds on entry
// (batchRun.carveResults), or into a list of their own when it holds
// none of the envelope's length. A range scan's result is carved from
// scans.
func applyRequest(c *pnstm.Ctx, reg *stmlib.Registry, scans *scanSlab, req *Request, resp *Response) {
	*resp = Response{ID: req.ID, Status: StatusOK, TxResults: resp.TxResults}
	var err error
	if d := &opTable[req.Op]; req.Op == OpTx {
		err = applyTx(c, reg, scans, req.Tx, resp)
	} else if d.kind == 0 || !d.top {
		err = errors.New("unbatchable or unknown opcode")
	} else if d.composite {
		err = c.Atomic(func(c *pnstm.Ctx) error { return applyPoint(c, reg, scans, req, resp) })
	} else {
		err = applyPoint(c, reg, scans, req, resp)
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
func applyPoint(c *pnstm.Ctx, reg *stmlib.Registry, scans *scanSlab, req *Request, resp *Response) error {
	op := req.pointOp()
	res, _, err := execOp(c, reg, scans, &op)
	resp.Found, resp.Num, resp.Value = res.Found, res.Num, res.Value
	return err
}

// txOpFailure is the first failure of an envelope's chains: the
// envelope-order index of the failing sub-op plus its error (errRejected
// for a false guard, anything else for a malformed op). A nil err is no
// failure.
type txOpFailure struct {
	idx int
	err error
	msg string
}

// earlier returns whichever of f and g envelope order meets first.
func (f txOpFailure) earlier(g txOpFailure) txOpFailure {
	if f.err == nil || (g.err != nil && g.idx < f.idx) {
		return g
	}
	return f
}

// applyTx executes one OpTx envelope inside the request's nested child
// transaction. The plan (D58) cuts the sub-ops into chains: sub-ops on one
// key run in envelope order in one chain (so a get observes an earlier put
// of the same envelope — read-your-writes), and an envelope large enough
// to fork runs its chains as parallel blocks, each sub-op its own
// grandchild transaction. A false guard or malformed sub-op aborts the
// WHOLE envelope — every chain's writes roll back with the child
// transaction — reporting the lowest failing op's index in resp.Num and
// the results of the ops before it in resp.TxResults. So does a reply
// that would not fit a frame (checkReplySize): an envelope whose answer
// cannot reach its caller never commits.
func applyTx(c *pnstm.Ctx, reg *stmlib.Registry, scans *scanSlab, tx *Tx, resp *Response) error {
	if tx == nil || len(tx.Ops) == 0 {
		return nil
	}
	ops := tx.Ops
	results := resp.TxResults
	if len(results) != len(ops) {
		results = make([]TxResult, len(ops))
		resp.TxResults = results
	}
	return c.Atomic(func(c *pnstm.Ctx) error {
		resetTxResults(resp)
		// The plan lives on this frame and a retried attempt redoes it: a
		// point-sized envelope plans nothing, and a larger one's plan is
		// cheap next to its sub-ops.
		var pl plan
		pl.envelope(reg, ops)
		var first txOpFailure
		fork.Each(c, pl.chains(), 1, txJob{reg, scans, ops, results, pl.layout},
			func(f txOpFailure) { first = first.earlier(f) })
		if first.err == nil {
			return checkReplySize(results)
		}
		// Record the failure and return the error that rolls the envelope
		// back: the wrapped cause for a malformed sub-op (StatusErr; Msg
		// carries the returned error), errRejected for a false guard. The
		// results stop at the failure, whichever chains ran past it.
		clear(results[first.idx+1:])
		resp.Num = int64(first.idx)
		if !errors.Is(first.err, errRejected) {
			return fmt.Errorf("op %d: %w", first.idx, first.err)
		}
		resp.Msg = first.msg
		return errRejected // rolls back every chain of this envelope
	})
}

// txJob is an envelope's fork job: Do runs chains [lo, hi), each up to
// its first failure, and returns the one envelope order meets first.
type txJob struct {
	reg     *stmlib.Registry
	scans   *scanSlab
	ops     []TxOp
	results []TxResult
	chains  layout
}

func (j txJob) Do(c *pnstm.Ctx, lo, hi int) (first txOpFailure) {
	for g := lo; g < hi; g++ {
		from, to := j.chains.span(g, g+1)
		for k := from; k < to; k++ {
			i := j.chains.at(k)
			res, msg, err := execOp(c, j.reg, j.scans, &j.ops[i])
			j.results[i] = res
			if err != nil {
				first = first.earlier(txOpFailure{idx: i, err: err, msg: msg})
				break
			}
		}
	}
	return first
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

// encodeView is OpRangeScan's result Value, the AppendKVs encoding of the
// view's entries, and their count. It sizes the list first and writes it
// once, straight from the views, into a buffer of exactly that size
// carved from out (nil: an allocation of its own).
func encodeView(v *stmlib.SortedView[string, []byte], out *scanSlab) (enc []byte, n int, err error) {
	size := 4
	for e := range v.All() {
		size += kvSize(e.Key, e.Value)
		n++
	}
	if size > maxReplyBytes {
		return nil, n, fmt.Errorf("range scan result of %d entries encodes to %d bytes, over the %d-byte reply limit: lower the limit and page by last key",
			n, size, maxReplyBytes)
	}
	enc = binary.BigEndian.AppendUint32(out.carve(size), uint32(n))
	for e := range v.All() {
		enc = appendKV(enc, e.Key, e.Value)
	}
	return enc, n, nil
}

// scanSlab is an append-only byte arena OpRangeScan results are encoded
// into, one per batchRun, under resultSlab's rule: a result of up to
// maxSlabScan bytes is carved, capped at its length, from the tail of a
// scanSlabSize-byte slab, and a full slab is replaced, never rewritten,
// so a result handed on stays as it was until its last holder — the
// connection's writer, once it has encoded the reply — drops it. A
// batch's chains may run as parallel blocks, so a carve takes the lock;
// what is written into a carved result is its carver's alone. A nil
// slab, or a larger result, gets an allocation of its own.
type scanSlab struct {
	mu sync.Mutex
	b  []byte
}

const (
	scanSlabSize = 128 << 10
	maxSlabScan  = 32 << 10
)

// carve returns an empty buffer with room for exactly n bytes.
func (s *scanSlab) carve(n int) []byte {
	if s == nil || n > maxSlabScan {
		return make([]byte, 0, n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > cap(s.b)-len(s.b) {
		s.b = make([]byte, 0, scanSlabSize)
	}
	at := len(s.b)
	s.b = s.b[:at+n]
	return s.b[at : at : at+n]
}

// judgeCounterGuard evaluates a counter guard against an observed sum —
// the ONE implementation shared by the single-shard execution path
// (execOp, shard-local partial) and the cross-shard judge (crossRun.judge,
// global total), so the two paths cannot drift in semantics or failure
// text.
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
