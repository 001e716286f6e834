package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pnstm"
	"pnstm/stmlib"
)

// Cross-shard ordered commit (D27, D29–D31): an OpTx envelope whose
// structures live on several shards commits atomically WITHOUT 2PC
// locks, in the style of deterministic predefined-order databases. The
// envelope's position is fixed before anything executes: queueAll draws
// its global sequence number (GSN) and queues one task on EVERY
// participant shard's loop in one call, so any two multi-shard items
// sit in the same relative order on every shard they share. Each
// participant's task runs its slice of the envelope as a nested child
// inside its own root transaction (the same shape a group commit uses),
// execution split into three phases:
//
//	gather  — every shard executes its slice (map/queue ops, map
//	          guards, counter adds) and reads the counter partials any
//	          global counter read needs, reporting results while its
//	          child transaction stays open;
//	judge   — the report that completes the set sums the partials,
//	          evaluates counter guards on the global totals, and
//	          combines them with the shards' local guard verdicts into
//	          one commit/abort decision (lowest failing envelope index
//	          wins, exactly like a single-shard envelope);
//	apply   — every child reads the verdict: on commit it commits its
//	          writes and each shard that wrote appends ONE GSN-stamped
//	          WAL record holding its write-only slice; on abort every
//	          child returns errRejected and rolls back, leaving ZERO WAL
//	          residue on every shard.
//
// A read-only envelope — a sharded top-level OpCounterSum among them —
// takes the same route and stops after gather: its queue position
// already fixes what every slice reads, so no cross-shard envelope is
// seen in part, and with nothing to commit, roll back or log each task
// returns as soon as it has reported. The read is strictly
// serializable: each shard runs its one queue in arrival order, and no
// slice runs before every slice is queued, so a single-shard write sent
// after any slice has run queues behind the read on every shard.
//
// Recovery replays GSN records at their logged positions. Because the
// GSN is drawn under the same lock that queues the tasks, and each loop
// runs its tasks in queue order, the GSNs in every shard's log are
// strictly increasing: replaying each log in order reproduces the same
// relative cross-shard positions everywhere.

// Routing outcomes for an OpTx envelope (classifyTx).
const (
	planSingle = iota // the envelope rides shards[target]'s group-commit pipeline
	planCross         // multi-shard: ordered cross-shard commit
)

// sliceItem is one entry of a participant shard's slice of a
// cross-shard envelope, in envelope order: either one of the envelope's
// own sub-ops (executed on this shard) or a partial read serving a
// global counter read (every shard contributes its partial; the
// judging report sums them).
type sliceItem struct {
	idx     int  // envelope index
	partial bool // read this shard's counter partial instead of executing
}

// txPlan is classifyTx's routing decision for one OpTx envelope.
type txPlan struct {
	kind   int
	target int // planSingle: the executing shard

	// planCross only:
	participants []int         // shard ids running a slice, ascending
	slices       [][]sliceItem // per shard id (nil for non-participants)
	readOnly     bool          // no sub-op can write: no verdict to wait for
}

// crossShardHome places one sub-op of a cross-shard envelope. Sub-ops
// with a structure home — maps, queues and map guards, per
// txPinnedShard — execute there; counter ADDS credit their name's home
// shard (any single placement is exact, because counter state is
// per-shard partials summing globally — D24 — and hashing by name
// keeps a counter's cross-shard credits on one shard). Counter READS
// (sums and counter guards, Key == "") have no single home: the total
// spans every shard's partial, reported via ok=false and gathered
// globally by the caller.
func crossShardHome(op *TxOp, n int) (int, bool) {
	if sh, ok := txPinnedShard(op, n); ok {
		return sh, true
	}
	if op.Op == OpCounterAdd {
		return stmlib.ShardIndex(op.Name, n), true
	}
	return 0, false
}

// classifyTx resolves an OpTx envelope's route (D27, D29): every
// map/queue sub-op pins its structure's home shard; one pinned shard (or
// none — a counter-only envelope, routed by the first op's name so
// identical envelopes meet on one shard) executes on that shard's
// pipeline, and several pinned shards — read-only or not — get a cross
// plan (crossPlan). Pure function of the envelope and the shard count,
// so it is fuzzable in isolation.
func classifyTx(tx *Tx, n int) txPlan {
	if tx == nil || len(tx.Ops) == 0 || n <= 1 {
		return txPlan{kind: planSingle, target: 0}
	}
	pinned := make(map[int]bool)
	first := -1
	for i := range tx.Ops {
		if sh, ok := txPinnedShard(&tx.Ops[i], n); ok {
			pinned[sh] = true
			if first < 0 {
				first = sh
			}
		}
	}
	switch len(pinned) {
	case 0:
		return txPlan{kind: planSingle, target: stmlib.ShardIndex(tx.Ops[0].Name, n)}
	case 1:
		return txPlan{kind: planSingle, target: first}
	}
	return crossPlan(tx, n)
}

// crossPlan is the cross plan of an envelope over n shards: each
// participant's slice holds its sub-ops in envelope order, and any
// global counter read inserts a partial item into EVERY shard's slice
// (making all shards participants) — which is all a sharded top-level
// OpCounterSum, as the one-op envelope [{OpCounterSum, name}], is.
func crossPlan(tx *Tx, n int) txPlan {
	plan := txPlan{kind: planCross, slices: make([][]sliceItem, n), readOnly: true}
	part := make(map[int]bool)
	global := false
	for i := range tx.Ops {
		op := &tx.Ops[i]
		if Mutates(op.Op) {
			plan.readOnly = false
		}
		if sh, ok := crossShardHome(op, n); ok {
			plan.slices[sh] = append(plan.slices[sh], sliceItem{idx: i})
			part[sh] = true
			continue
		}
		// Global counter read: a partial item at this envelope position in
		// every shard's slice.
		global = true
		for sh := 0; sh < n; sh++ {
			plan.slices[sh] = append(plan.slices[sh], sliceItem{idx: i, partial: true})
		}
	}
	if global {
		for sh := 0; sh < n; sh++ {
			part[sh] = true
		}
	}
	plan.participants = make([]int, 0, len(part))
	for sh := range part {
		plan.participants = append(plan.participants, sh)
	}
	sort.Ints(plan.participants)
	return plan
}

// crossReport is one participant's gather-phase report: the results of
// its executed sub-ops, its counter partials for global reads, and its
// first local failure (a false map guard → errRejected, a malformed
// sub-op → anything else), envelope-lowest first within the slice.
type crossReport struct {
	results  map[int]TxResult
	partials map[int]int64
	failIdx  int // -1: clean
	failMsg  string
	failErr  error
}

// executeSlice runs one shard's slice inside its open child
// transaction, in envelope order. On a local failure the rest of the
// slice is abandoned (the envelope is aborting), so partials at
// indices past the failure are missing — judge never uses totals past
// the lowest failing index.
func executeSlice(c *pnstm.Ctx, reg *stmlib.Registry, ops []TxOp, slice []sliceItem) crossReport {
	rep := crossReport{
		results:  make(map[int]TxResult, len(slice)),
		partials: make(map[int]int64),
		failIdx:  -1,
	}
	for _, it := range slice {
		if it.partial {
			rep.partials[it.idx] = reg.Counter(ops[it.idx].Name).Sum(c)
			continue
		}
		res, msg, err := execOp(c, reg, &ops[it.idx])
		rep.results[it.idx] = res
		if err != nil {
			rep.failIdx, rep.failMsg, rep.failErr = it.idx, msg, err
			break
		}
	}
	return rep
}

// crossRun is one cross-shard envelope in flight, shared by its
// participants' tasks. The report that completes the set judges; the
// last task to finish delivers.
type crossRun struct {
	s       *Server
	req     *Request
	plan    *txPlan
	gsn     uint64 // drawn by queueAll before any task runs
	deliver func(Response)

	mu       sync.Mutex
	reported int
	merged   []TxResult
	totals   map[int]int64
	first    *txOpFailure
	resp     Response // the verdict's answer; a failed append replaces it
	judged   chan struct{}
	commit   bool       // set before judged closes
	logSet   []int      // shards whose slice wrote, ascending
	logReqs  []*Request // per shard id: its GSN record's write slice

	rooted, logged sync.WaitGroup // every root returned; every append done or latched
	left           atomic.Int32   // tasks still running; the last delivers
}

// commitCrossShard answers a multi-shard envelope via the ordered-commit
// protocol: one task per participant, queued in the one order every
// shard shares (queueAll), which also draws the GSN. It returns once the
// tasks are queued; the last of them to finish (read-only: to report)
// delivers.
func (s *Server) commitCrossShard(req *Request, plan txPlan, deliver func(Response)) {
	n := len(plan.participants)
	x := &crossRun{
		s: s, req: req, plan: &plan, deliver: deliver,
		merged: make([]TxResult, len(req.Tx.Ops)),
		totals: make(map[int]int64),
		judged: make(chan struct{}),
	}
	x.rooted.Add(n)
	x.logged.Add(n)
	x.left.Store(int32(n))
	if err := s.queueAll(plan.participants, &x.gsn, x.run); err != nil {
		deliver(Response{ID: req.ID, Status: StatusErr, Msg: "server closing"})
	}
}

// run is the envelope's task on one participant's loop. Every task
// queued before it on this shard has run, and — tasks sharing one order
// across shards — each partner's loop reaches its own task without
// waiting on this one, so the rendezvous below always completes.
func (x *crossRun) run(sh *shard) {
	// Gather: run the slice as a nested child of the shard's root and
	// block inside the child on the verdict. The root runs alone on the
	// shard's runtime — every root on the live registry runs on this
	// loop — so the child cannot conflict with anything, hence executes
	// exactly once: that is what lets it report and await a verdict from
	// inside its body. A read-only slice runs in the root itself and
	// reports once the root has returned.
	var read crossReport
	err := sh.rt.Run(func(c *pnstm.Ctx) {
		if sh.rt.TracingEnabled() {
			// Trace identity: the GSN is the envelope's batch ticket on
			// every participant, so one cross-shard commit's events
			// correlate across all the shards' recorders (D35).
			c.StampTrace(x.gsn, uint8(sh.id))
			c.SetTraceTag(requestTraceTag(x.req))
		}
		if x.plan.readOnly {
			read = executeSlice(c, sh.reg, x.req.Tx.Ops, x.plan.slices[sh.id])
			return
		}
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			x.report(executeSlice(c, sh.reg, x.req.Tx.Ops, x.plan.slices[sh.id]))
			<-x.judged
			if x.commit {
				return nil
			}
			return errRejected // whole-envelope rollback: zero residue
		})
	})
	if err != nil {
		// Run fails only with ErrClosed, and Close, Kill and New's
		// teardown close a shard's runtime only after its loop has
		// stopped: a bug alone gets here, and the partners would wait
		// for this slice's report forever.
		panic(fmt.Sprintf("server: shard %d: cross-shard root: %v", sh.id, err))
	}
	if x.plan.readOnly {
		// Nothing to commit, roll back or log: the slice's position in
		// the queue fixed what it read, so the task returns without
		// waiting for the verdict.
		if x.report(read) {
			x.deliver(x.resp)
		}
		return
	}
	x.rooted.Done()
	x.rooted.Wait()

	// Log: each shard whose slice wrote appends its own GSN record. No
	// task returns before every append is done or latched, so no
	// checkpoint behind it captures a GSN a partner failed to log.
	if x.commit && sh.wal != nil && x.logReqs[sh.id] != nil {
		x.appendGSN(sh)
	}
	x.logged.Done()
	x.logged.Wait()
	if x.left.Add(-1) == 0 {
		x.deliver(x.resp)
	}
}

// report merges one participant's gather-phase report; the one that
// completes the set judges, releases every waiting child and returns
// true.
func (x *crossRun) report(rep crossReport) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	for idx, res := range rep.results {
		x.merged[idx] = res
	}
	for idx, p := range rep.partials {
		x.totals[idx] += p
	}
	if rep.failErr != nil && (x.first == nil || rep.failIdx < x.first.idx) {
		x.first = &txOpFailure{idx: rep.failIdx, err: rep.failErr, msg: rep.failMsg}
	}
	if x.reported++; x.reported < len(x.plan.participants) {
		return false
	}
	x.judge()
	close(x.judged)
	return true
}

// judge sums the partials, evaluates counter guards on the global
// totals and picks the lowest failing envelope index across local (map
// guard, malformed) and global (counter guard) failures — the same
// deterministic rule a single-shard envelope applies.
func (x *crossRun) judge() {
	ops, merged := x.req.Tx.Ops, x.merged
	for i := range ops {
		t, global := x.totals[i]
		if !global {
			continue
		}
		if x.first != nil && x.first.idx < i {
			break // totals past the failure are incomplete AND irrelevant
		}
		merged[i] = TxResult{Status: StatusOK, Num: t}
		if msg, ok := judgeCounterGuard(&ops[i], t); !ok {
			merged[i].Status = StatusRejected
			x.first = &txOpFailure{idx: i, err: errRejected, msg: msg}
			break
		}
	}
	first := x.first
	if first != nil {
		for j := first.idx + 1; j < len(merged); j++ {
			merged[j] = TxResult{} // rolled back, as a single-shard abort leaves them
		}
	}
	// Every slice's results fit a frame on their own (each scan is bounded
	// by maxReplyBytes); merged they may not. An answer that cannot reach
	// its caller must not commit — the rule applyTx keeps for one shard.
	sizeErr := checkReplySize(merged)
	id := x.req.ID
	switch {
	case first != nil && !errors.Is(first.err, errRejected):
		x.resp = Response{ID: id, Status: StatusErr, Msg: fmt.Sprintf("op %d: %v", first.idx, first.err)}
	case sizeErr != nil:
		x.resp = Response{ID: id, Status: StatusErr, Msg: sizeErr.Error()}
	case first != nil:
		x.resp = Response{ID: id, Status: StatusRejected, Num: int64(first.idx), Msg: first.msg, TxResults: merged}
	default:
		x.resp = Response{ID: id, Status: StatusOK, TxResults: merged}
		x.commit = true
		if x.s.shards[0].wal != nil {
			x.logReqs = make([]*Request, len(x.s.shards))
			for _, sid := range x.plan.participants {
				if sub := crossWriteSlice(ops, x.plan.slices[sid], merged); sub != nil {
					x.logSet = append(x.logSet, sid)
					x.logReqs[sid] = sub
				}
			}
		}
	}
}

// crossWriteSlice strips one participant's slice to its effective
// writes — the redo set its GSN record carries. Guards and reads are
// dropped (they were judged live against global state recovery cannot
// reconstruct shard-locally), and writes that found nothing to change
// (effected) are dropped too: replaying the record applies exactly
// the writes the live commit applied. Nil when the slice wrote nothing
// — that shard logs no record for this envelope.
func crossWriteSlice(ops []TxOp, slice []sliceItem, merged []TxResult) *Request {
	var sub []TxOp
	for _, it := range slice {
		if !it.partial && effected(ops[it.idx].Op, &merged[it.idx]) {
			sub = append(sub, ops[it.idx])
		}
	}
	if len(sub) == 0 {
		return nil
	}
	return &Request{Op: OpTx, Tx: &Tx{Ops: sub}}
}

// appendGSN makes sh's share of a committed cross-shard envelope
// durable: its GSN record — same GSN and logging set on every writing
// shard, its own write slice — fsynced per Options.Fsync. A failed
// append latches EVERY writing shard's log (wal.Fail), not only its
// own, because the envelope is already applied in every shard's memory
// — a shard that kept logging (or checkpointing) past a GSN its peers
// never made durable would recover divergent state. Recovery reconciles
// a torn tail instead: a GSN present on some shards but missing (and
// not snapshot-covered) on another is dropped everywhere (see
// reconcileGSNs).
func (x *crossRun) appendGSN(sh *shard) {
	body, err := encodeGSNRecord(x.gsn, x.logSet, x.logReqs[sh.id])
	if err == nil {
		_, err = sh.wal.Append(body)
	}
	if err != nil {
		x.s.failWALs(x.logSet, err)
		x.mu.Lock()
		x.resp = Response{ID: x.req.ID, Status: StatusErr, Msg: "wal: " + err.Error()}
		x.mu.Unlock()
		return
	}
	// Safe to publish: this shard's GSN records are appended in queue
	// order, which is GSN order (queueAll).
	sh.maxGSN.Store(x.gsn)
}

// failWALs latches the listed shards' logs shut (no-op per shard
// without a WAL, or when already latched).
func (s *Server) failWALs(ids []int, cause error) {
	for _, id := range ids {
		if wl := s.shards[id].wal; wl != nil {
			wl.Fail(cause)
		}
	}
}
