package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"pnstm"
	"pnstm/stmlib"
)

// Cross-shard ordered commit (D29–D31): a mutating OpTx envelope whose
// structures live on several shards commits atomically WITHOUT 2PC
// locks, in the style of deterministic predefined-order databases. A
// global sequencer assigns the envelope a monotone global sequence
// number (GSN) while the coordinator holds a reserved commit-ticket
// position — a reservation its loop is parked in — on EVERY participant
// shard, so the GSN's position in each shard's local commit order is
// pinned before anything executes. Each participant then runs its slice
// of the envelope as a nested child inside its own root transaction
// (the same shape a group commit uses), execution split into three
// phases:
//
//	gather  — every shard executes its slice (map/queue ops, map
//	          guards, counter adds) and reads the counter partials any
//	          global counter read needs, reporting results to the
//	          coordinator while its child transaction stays open;
//	judge   — the coordinator sums the partials, evaluates counter
//	          guards on the global totals, and combines them with the
//	          shards' local guard verdicts into one commit/abort
//	          decision (lowest failing envelope index wins, exactly
//	          like a single-shard envelope);
//	apply   — the verdict is broadcast: on commit every child commits
//	          its writes and each shard that wrote appends ONE
//	          GSN-stamped WAL record holding its write-only slice; on
//	          abort every child returns errRejected and rolls back,
//	          leaving ZERO WAL residue on every shard.
//
// Recovery replays GSN records at their logged positions. Because the
// sequencer takes the GSN only after all participant slots are held,
// any two envelopes sharing a shard are fully serialized, so the GSNs
// in every shard's log are strictly increasing: replaying each log in
// order reproduces the same relative cross-shard positions everywhere.

// Routing outcomes for an OpTx envelope (classifyTx).
const (
	planSingle = iota // the envelope rides shards[target]'s group-commit pipeline
	planFan           // read-only multi-shard: fan the sub-ops (fanTx)
	planCross         // mutating multi-shard: ordered cross-shard commit
)

// sliceItem is one entry of a participant shard's slice of a
// cross-shard envelope, in envelope order: either one of the envelope's
// own sub-ops (executed on this shard) or a partial read serving a
// global counter read (every shard contributes its partial; the
// coordinator sums and judges).
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

// classifyTx resolves an OpTx envelope's route (D27, D29). The
// single-shard and read-only-fan decisions are exactly the pre-D29
// routeTx rules: every map/queue sub-op pins its structure's home
// shard; one pinned shard (or none — a counter-only envelope, routed
// by the first op's name so identical envelopes meet on one shard)
// executes on that shard's pipeline; several pinned shards without
// writes fan. A MUTATING envelope pinned to several shards — refused
// before D29 — now gets a cross plan: each
// participant's slice holds its sub-ops in envelope order, and any
// global counter read inserts a partial item into EVERY shard's slice
// (making all shards participants). Pure function of the envelope and
// the shard count, so it is fuzzable in isolation.
func classifyTx(tx *Tx, n int) txPlan {
	if tx == nil || len(tx.Ops) == 0 || n <= 1 {
		return txPlan{kind: planSingle, target: 0}
	}
	pinned := make(map[int]bool)
	writes := false
	first := -1
	for i := range tx.Ops {
		op := &tx.Ops[i]
		if Mutates(op.Op) {
			writes = true
		}
		if sh, ok := txPinnedShard(op, n); ok {
			pinned[sh] = true
			if first < 0 {
				first = sh
			}
		}
	}
	switch {
	case len(pinned) == 1:
		return txPlan{kind: planSingle, target: first}
	case len(pinned) == 0:
		return txPlan{kind: planSingle, target: stmlib.ShardIndex(tx.Ops[0].Name, n)}
	case !writes:
		return txPlan{kind: planFan}
	}

	plan := txPlan{kind: planCross, slices: make([][]sliceItem, n)}
	part := make(map[int]bool)
	global := false
	for i := range tx.Ops {
		op := &tx.Ops[i]
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

// routeTx resolves an OpTx envelope's route; see classifyTx.
func (s *Server) routeTx(req *Request) txPlan {
	return classifyTx(req.Tx, len(s.shards))
}

// crossReport is one participant's gather-phase report: the results of
// its executed sub-ops, its counter partials for global reads, and its
// first local failure (a false map guard → errRejected, a malformed
// sub-op → anything else), envelope-lowest first within the slice.
type crossReport struct {
	shard    int
	results  map[int]TxResult
	partials map[int]int64
	failIdx  int // -1: clean
	failMsg  string
	failErr  error
}

// executeSlice runs one shard's slice inside its open child
// transaction, in envelope order. On a local failure the rest of the
// slice is abandoned (the envelope is aborting), so partials at
// indices past the failure are missing — the coordinator never uses
// totals past the lowest failing index.
func executeSlice(c *pnstm.Ctx, reg *stmlib.Registry, ops []TxOp, slice []sliceItem, shardID int) crossReport {
	rep := crossReport{
		shard:    shardID,
		results:  make(map[int]TxResult, len(slice)),
		partials: make(map[int]int64),
		failIdx:  -1,
	}
	for _, it := range slice {
		if it.partial {
			rep.partials[it.idx] = reg.Counter(ops[it.idx].Name).SumInline(c)
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

// beginCross admits one cross-shard commit, fencing against shutdown
// the same way shard.submit fences against close: a successful
// beginCross happens-before Close/Kill set crossStopped, so their
// crossWG.Wait provably covers it.
func (s *Server) beginCross() bool {
	s.crossMu.RLock()
	defer s.crossMu.RUnlock()
	if s.crossStopped {
		return false
	}
	s.crossWG.Add(1)
	return true
}

// stopCross refuses new cross-shard commits and waits out the in-flight
// ones. Called by Close after the loops stopped (a coordinator a closed
// shard refused is still releasing its other reservations) and before
// the final WAL sync/close and runtime teardown; by Kill after the
// WALs are abandoned (pending cross appends then fail fast).
func (s *Server) stopCross() {
	s.crossMu.Lock()
	s.crossStopped = true
	s.crossMu.Unlock()
	s.crossWG.Wait()
}

// maxCrossInflight caps concurrent cross-shard coordinators. Well above
// what a closed-loop client population reaches (loadgen's default is 16
// issuing goroutines), so only a pathological flood — an open-loop
// client pipelining cross-shard envelopes faster than the per-shard
// commit pipelines drain them — ever sees the fast-fail.
const maxCrossInflight = 256

// commitCrossShard answers a mutating multi-shard envelope via the
// ordered-commit protocol, asynchronously (the coordinator blocks on
// every participant's commit slot, which can take a group commit's
// latency per shard — the connection's reader loop must not). In-flight
// coordinators are bounded by crossSem; past the cap the envelope is
// refused with a retryable error rather than queued without limit.
func (s *Server) commitCrossShard(req *Request, plan txPlan, deliver func(Response)) {
	select {
	case s.crossSem <- struct{}{}:
	default:
		deliver(Response{ID: req.ID, Status: StatusErr, Msg: "too many in-flight cross-shard transactions; retry"})
		return
	}
	if !s.beginCross() {
		<-s.crossSem
		deliver(Response{ID: req.ID, Status: StatusErr, Msg: "server closing"})
		return
	}
	go func() {
		defer func() {
			<-s.crossSem
			s.crossWG.Done()
		}()
		deliver(s.runCrossShard(req, &plan))
	}()
}

func (s *Server) runCrossShard(req *Request, plan *txPlan) Response {
	ops := req.Tx.Ops

	// Reserve: park every participant's loop, in ascending shard-id
	// order — the same order Export uses, so coordinators, checkpoints
	// and exports can never deadlock, and any two envelopes sharing a
	// shard fully serialize.
	parts := make([]*shard, len(plan.participants))
	for i, id := range plan.participants {
		parts[i] = s.shards[id]
	}
	release, err := pauseAll(parts)
	if err != nil {
		return Response{ID: req.ID, Status: StatusErr, Msg: "server closing"}
	}
	defer release()

	// The GSN is taken only AFTER all slots are held: any envelope that
	// logged on a shared shard earlier held that shard's slots earlier,
	// hence drew its (smaller) GSN before this one — so the GSNs in each
	// shard's log are strictly increasing, and replaying every log in
	// order reproduces the same relative cross-shard positions (D30).
	gsn := s.gsn.Add(1)

	// Gather: each participant runs its slice as a nested child of its
	// own root transaction and blocks inside the child on the verdict.
	// The loops are parked (and checkpoints queue behind the same
	// reservations), so each root runs ALONE on its shard's runtime: the
	// child cannot conflict with anything, hence executes exactly once —
	// which is what lets it report and await a verdict from inside its
	// body.
	nPart := len(plan.participants)
	reports := make(chan crossReport, nPart)
	verdicts := make([]chan bool, nPart)
	runErrs := make([]error, nPart)
	var wg sync.WaitGroup
	for pi, id := range plan.participants {
		pi, sh := pi, s.shards[id]
		verdicts[pi] = make(chan bool, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reported := false
			err := sh.rt.Run(func(c *pnstm.Ctx) {
				if sh.rt.TracingEnabled() {
					// Trace identity: the GSN is the envelope's batch ticket
					// on every participant, so one cross-shard commit's events
					// correlate across all the shards' recorders (D35).
					c.StampTrace(gsn, uint8(sh.id))
					c.SetTraceTag(requestTraceTag(req))
				}
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					rep := executeSlice(c, sh.reg, ops, plan.slices[sh.id], sh.id)
					reported = true
					reports <- rep
					if <-verdicts[pi] {
						return nil
					}
					return errRejected // whole-envelope rollback: zero residue
				})
			})
			runErrs[pi] = err
			if !reported {
				// The runtime refused the root (shutting down): stand in for
				// the missing report so the coordinator cannot block.
				if err == nil {
					err = fmt.Errorf("shard %d did not execute its slice", sh.id)
				}
				reports <- crossReport{shard: sh.id, failIdx: 0, failErr: err}
			}
		}()
	}

	// Judge: collect every report, sum the partials, evaluate counter
	// guards on the global totals, pick the lowest failing envelope
	// index across local (map guard, malformed) and global (counter
	// guard) failures — the same deterministic rule a single-shard
	// envelope applies.
	merged := make([]TxResult, len(ops))
	totals := make(map[int]int64)
	var first *txOpFailure
	for i := 0; i < nPart; i++ {
		rep := <-reports
		for idx, res := range rep.results {
			merged[idx] = res
		}
		for idx, p := range rep.partials {
			totals[idx] += p
		}
		if rep.failErr != nil && (first == nil || rep.failIdx < first.idx) {
			first = &txOpFailure{idx: rep.failIdx, err: rep.failErr, msg: rep.failMsg}
		}
	}
	for i := range ops {
		t, global := totals[i]
		if !global {
			continue
		}
		if first != nil && first.idx < i {
			break // totals past the failure are incomplete AND irrelevant
		}
		merged[i] = TxResult{Status: StatusOK, Num: t}
		if msg, ok := judgeCounterGuard(&ops[i], t); !ok {
			merged[i].Status = StatusRejected
			first = &txOpFailure{idx: i, err: errRejected, msg: msg}
			break
		}
	}

	if first != nil {
		for j := first.idx + 1; j < len(merged); j++ {
			merged[j] = TxResult{} // rolled back; mirror fanTx's abort shape
		}
	}
	// Every slice's results fit a frame on their own (each scan is bounded
	// by maxReplyBytes); merged they may not. An answer that cannot reach
	// its caller must not commit — the rule applyTx keeps for one shard.
	sizeErr := checkReplySize(merged)

	// Apply: broadcast the verdict and wait for every child to commit
	// (or roll back) and its root to return.
	commit := first == nil && sizeErr == nil
	for _, v := range verdicts {
		v <- commit
	}
	wg.Wait()

	switch {
	case first != nil && !errors.Is(first.err, errRejected):
		return Response{ID: req.ID, Status: StatusErr, Msg: fmt.Sprintf("op %d: %v", first.idx, first.err)}
	case sizeErr != nil:
		return Response{ID: req.ID, Status: StatusErr, Msg: sizeErr.Error()}
	case first != nil:
		return Response{ID: req.ID, Status: StatusRejected, Num: int64(first.idx), Msg: first.msg, TxResults: merged}
	}
	for _, err := range runErrs {
		if err != nil {
			// A participant's root failed AFTER the commit verdict (runtime
			// tearing down): other participants may have committed their
			// slices, so memory can no longer be trusted to match any log.
			// Latch every participant's WAL rather than log a half-applied
			// envelope.
			s.failWALs(plan.participants, err)
			return Response{ID: req.ID, Status: StatusErr, Msg: "cross-shard commit: " + err.Error()}
		}
	}

	// Log: one GSN record per shard whose slice actually wrote.
	if s.shards[0].wal != nil {
		logSet := make([]int, 0, nPart)
		logReqs := make(map[int]*Request, nPart)
		for _, id := range plan.participants {
			if sub := crossWriteSlice(ops, plan.slices[id], merged); sub != nil {
				logSet = append(logSet, id)
				logReqs[id] = sub
			}
		}
		if err := s.appendGSNRecords(gsn, logSet, logReqs); err != nil {
			return Response{ID: req.ID, Status: StatusErr, Msg: "wal: " + err.Error()}
		}
	}
	return Response{ID: req.ID, Status: StatusOK, TxResults: merged}
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

// appendGSNRecords makes one committed cross-shard envelope durable:
// every writing shard appends its GSN record — same GSN, same logging
// set, its own write slice — concurrently, each append fsyncing its own
// shard's log per Options.Fsync before returning. All-or-error: a
// failed append latches EVERY writing shard's log (wal.Fail), not only
// its own, because the envelope is already applied in every shard's
// memory — a shard that kept logging (or checkpointing) past a GSN its
// peers never made durable would recover divergent state. Recovery
// reconciles a torn tail instead: a GSN present on some shards but
// missing (and not snapshot-covered) on another is dropped everywhere
// (see reconcileGSNs).
func (s *Server) appendGSNRecords(gsn uint64, logSet []int, logReqs map[int]*Request) error {
	if len(logSet) == 0 {
		return nil
	}
	bodies := make(map[int][]byte, len(logSet))
	for _, id := range logSet {
		body, err := encodeGSNRecord(gsn, logSet, logReqs[id])
		if err != nil {
			s.failWALs(logSet, err)
			return err
		}
		bodies[id] = body
	}
	errs := make([]error, len(logSet))
	var wg sync.WaitGroup
	for i, id := range logSet {
		i, sh := i, s.shards[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sh.wal.Append(bodies[sh.id]); err != nil {
				errs[i] = err
				return
			}
			// Safe to publish per shard: this shard's GSN sequence is
			// strictly increasing (see runCrossShard), and the slots are
			// still held, so no checkpoint can capture the watermark early.
			sh.maxGSN.Store(gsn)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.failWALs(logSet, err)
			return err
		}
	}
	return nil
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
