package core

import (
	"time"

	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

// Ctx is an execution context: the paper's "thread Ti" state (§3) bound to
// whatever worker slot currently runs this block. It carries the current
// epoch, the current transaction, the live (erased) ancestor set and the
// committed-descendant notes.
//
// A Ctx is confined to one goroutine; contexts are handed to block
// programs and must not be shared or retained past the block's lifetime.
// Its storage is recycled with the block's fork frame (D53): a Ctx
// retained past its block's end aliases another block's context.
type Ctx struct {
	rt    *Runtime
	block *block
	slot  *slot

	// ep is the context's current epoch (paper Ti.ep). Monotone.
	ep epoch.Epoch

	// bn is the bitnum this context's transactions use: the block's
	// reserved bitnum, or the base transaction's after borrowing.
	bn bitvec.Bitnum

	// aborts counts consecutive aborts of the innermost transaction, for
	// backoff and slot yielding. Beside bn, in what would be its padding.
	aborts int32

	// baseTx is the transaction in which the current block-level code
	// runs; cur is the innermost active transaction (== baseTx outside
	// inner atomics). Both may be nil at a root block.
	baseTx *txDesc
	cur    *txDesc

	// ancBase is the live ancestor set of cur (or of baseTx/nothing when
	// no inner transaction is active): the begin-time snapshot with every
	// erasure applied (§6.2). Entries are pushed with this value.
	ancBase bitvec.Vec

	// comDesc holds the committed-but-possibly-unpublished descendant
	// notes visible to this context (paper §5.2), in noteBuf until a fifth
	// live note.
	comDesc []comNote
	noteBuf [4]comNote

	// spare heads the descriptors the next begins may use instead of
	// allocating: a LIFO list linked through their parent fields, holding
	// every transaction this context finished without forking under it,
	// the block's tx0 in front until it forks. No other goroutine ever held
	// a pointer to such a descriptor, so the list outlives the block: a
	// recycled frame hands its heap part to the next block run in it
	// (block.reset). It is never longer than the context's deepest
	// non-forked nesting (D53).
	spare *txDesc

	// panicVal carries a panic out of the block program to finishBlock.
	panicVal any

	traceIdent
}

// traceIdent is a context's trace identity (D35): traceRoot is the
// runtime-wide ticket of the current root-transaction lineage (assigned at
// the first traced root begin, inherited by forked blocks),
// traceBatch/traceShard are server stamps, and traceTag labels the current
// unit of work (the server stamps each request's structure and key; the
// label is only rendered when a trace snapshot is read). traceTS caches the
// root begin's wall clock so begin/commit events in the subtree skip the
// clock read, and traceSkip marks a root the lifecycle sampler chose not to
// record (conflict events record regardless, D38). Parallel copies the
// whole of it into each forked block's context.
type traceIdent struct {
	traceRoot  uint64
	traceBatch uint64
	traceTS    int64
	traceTag   traceTag
	traceShard uint8
	traceSkip  bool
}

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// adoptSlot binds the context to a worker slot and raises its epoch to at
// least minEp, applying the §6.2 erase across the move. extraErase lists
// additional epochs whose committed masks must be subtracted — in
// particular the block's minimum epoch at dispatch, which is what catches
// unilaterally discarded ancestor bitnums when the dispatch epoch jumps
// past their publication horizon (ARCHITECTURE.md D11).
func (c *Ctx) adoptSlot(sl *slot, minEp epoch.Epoch, extraErase ...epoch.Epoch) {
	target := epoch.Max(c.ep, minEp)
	// Callers pass at most two extra epochs; the fixed buffer keeps the
	// erase list on the stack.
	var buf [4]epoch.Epoch
	eps := append(append(buf[:0], extraErase...), c.ep, target)
	c.ancBase = c.rt.st.Erase(c.ancBase, eps...)
	c.ep = target
	c.slot = sl
	sl.publish(target)
}

// advanceEpoch moves the context one epoch forward (paper commitTx line 2),
// running the §6.2 erase first.
func (c *Ctx) advanceEpoch() {
	if !c.rt.cfg.Serial {
		c.ancBase = c.rt.st.Erase(c.ancBase, c.ep, c.ep+1)
	}
	c.ep++
	if c.slot != nil {
		c.slot.publish(c.ep)
	}
}

// refreshAnc re-applies the erase to the live ancestor set at the current
// epoch (used on the conflict-test slow path, D11).
func (c *Ctx) refreshAnc() {
	c.ancBase = c.rt.st.Erase(c.ancBase, c.ep)
}

// noteBlockPanic records a panic raised by the block program so
// finishBlock can propagate it through the join.
func (c *Ctx) noteBlockPanic(v any) { c.panicVal = v }

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

// Atomic runs fn as a transaction: a child of the block's base transaction,
// or a root transaction when none is active. Conflicts roll the transaction
// back and retry fn with randomized backoff; a non-nil error from fn aborts
// the transaction (all its writes, including those of already committed
// descendants, are undone) and is returned.
//
// An Atomic inside an Atomic is the paper's footnote-3 case: it runs as a
// single-child transaction borrowing the parent's bitnum, exactly as if the
// program had been rewritten atomic{ parallel{ atomic{...} } }.
func (c *Ctx) Atomic(fn func(*Ctx) error) error {
	if c.cur != c.baseTx {
		// Nested atomic: re-base so the new transaction is a child of the
		// innermost one (implicit single-child parallel block).
		saved := c.baseTx
		savedAborts := c.aborts
		c.baseTx = c.cur
		c.rt.stats.inlineChildren.Add(1)
		// Restore deferred: an escalation panic from the recursive call
		// unwinds through this frame into the enclosing Atomic's recover.
		// baseTx must come back so the enclosing retry re-bases correctly,
		// and the consecutive-abort counter is per Atomic INVOCATION but
		// lives on the shared Ctx — the recursive call resets it, and
		// without the restore an outer Atomic whose body enters a nested
		// Atomic on every attempt can never accumulate aborts, absorbing
		// its children's escalations forever instead of propagating the
		// conflict toward the root.
		defer func() {
			c.baseTx = saved
			c.aborts = savedAborts
		}()
		return c.Atomic(fn)
	}
	c.aborts = 0
	for {
		tx := c.begin()
		// popTx relinks tx.parent into the spare list: read it here.
		nested := tx.parent != nil
		err, conflicted, confObj, pval, panicked := c.runBody(fn)
		switch {
		case conflicted:
			c.rollback(tx)
			c.popTx(tx)
			c.rt.stats.aborted.Add(1)
			c.aborts++
			if c.rt.tracing() {
				c.traceEvent(EvAbort, tx.depth, objLabel(confObj))
			}
			if c.mergedVictim() && nested {
				// This block's bitnum was unilaterally discarded: its
				// transactions run under the base transaction's identity,
				// so siblings may already have read its (now undone)
				// writes. Retrying locally could commit tainted state
				// elsewhere — the only consistent resolution is to abort
				// the whole base transaction (D16).
				c.rt.stats.escalations.Add(1)
				if c.rt.tracing() {
					c.traceEvent(EvEscalate, tx.depth, objLabel(confObj))
				}
				panic(conflictSignal{obj: confObj})
			}
			if nested && int(c.aborts) >= c.rt.cfg.EscalateAfterAborts {
				// Nesting-aware contention management: retrying here can
				// deadlock when the conflicting entry belongs to another
				// parked parent's lineage (its committed child's write).
				// Propagate the conflict upward instead — the parent's
				// Atomic catches the signal (directly for inline children,
				// via the join's panic channel for forked blocks), rolls
				// back everything its subtree committed, and retries the
				// whole fork with backoff.
				c.rt.stats.escalations.Add(1)
				c.aborts = 0
				if c.rt.tracing() {
					c.traceEvent(EvEscalate, tx.depth, objLabel(confObj))
				}
				panic(conflictSignal{obj: confObj})
			}
			c.backoff()
		case panicked:
			c.rollback(tx)
			c.popTx(tx)
			c.rt.stats.userAbort.Add(1)
			panic(pval)
		case err != nil:
			c.rollback(tx)
			c.popTx(tx)
			c.rt.stats.userAbort.Add(1)
			return err
		default:
			c.commit(tx)
			return nil
		}
	}
}

// runBody invokes fn, translating a conflictSignal unwind into the
// conflicted flag (keeping the conflicting object for attribution) and
// capturing user panics.
func (c *Ctx) runBody(fn func(*Ctx) error) (err error, conflicted bool, confObj *Object, pval any, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if sig, ok := r.(conflictSignal); ok {
				conflicted, confObj = true, sig.obj
				return
			}
			pval, panicked = r, true
		}
	}()
	err = fn(c)
	return
}

// begin starts a transaction (paper beginTx): O(1), no locking.
func (c *Ctx) begin() *txDesc {
	// A remote (unilateral) discard of the block's bitnum switches every
	// subsequent transaction to borrowed mode (§6.2).
	if c.block != nil && !c.block.borrowed && c.baseTx != nil &&
		c.bn != c.baseTx.bitnum && c.block.bnDiscarded.Load() {
		c.bn = c.baseTx.bitnum
		c.rt.stats.borrowSwitch.Add(1)
	}
	borrowed := c.cur != nil && c.cur.bitnum == c.bn
	anc := c.ancBase
	if borrowed {
		// Distinct epochs separate a borrowed child's pushes from its
		// parent's, preserving per-child undo granularity (D4).
		c.advanceEpoch()
		// A borrowed transaction's identity IS its parent's: use the live
		// ancestor set as-is. Re-adding the bitnum would resurrect it if
		// the parent's bitnum was unilaterally discarded and erased (D11).
		anc = c.ancBase
	} else {
		// A freshly reserved bitnum is never stale; add it.
		anc = c.ancBase.Add(c.bn)
	}
	// A spare descriptor is all zero apart from these six fields, its
	// parent the spare list's link: it never forked, and its undo log was
	// spliced away or released when it ended. Field by field — it holds a
	// mutex and an atomic.
	tx := c.spare
	if tx != nil {
		c.spare = tx.parent
	} else {
		tx = new(txDesc)
	}
	tx.bitnum, tx.anc, tx.beginEp, tx.parent, tx.borrowed = c.bn, anc, c.ep, c.cur, borrowed
	tx.depth = 0
	if tx.parent != nil {
		tx.depth = tx.parent.depth
		if tx.depth < 255 {
			tx.depth++
		}
	}
	c.cur = tx
	c.ancBase = tx.anc
	c.rt.stats.begun.Add(1)
	if c.rt.tracing() {
		if tx.parent == nil && c.traceRoot == 0 {
			// One ticket, one clock read and one sampling decision per
			// root lineage; the whole subtree inherits all three (D38).
			c.traceRoot = c.rt.rootSeq.Add(1)
			c.traceTS = time.Now().UnixNano()
			if every := c.rt.rec.sample.Load(); every > 1 && c.traceRoot%every != 0 {
				c.traceSkip = true
			}
		}
		if !c.traceSkip {
			c.traceEvent(EvBegin, tx.depth, "")
		}
	}
	if hook := c.rt.testHook; hook != nil {
		hook("BEGIN bn=%v borrowed=%v anc=%v ep=%d block=%p", tx.bitnum, borrowed, tx.anc, c.ep, c.block)
	}
	return tx
}

// commit finishes the current transaction (paper commitTx): record the
// commit epoch for the publisher (unless borrowed, D4), advance the epoch,
// and splice the undo log into the parent in O(1). A root has no parent to
// undo it: its log dies here and its chunks go back to the pool (D6).
func (c *Ctx) commit(tx *txDesc) {
	if !tx.borrowed && !c.rt.cfg.Serial && !c.bnWasDiscarded(tx) {
		c.rt.st.RecordCommit(tx.bitnum, c.ep)
	}
	c.advanceEpoch()
	if tx.parent != nil {
		tx.spliceInto(tx.parent, c.rt.undoReleaseHook)
	} else {
		tx.releaseUndo(c.rt.undoReleaseHook)
	}
	c.popTx(tx)
	c.rt.stats.committed.Add(1)
	if c.rt.tracing() && !c.traceSkip {
		c.traceEvent(EvCommit, tx.depth, "")
	}
}

// bnWasDiscarded reports whether tx's bitnum was discarded out from under
// its block (unilateral discard, §6.2). Such a transaction must not
// publish commits: its bitnum's committed masks are finalized and the
// bitnum may already be re-used (D11).
func (c *Ctx) bnWasDiscarded(tx *txDesc) bool {
	return c.block != nil && tx.bitnum == c.block.bn && c.block.bnDiscarded.Load()
}

// mergedVictim reports whether this context's block had its bitnum
// unilaterally discarded while running: its transactions have been merged
// into the base transaction's identity. (A self-discard only happens at
// block finish, after the last transaction; a steal-borrowed block never
// reserved a bitnum.)
func (c *Ctx) mergedVictim() bool {
	return c.block != nil && !c.block.borrowed && c.block.bn.Valid() &&
		c.block.bnDiscarded.Load()
}

// popTx restores the context to the parent transaction. The parent's
// ancestor set is a begin-time snapshot, so the erase is applied against
// the parent's begin epoch as well as the current one: a unilaterally
// discarded bitnum is always published through any epoch at which it was
// still in a live ancestor set (D11).
//
// This is where every transaction ends, committed or rolled back, so it is
// also where a descriptor no block was ever forked under — one no other
// goroutine has seen — goes on the context's spare list, its parent field
// the link (D53). Past this call tx.parent is no longer the parent.
func (c *Ctx) popTx(tx *txDesc) {
	c.cur = tx.parent
	if !tx.forked {
		tx.parent, c.spare = c.spare, tx
	}
	if c.cur != nil {
		if c.rt.cfg.Serial {
			c.ancBase = c.cur.anc
		} else {
			c.ancBase = c.rt.st.Erase(c.cur.anc, c.cur.beginEp, c.ep)
		}
	} else {
		c.ancBase = 0
	}
}

// rollback undoes every write of tx — its own and those merged from
// committed descendants — newest first (chunks head-first, each chunk from
// its last record down), popping the matching stack entries, and then
// recycles the log's chunks. A rolling-back transaction has no active
// descendants (only the innermost running transaction aborts), so its
// entries are on top of every stack it touched.
func (c *Ctx) rollback(tx *txDesc) {
	serial := c.rt.cfg.Serial
	// floors remembers, per object, the oldest (lowest-seq) record restored
	// so far. After a unilateral discard, splice order can disagree with
	// per-object stack order (a merged victim's entries may sit below a
	// sibling's), so value restoration must be guarded: only a record
	// older than everything restored so far may write the value (D16).
	// A newer record for the same object can only still be pending when
	// its entry sits above this record's on the stack, so the map is
	// created — and from then on consulted — only once a record's entry is
	// found anywhere but on top; a rollback in plain LIFO order never
	// allocates it.
	var floors map[*Object]uint64
	for ch := tx.undoHead; ch != nil; ch = ch.next {
		for i := ch.n - 1; i >= 0; i-- {
			r := &ch.recs[i]
			o := r.obj
			if r.read {
				// Retract the reader entry: an aborted reader's bitnum is
				// never published, so leaving it would block non-ancestor
				// writers until the block's discard (D16).
				o.mu.lock()
				o.readers.retract(bitvec.Vec(r.saved.W), r.ep)
				o.mu.unlock()
				continue
			}
			if serial {
				// The entry goes with the value: the aborted transaction's
				// epoch window stays open for whoever begins next in this
				// context, and a kept entry would read as that one's own.
				o.val = r.saved
				o.stack = o.stack[:0]
				continue
			}
			o.mu.lock()
			// Remove exactly this record's entry, wherever it sits (usually
			// the top). An entry that is not found counts as out of order.
			onTop := false
			for j := len(o.stack) - 1; j >= o.head; j-- {
				if o.stack[j].seq == r.seq {
					onTop = j == len(o.stack)-1
					copy(o.stack[j:], o.stack[j+1:])
					o.stack[len(o.stack)-1] = objEntry{}
					o.stack = o.stack[:len(o.stack)-1]
					break
				}
			}
			restore := true
			if floors != nil {
				if floor, ok := floors[o]; ok {
					restore = r.seq < floor
				}
			}
			if restore {
				o.val = r.saved
				if !onTop {
					if floors == nil {
						floors = make(map[*Object]uint64, 8)
					}
					floors[o] = r.seq
				}
			}
			o.mu.unlock()
		}
	}
	tx.releaseUndo(c.rt.undoReleaseHook)
}

// Retry pacing after an abort (ARCHITECTURE.md D6): a randomized backoff
// from backoffBase doubling to backoffMax, and the worker slot yielded from
// the yieldAfterAborts-th consecutive abort on.
const (
	yieldAfterAborts = 3
	backoffBase      = 500 * time.Nanosecond
	backoffMax       = 100 * time.Microsecond
)

// backoff sleeps for a randomized, exponentially growing interval after an
// abort, and yields the worker slot after repeated failures so that queued
// blocks — possibly the descendants whose completion will resolve the
// conflict — can run (ARCHITECTURE.md D6).
func (c *Ctx) backoff() {
	if c.rt.cfg.Serial {
		return
	}
	if c.aborts >= yieldAfterAborts && c.slot != nil {
		c.rt.stats.slotYields.Add(1)
		c.yieldSlot()
	}
	d := backoffBase << min(c.aborts, 16)
	if d > backoffMax {
		d = backoffMax
	}
	if c.slot != nil && d > 0 {
		d = time.Duration(c.slot.rng.Int63n(int64(d))) + 1
	}
	time.Sleep(d)
}

// yieldSlot releases the worker slot to the scheduler and re-acquires one,
// letting queued blocks run in between.
func (c *Ctx) yieldSlot() {
	ch := oneShots.Get().(chan joinPayload)
	c.rt.sched.parkWaiter(c.slot, ch)
	c.slot = nil
	c.adoptSlot(await(ch).slot, c.ep)
}

// ---------------------------------------------------------------------------
// Fork–join
// ---------------------------------------------------------------------------

// Parallel runs the given functions as parallel sibling blocks of the
// current transaction (paper §3.1) and returns when all of them have
// completed. Transactions they start become parallel children of the
// current transaction.
//
// A single function runs inline as a single-child block, borrowing the
// current bitnum (§6.2 case i). When the parent limiter is exhausted, the
// leading functions are serialized inline — re-checking for capacity in
// between — exactly as the paper degrades parallel{b1,..,bn} into b1
// followed by parallel{b2,..,bn} (§6.2 case ii). In the serial-nesting
// baseline mode every function runs inline.
func (c *Ctx) Parallel(fns ...func(*Ctx)) {
	if len(fns) == 0 {
		return
	}
	if c.rt.cfg.Serial {
		for _, fn := range fns {
			c.runInlineChild(fn)
		}
		return
	}
	rest := fns
	for len(rest) > 1 {
		if c.rt.limiter.TryAcquire() {
			break
		}
		c.rt.stats.serializedFork.Add(1)
		c.runInlineChild(rest[0])
		rest = rest[1:]
	}
	if len(rest) == 1 {
		c.runInlineChild(rest[0])
		return
	}
	// Limiter slot acquired: fork for real. One pooled frame holds the join
	// and the blocks, each block its context and first descriptor (D53).
	if tx := c.cur; tx != nil {
		tx.liveBlocks.Add(int32(len(rest)))
		// Children will keep a pointer to tx, so it must never be handed out
		// again. A bare fork by one of tx's own child blocks finds the flag
		// set and must not store beside its siblings.
		if !tx.forked {
			tx.forked = true
		}
	}
	// A child's transactions begin after every entry this context pushed. A
	// child whose bitnum is unilaterally discarded mid-transaction (§6.2)
	// is left with its parent's ancestor set, so only the epoch tells the
	// parent's entries from its own (D4): one at the same epoch would read
	// as its own and be written in place with no undo record.
	c.advanceEpoch()
	// One reference per child and one for this context; the frame pins the
	// forker's own, where the children's base transaction and notes may be.
	f := frames.Get().(*fork)
	f.refs.Store(int32(len(rest)) + 1)
	f.up = c.block.frame
	f.up.refs.Add(1)
	j := &f.join
	j.minEp = c.ep
	j.unfinished.Store(int32(len(rest)))
	j.resume = oneShots.Get().(chan joinPayload)
	blocks := f.inline[:] // len(rest) >= 2: a single function ran inline
	if len(rest) > len(blocks) {
		if len(f.wide) < len(rest) {
			f.wide = make([]block, len(rest))
		}
		blocks = f.wide[:len(rest)]
	}
	// Each child copies the notes it is handed: drop the published ones
	// first, as its own finish would.
	c.comDesc = c.rt.cleanNotes(c.comDesc)
	for i, fn := range rest {
		b := &blocks[i]
		b.program, b.baseTx, b.minEp, b.succ, b.comDesc, b.frame = fn, c.cur, c.ep, j, c.comDesc, f
		b.ctx.traceIdent = c.traceIdent
	}
	forkEp := c.ep
	sl := c.slot
	c.slot = nil
	c.rt.sched.enqueueAndRelease(blocks, sl)
	p := await(j.resume)
	c.rt.stats.handoffs.Add(1)
	// The erase against the fork-time epoch catches bitnums whose discard
	// was published while we were parked, even when the resume epoch jumps
	// past their publication horizon (D11).
	c.adoptSlot(p.slot, p.minEp, forkEp)
	c.comDesc = mergeNotes(c.comDesc, p.comDesc)
	// p.comDesc may be the join's own buffer: only now is it read.
	f.release()
	c.rt.limiter.Release()
	if p.ppanic {
		panic(p.pval)
	}
}

// runInlineChild runs fn as an inline single-child block: same goroutine,
// same slot, same bitnum (its transactions borrow the current one's).
func (c *Ctx) runInlineChild(fn func(*Ctx)) {
	saved := c.baseTx
	c.baseTx = c.cur
	c.rt.stats.inlineChildren.Add(1)
	defer func() { c.baseTx = saved }()
	fn(c)
}
