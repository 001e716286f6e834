package core

import (
	"sync"
	"sync/atomic"

	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

// txDesc is a transaction descriptor (paper §4.1). A transaction is
// identified by the pair (bitnum, epoch range) and positioned in the tree
// by its ancestor set; begin, commit and abort bookkeeping are all O(1)
// regardless of nesting depth.
type txDesc struct {
	// bitnum identifies the transaction while it is active. Borrowed
	// transactions share their parent's bitnum (§6.2).
	bitnum bitvec.Bitnum

	// anc is the ancestor set at begin time (self included). It is an
	// immutable snapshot: child blocks read it when they are dispatched
	// and apply their own erasures (ARCHITECTURE.md D11); the owning context
	// keeps the live, erased version in Ctx.ancBase.
	anc bitvec.Vec

	// beginEp is the first epoch at which the transaction was active.
	beginEp epoch.Epoch

	// parent is the enclosing transaction, nil for roots.
	parent *txDesc

	// borrowed marks a single-child transaction using its parent's bitnum;
	// its commit is an identity merge and must not be published (D4).
	borrowed bool

	// depth is the nesting depth (0 for roots), recorded into lifecycle
	// trace events (D35). Saturates at 255 — deeper than any real tree.
	depth uint8

	// liveBlocks counts unfinished blocks whose base transaction is this
	// one, across every fork made in its context (including bare forks by
	// descendant blocks that started no transaction of their own). The
	// §6.2 single-child optimizations are only sound against the whole
	// set: a block may borrow this transaction's bitnum only when it is
	// the sole live block (liveBlocks == 1 — stable, because the only
	// block that could fork more is the observer itself, and the
	// transaction's own context is parked on the last join), and a
	// finishing sibling may unilaterally discard the last remaining
	// block's bitnum only when the two of them are all that is left
	// (liveBlocks == 2). Checking only one join's count is unsound: bare
	// nested forks put several simultaneously active joins under one
	// transaction (ARCHITECTURE.md D15).
	liveBlocks atomic.Int32

	// forked is set, once, by the first Parallel that queues blocks under
	// this transaction: from then on child blocks hold pointers to it (a
	// finishing child still decrements liveBlocks after the join has
	// resumed the forker), so when it ends it is left to the garbage
	// collector. A transaction that never forked is known to its own
	// context alone and is reused by that context's next begin (D53).
	forked bool

	// Undo log: a newest-first list of fixed-size chunks of records. The
	// log exists so that aborting a transaction — including one whose
	// children already committed into it — can restore every overwritten
	// value; commit splices the whole chunk list into the parent in O(1),
	// which is what keeps commit depth-independent while still supporting
	// cascading undo (ARCHITECTURE.md D6).
	//
	// Concurrency: only sibling child transactions committing in parallel
	// can race on a parent's list (the owner is parked at the fork while
	// children run), so splices take undoMu; the owner's own pushes do not.
	undoMu   sync.Mutex
	undoHead *undoChunk
	undoTail *undoChunk
	writes   int
}

// undoRec records one overwritten value, or — for shared reads — one
// reader entry to retract on abort. Each write record corresponds to one
// entry pushed on obj's access stack (except in serial mode, where stacks
// hold at most one entry and rollback restores the value and drops
// whatever entry is there). Read records exist because an aborted
// transaction's bitnum is never published while its block lives, so a
// leftover reader entry would block every non-ancestor writer
// indefinitely: two mutually conflicting retry loops that both read before
// writing would livelock (ARCHITECTURE.md D16).
type undoRec struct {
	obj *Object

	// saved is the overwritten value. A read record has none and keeps the
	// reader entry's ancestor set in saved.W, the word a write record only
	// ever copies: the record stays 56 bytes whichever kind it is (D52).
	saved Value

	// read marks a reader-entry retraction record; saved.W/ep identify the
	// entry as recorded at append time.
	read bool
	ep   epoch.Epoch

	// seq identifies the stack entry this write record pushed (D16).
	seq uint64
}

// undoChunkLen is the number of records per chunk: with 56-byte records and
// the 16-byte header a chunk is exactly the allocator's 1 KiB size class.
// Every transaction that logs anything holds at least one chunk until its
// log is spliced away or dies, so the length trades how often a write-heavy
// leaf goes to the pool against the footprint of the server's one- and
// two-record request transactions.
const undoChunkLen = 18

// undoChunk is one link of an undo log: recs[:n] are filled oldest-first,
// next is the next-older chunk. A chunk that stops being a log's head —
// because a full one was put in front of it, or a child's log was spliced
// in front of it — is never appended to again, so chunks behind the head
// may be partly filled.
type undoChunk struct {
	next *undoChunk
	n    int
	recs [undoChunkLen]undoRec
}

// undoChunks recycles chunks across transactions and runtimes. A chunk is
// put back by releaseUndo — at the two places a log dies, and when a splice
// copies a child's one chunk into its parent's — and nowhere else.
var undoChunks = sync.Pool{New: func() any { return new(undoChunk) }}

// undoSlot returns the next free record of the log, taking a chunk from the
// pool when the head chunk is full (or there is none yet).
func (tx *txDesc) undoSlot() *undoRec {
	ch := tx.undoHead
	if ch == nil || ch.n == undoChunkLen {
		ch = undoChunks.Get().(*undoChunk)
		ch.n = 0
		ch.next = tx.undoHead
		tx.undoHead = ch
		if tx.undoTail == nil {
			tx.undoTail = ch
		}
	}
	r := &ch.recs[ch.n]
	ch.n++
	return r
}

// pushUndo logs a write record as the newest of the log. Owner-only; no
// locking required (see undoMu doc above). seq identifies the pushed stack
// entry (0 in serial mode, where rollback looks for no particular entry).
func (tx *txDesc) pushUndo(o *Object, saved Value, seq uint64) {
	// Field by field: a composite literal is built on the stack in 8-byte
	// stores and copied out in 16-byte loads, which the store buffer cannot
	// forward (~10 ns per record on this path).
	r := tx.undoSlot()
	r.obj, r.saved, r.seq = o, saved, seq
	r.read, r.ep = false, 0
	tx.writes++
}

// pushReadUndo logs a reader-entry retraction record as the newest of the
// log.
func (tx *txDesc) pushReadUndo(o *Object, anc bitvec.Vec, ep epoch.Epoch) {
	r := tx.undoSlot()
	r.obj, r.saved, r.seq = o, Value{W: uint64(anc)}, 0
	r.read, r.ep = true, ep
}

// spliceInto merges this transaction's undo log into parent in O(1),
// preserving newest-first order: everything this transaction (and its
// already-merged descendants) wrote is newer than what the parent had
// logged before. A one-chunk log that fits in the free records of the
// parent's head chunk is copied there and its chunk released (at most
// undoChunkLen records); any other log is linked in front of the parent's
// — two pointer writes, whatever the number of records or chunks — and the
// parent's former head chunk ends up behind this log's tail, possibly
// partly filled, while the parent's next push goes into this log's head
// chunk. Copying keeps a transaction that commits many small children from
// holding one chunk per child until its root ends.
func (tx *txDesc) spliceInto(parent *txDesc, released func(*undoChunk)) {
	ch := tx.undoHead
	if ch == nil {
		return
	}
	parent.undoMu.Lock()
	parent.writes += tx.writes
	if head := parent.undoHead; ch.next == nil && head != nil && head.n+ch.n <= undoChunkLen {
		head.n += copy(head.recs[head.n:], ch.recs[:ch.n])
		parent.undoMu.Unlock()
		tx.releaseUndo(released)
		return
	}
	tx.undoTail.next = parent.undoHead
	parent.undoHead = ch
	if parent.undoTail == nil {
		parent.undoTail = tx.undoTail
	}
	parent.undoMu.Unlock()
	tx.undoHead, tx.undoTail, tx.writes = nil, nil, 0
}

// releaseUndo returns a dead log's chunks to the pool. The used records are
// zeroed first, so a pooled chunk never keeps a user value or an object
// reachable. The caller must be the only holder of the log: rollback, once
// it has walked it, the commit of a root, whose log nothing can undo any
// more, and a splice that copied the records out. released is
// Runtime.undoReleaseHook, nil outside tests.
func (tx *txDesc) releaseUndo(released func(*undoChunk)) {
	for ch := tx.undoHead; ch != nil; {
		next := ch.next
		clear(ch.recs[:ch.n])
		ch.next = nil
		if released != nil {
			released(ch)
		}
		undoChunks.Put(ch)
		ch = next
	}
	tx.undoHead, tx.undoTail, tx.writes = nil, nil, 0
}
