package core

import (
	"sync"
	"sync/atomic"

	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

// block encapsulates a program fragment that a worker slot can run
// (paper §3). A block is created waiting or enqueued, and runs exactly
// once. The bitnum is assigned at dispatch time ("steal-time", §3.2) and
// is used for every transaction the block initiates.
//
// A block carries, by value, the context it will run in and the storage of
// the first transaction that context begins: the blocks of one Parallel
// call, their contexts, those descriptors and the join are one allocation
// (the fork frame, ARCHITECTURE.md D53).
type block struct {
	program func(*Ctx)

	// ctx is the context the block runs in, set up in place at dispatch
	// (initCtx); tx0 is what its first begin hands out.
	ctx Ctx
	tx0 txDesc

	// baseTx is the transaction in which the block starts (paper b.baseTx);
	// nil when the block runs outside any transaction.
	baseTx *txDesc

	// minEp is the minimum epoch at which the adopting context must run
	// (paper b.minEp): the forker's epoch when the block was created.
	minEp epoch.Epoch

	// succ is the join of the continuation this block precedes, nil for a
	// root block.
	succ *join

	// comDesc carries the forker's committed-descendant notes into the
	// child context (an extension over the paper: the notes are safe in
	// any context, see ARCHITECTURE.md D12). It is the parked forker's own
	// slice, shared by every sibling and only ever read: the forker does
	// not touch its notes again until the join has resumed it.
	comDesc []comNote

	// done receives the root block's completion; nil for non-root blocks.
	done chan rootResult

	// Dispatch-time state (the three small fields share a word: with them
	// apart a two-block frame leaves the 1 KiB size class).
	bnMinEp  epoch.Epoch   // minimum epoch of the reserved bitnum
	bn       bitvec.Bitnum // reserved bitnum; None while queued or borrowed
	borrowed bool          // runs under baseTx's bitnum

	// bnDiscarded records that the block's bitnum has been discarded —
	// either by its own finish or unilaterally by a finishing sibling
	// (§6.2). The CAS winner performs the discard, so it happens exactly
	// once.
	bnDiscarded atomic.Bool
}

// rootResult carries a root block's outcome back to Run.
type rootResult struct {
	panicVal any // non-nil if the root program panicked
}

// join is the continuation-block bookkeeping for one parallel statement
// (paper §3.1: the inner blocks are the "preceding blocks" of the
// continuation). The forking context parks on resume; the last finishing
// child sends the payload, handing over its worker slot.
type join struct {
	mu sync.Mutex

	// unfinished counts preceding blocks that have not finished
	// (paper b.precBlocks). Atomic so dispatch can take the lock-free
	// "am I the last one" fast path: a value of 1 observed by the only
	// remaining block is stable, because finished siblings stay finished.
	unfinished atomic.Int32
	panicked   bool // a child block panicked; panicVal holds the first value

	// precBitnums holds the reserved bitnums of dispatched, unfinished
	// preceding blocks (paper b.precBitnums).
	precBitnums bitvec.Vec

	// live maps those bitnums to their blocks, for the unilateral discard
	// of the last remaining sibling (§6.2). liveBuf backs it up to four
	// dispatched siblings.
	live    []*block
	liveBuf [4]*block

	// minEp is the minimum epoch for the continuation: the maximum of the
	// fork-time epoch and every finishing block's epoch (paper
	// finishBlock line 8).
	minEp epoch.Epoch

	// comDesc accumulates committed-descendant notes from finishing
	// children (paper §5.2), in noteBuf until a fifth note.
	comDesc []comNote
	noteBuf [4]comNote

	// panicVal holds the first panic raised by a child block, re-raised
	// by the continuation.
	panicVal any

	// resume is a one-shot channel taken by the forker before it parks.
	resume chan joinPayload
}

// fork is the frame of one Parallel call: the join and its blocks, one
// heap object. The garbage collector owns it — a finishing child that is
// not the last still reads its block after the join's lock is released,
// when the last one may already have resumed the forker (D53).
type fork struct {
	join
	inline [2]block
}

// joinPayload is what the last finishing child hands to the parked
// continuation: its worker slot plus the accumulated join state. A slot
// granted to a context that yielded its own travels as a payload with
// nothing but the slot.
type joinPayload struct {
	slot    *slot
	minEp   epoch.Epoch
	comDesc []comNote
	pval    any
	ppanic  bool
}

// oneShots recycles the channels a parked context waits on: a join's
// resume and a yielded slot's grant. A use is exactly one send and one
// receive, so the receiver puts the channel back, empty, the line after
// its receive; nothing else is recycled at a fork (D53).
var oneShots = sync.Pool{New: func() any { return make(chan joinPayload, 1) }}

// await receives the one payload ch will ever carry in this use and
// recycles the channel.
func await(ch chan joinPayload) joinPayload {
	p := <-ch
	oneShots.Put(ch)
	return p
}

// removeLive deletes the block holding bn from the live list.
func (j *join) removeLive(bn bitvec.Bitnum) {
	for i, b := range j.live {
		if b.bn == bn {
			j.live[i] = j.live[len(j.live)-1]
			j.live = j.live[:len(j.live)-1]
			return
		}
	}
}

// comNote records one committed-but-possibly-unpublished descendant
// (paper §5.2 comDesc). The note is valid — i.e. the bitnum may be ignored
// in entry ancestor sets — until the committed mask of ep contains bn,
// which happens during the discard publication that precedes any re-use of
// bn. Keeping the epoch per note (rather than one epoch per block as in
// the paper's Fig. 5) is required for joins with several children whose
// finish epochs differ (ARCHITECTURE.md D12).
type comNote struct {
	bn bitvec.Bitnum
	ep epoch.Epoch
}

// addNote appends a note, first dropping any published (stale) note for
// the same bitnum, keeping at most one live note per bitnum.
func addNote(notes []comNote, n comNote) []comNote {
	for i := range notes {
		if notes[i].bn == n.bn {
			notes[i] = n
			return notes
		}
	}
	return append(notes, n)
}

// mergeNotes folds src into dst.
func mergeNotes(dst, src []comNote) []comNote {
	for _, n := range src {
		dst = addNote(dst, n)
	}
	return dst
}
