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
// call, their contexts, those descriptors and the join share one pooled
// fork frame (ARCHITECTURE.md D53).
type block struct {
	program func(*Ctx)

	// ctx is the context the block runs in, set up in place at dispatch
	// (initCtx); tx0 is what its first begin hands out, ahead of the spare
	// descriptors the frame's earlier blocks left.
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

	// frame is the fork frame holding the block. The block keeps one
	// reference to it until finishBlock has returned; a root block's
	// completion travels on the frame's resume.
	frame *fork

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
	// of the last remaining sibling (§6.2). liveBuf backs it up to two
	// dispatched siblings; a pooled frame keeps what it grew to.
	live    []*block
	liveBuf [2]*block

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

// fork is the frame of one Parallel call, or of one Run: the join and its
// blocks. Frames are pooled and reference counted (D53). A frame holds one
// reference per block, released when runBlock is done with it, one for
// the forker, released once it has merged the join's notes, and one per
// frame forked under its blocks: their blocks' base transaction may be a
// tx0 here and their notes snapshot a context here, and a finishing child
// that is not the last still decrements its base transaction's liveBlocks
// after the join has resumed the forker (D15).
type fork struct {
	join
	refs   atomic.Int32
	up     *fork   // the forker's frame, pinned by this one; nil for a root
	wide   []block // the blocks of a fork wider than inline
	inline [2]block
}

// frames recycles fork frames. A frame in the pool is clean: it pins no
// program, closure, live descriptor or panic value, but keeps the capacity
// its wide blocks, live list and note buffers grew to, and its contexts'
// spare descriptors.
var frames = sync.Pool{New: func() any {
	f := new(fork)
	f.live, f.comDesc = f.liveBuf[:0], f.noteBuf[:0]
	return f
}}

// rootBlock takes a frame for a root running fn and returns its block. The
// root's completion arrives on the frame's resume, which the caller must
// read before it enqueues the block: the frame is recycled behind the send.
func rootBlock(fn func(*Ctx)) *block {
	f := frames.Get().(*fork)
	f.refs.Store(1)
	f.resume = oneShots.Get().(chan joinPayload)
	b := &f.inline[0]
	b.program, b.minEp, b.frame = fn, 1, f
	return b
}

// release drops one reference to f. The last one cleans f, puts it back in
// the pool and drops f's pin on its forker's frame in turn.
func (f *fork) release() {
	for f != nil && f.refs.Add(-1) == 0 {
		up := f.up
		// The blocks a fork used are a prefix of inline or of wide.
		for _, blocks := range [2][]block{f.inline[:], f.wide} {
			for i := 0; i < len(blocks) && blocks[i].frame != nil; i++ {
				blocks[i].reset()
			}
		}
		live := f.live[:cap(f.live)]
		clear(live)
		f.join = join{live: live[:0], comDesc: f.comDesc[:0]}
		f.up = nil
		frames.Put(f)
		f = up
	}
}

// reset zeroes a finished block, keeping only its context's note capacity
// and spare descriptors. tx0 goes with the block: it is zeroed here and put
// back in front by the next initCtx. A context's first begin takes tx0 at
// the block's outermost level, so tx0 is the list's head when the block
// finishes, or was forked under and is not on it.
func (b *block) reset() {
	notes, spare := b.ctx.comDesc[:0], b.ctx.spare
	if spare == &b.tx0 {
		spare = spare.parent
	}
	*b = block{}
	b.ctx.comDesc, b.ctx.spare = notes, spare
}

// joinPayload is what the last finishing child hands to the parked
// continuation: its worker slot plus the accumulated join state. A slot
// granted to a context that yielded its own travels as a payload with
// nothing but the slot, and a root's completion with nothing but its panic.
type joinPayload struct {
	slot    *slot
	minEp   epoch.Epoch
	comDesc []comNote
	pval    any
	ppanic  bool
}

// oneShots recycles the channels a parked context waits on: a join's
// resume, a yielded slot's grant and Run's completion. A use is exactly
// one send and one receive, so the receiver puts the channel back, empty,
// the line after its receive (D53).
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
