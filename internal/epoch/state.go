package epoch

import (
	"sync/atomic"

	"pnstm/internal/bitvec"
)

// State is the shared commit/discard ledger between worker contexts and the
// publisher.
//
// The paper (§5.1) keeps per-thread lastComEp / discardBitnum vectors that
// the publisher scans. Because a bitnum has exactly one holder at any time
// and hand-offs are mediated by the publisher (a bitnum is only re-reserved
// after the publisher freed it), a single global slot per bitnum is
// equivalent (ARCHITECTURE.md D3). lastComEp is advanced with a CAS-max so that a
// straggling store from a previous holder can never regress a later
// holder's published commit epoch.
type State struct {
	Masks MaskTable

	// lastComEp[b] is the last epoch at which a transaction identified by
	// bitnum b committed (paper: Ti.lastComEp). Written by the bitnum's
	// holder, read (and folded into Masks) by the publisher.
	lastComEp [bitvec.Word]atomic.Uint64

	// discarded[b] is set when the block holding b finished (or b was
	// unilaterally discarded, §6.2) and b awaits freeing by the publisher
	// (paper: Ti.discardBitnum).
	discarded [bitvec.Word]atomic.Bool

	// discarding is the global vector of bitnums currently being
	// discard-published (paper §6.2). Contexts subtract it (together with
	// the committed mask of their epoch) from their ancestor sets before
	// every epoch change.
	discarding atomic.Uint64

	// bell is the publisher's doorbell (D59): a ledger write that gives the
	// publisher work rings it, and the publisher sleeps on it. rung is set
	// by the ring that sends the token and cleared by the publisher when it
	// takes it, so at most one token is ever in flight. The flag, not the
	// channel, orders a write before the publisher's next scan: a failed
	// non-blocking send synchronizes with nothing. bell is nil until a
	// Publisher is attached; a ring then does nothing.
	bell chan struct{}
	rung atomic.Bool
}

// ring wakes the publisher. A writer stores, then rings; the publisher
// clears rung, then scans. So either this ring finds rung clear and sends a
// token, or a token is pending whose taker clears rung after the store and
// scans after that.
func (s *State) ring() {
	if s.rung.Load() || s.rung.Swap(true) {
		return
	}
	select {
	case s.bell <- struct{}{}:
	default: // no publisher attached
	}
}

// RecordCommit notes that the transaction identified by bn committed at
// epoch ep (paper commitTx line 1). Monotone: never regresses. The write
// that advances the slot rings the publisher.
func (s *State) RecordCommit(bn bitvec.Bitnum, ep Epoch) {
	slot := &s.lastComEp[bn]
	for {
		cur := slot.Load()
		if Epoch(cur) >= ep {
			return
		}
		if slot.CompareAndSwap(cur, uint64(ep)) {
			s.ring()
			return
		}
	}
}

// LastCommit returns the last recorded commit epoch for bn.
func (s *State) LastCommit(bn bitvec.Bitnum) Epoch {
	return Epoch(s.lastComEp[bn].Load())
}

// Discard marks bn as relinquished at epoch ep (paper discardBitnum): the
// publisher will extend its committed masks past every live epoch and then
// return it to the free queue. lastEp is folded in first so the publisher
// never frees a bitnum whose final commits are unpublished.
func (s *State) Discard(bn bitvec.Bitnum, lastEp Epoch) {
	s.RecordCommit(bn, lastEp)
	s.discarded[bn].Store(true)
	s.ring()
}

// IsDiscarded reports whether bn has a pending discard.
func (s *State) IsDiscarded(bn bitvec.Bitnum) bool {
	return s.discarded[bn].Load()
}

// Discarding returns the vector of bitnums in the middle of discard
// publication.
func (s *State) Discarding() bitvec.Vec {
	return bitvec.Vec(s.discarding.Load())
}

// Erase implements the §6.2 ancestor-set cleanup that must run before every
// epoch change:
//
//	anc −= (discarding + comMask[ep])
//
// We additionally subtract the mask of the epoch being moved *to* (and the
// caller may pass any other epochs that bound the move, e.g. a block's
// minimum epoch at dispatch): contexts in this implementation can jump
// epochs when adopting a recycled bitnum's minimum epoch, and the discard
// publication horizon (maxCurEp+1) may lie strictly between the old and new
// epoch (ARCHITECTURE.md D11).
func (s *State) Erase(anc bitvec.Vec, eps ...Epoch) bitvec.Vec {
	out := anc.Minus(s.Discarding())
	for _, e := range eps {
		out = out.Minus(s.Masks.Get(e))
	}
	return out
}

// beginDiscarding / endDiscarding bracket a publisher's discard publication
// for one bitnum (paper Fig. 4, lines 9 and 14).
func (s *State) beginDiscarding(bn bitvec.Bitnum) { s.discarding.Or(uint64(bn.Bit())) }
func (s *State) endDiscarding(bn bitvec.Bitnum)   { s.discarding.And(^uint64(bn.Bit())) }
func (s *State) clearDiscarded(bn bitvec.Bitnum)  { s.discarded[bn].Store(false) }
