package core

import "sync/atomic"

// Stats is a snapshot of runtime activity counters. All counters are
// cumulative since the runtime was created.
type Stats struct {
	// Transactions.
	Begun       uint64 // transactions started (including retries)
	Committed   uint64 // successful commits (including borrowed ones)
	Aborted     uint64 // aborts due to conflicts (retried)
	UserAbort   uint64 // aborts because the body returned an error
	Conflicts   uint64 // conflict detections (>= Aborted: spinning may resolve some)
	SpinSaves   uint64 // conflicts that disappeared while re-testing (lazy-publication window)
	Escalations uint64 // conflicts propagated to the parent transaction (nesting-aware CM)
	Crises      uint64 // cross-root livelock-breaker engagements (crisis-token acquisitions)

	// Scheduling.
	Dispatches     uint64 // blocks dispatched with a reserved bitnum
	BorrowDispatch uint64 // blocks dispatched borrowing the base bitnum (steal-time single child)
	InlineChildren uint64 // inner blocks run inline (single-child forks and nested atomics)
	SerializedFork uint64 // inner blocks serialized because the parent limiter was exhausted
	Handoffs       uint64 // slots handed from a finishing child to its continuation
	SlotYields     uint64 // contexts that gave up their slot after repeated aborts

	// Bitnum lifecycle.
	SelfDiscards   uint64 // bitnums discarded by their own finishing block
	RemoteDiscards uint64 // bitnums unilaterally discarded by a finishing sibling (§6.2)
	BorrowSwitches uint64 // blocks that switched to borrowed mode after a remote discard
	PeakParents    uint64 // high-water mark of parent-limiter slots (set at Stats() time)

	// Publication.
	HelpPublishes uint64 // synchronous publication cycles run by starved accessors (D7)

	// Shared reads (D54): prunes on the read path only, not a write's scan.
	ReaderPrunes         uint64 // reader sets pruned by a shared read at their prune mark
	ReaderEntriesDropped uint64 // dead reader entries those prunes removed

	// Tracing (D35). Filled from the flight recorder at Stats() time.
	TraceEvents  uint64 // lifecycle events recorded
	TraceDropped uint64 // events overwritten before any reader drained them
}

// Sub returns the counter-by-counter difference s − prev. Both snapshots
// must come from the same runtime, prev taken first; the result is the
// activity between the two (e.g. one server batch). PeakParents is a
// high-water mark, not a counter, so the later snapshot's value is kept.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Begun:                s.Begun - prev.Begun,
		Committed:            s.Committed - prev.Committed,
		Aborted:              s.Aborted - prev.Aborted,
		UserAbort:            s.UserAbort - prev.UserAbort,
		Conflicts:            s.Conflicts - prev.Conflicts,
		SpinSaves:            s.SpinSaves - prev.SpinSaves,
		Escalations:          s.Escalations - prev.Escalations,
		Crises:               s.Crises - prev.Crises,
		Dispatches:           s.Dispatches - prev.Dispatches,
		BorrowDispatch:       s.BorrowDispatch - prev.BorrowDispatch,
		InlineChildren:       s.InlineChildren - prev.InlineChildren,
		SerializedFork:       s.SerializedFork - prev.SerializedFork,
		Handoffs:             s.Handoffs - prev.Handoffs,
		SlotYields:           s.SlotYields - prev.SlotYields,
		SelfDiscards:         s.SelfDiscards - prev.SelfDiscards,
		RemoteDiscards:       s.RemoteDiscards - prev.RemoteDiscards,
		BorrowSwitches:       s.BorrowSwitches - prev.BorrowSwitches,
		PeakParents:          s.PeakParents,
		HelpPublishes:        s.HelpPublishes - prev.HelpPublishes,
		ReaderPrunes:         s.ReaderPrunes - prev.ReaderPrunes,
		TraceEvents:          s.TraceEvents - prev.TraceEvents,
		TraceDropped:         s.TraceDropped - prev.TraceDropped,
		ReaderEntriesDropped: s.ReaderEntriesDropped - prev.ReaderEntriesDropped,
	}
}

// Add returns the counter-by-counter sum s + o — the aggregation used
// when a store runs several independent runtimes (one per engine shard)
// and reports one combined activity figure. Every counter is summed, so
// no aborts or commits are lost in the roll-up; PeakParents is a
// high-water mark, not a counter, so the aggregate takes the maximum.
func (s Stats) Add(o Stats) Stats {
	peak := s.PeakParents
	if o.PeakParents > peak {
		peak = o.PeakParents
	}
	return Stats{
		Begun:                s.Begun + o.Begun,
		Committed:            s.Committed + o.Committed,
		Aborted:              s.Aborted + o.Aborted,
		UserAbort:            s.UserAbort + o.UserAbort,
		Conflicts:            s.Conflicts + o.Conflicts,
		SpinSaves:            s.SpinSaves + o.SpinSaves,
		Escalations:          s.Escalations + o.Escalations,
		Crises:               s.Crises + o.Crises,
		Dispatches:           s.Dispatches + o.Dispatches,
		BorrowDispatch:       s.BorrowDispatch + o.BorrowDispatch,
		InlineChildren:       s.InlineChildren + o.InlineChildren,
		SerializedFork:       s.SerializedFork + o.SerializedFork,
		Handoffs:             s.Handoffs + o.Handoffs,
		SlotYields:           s.SlotYields + o.SlotYields,
		SelfDiscards:         s.SelfDiscards + o.SelfDiscards,
		RemoteDiscards:       s.RemoteDiscards + o.RemoteDiscards,
		BorrowSwitches:       s.BorrowSwitches + o.BorrowSwitches,
		PeakParents:          peak,
		HelpPublishes:        s.HelpPublishes + o.HelpPublishes,
		ReaderPrunes:         s.ReaderPrunes + o.ReaderPrunes,
		TraceEvents:          s.TraceEvents + o.TraceEvents,
		TraceDropped:         s.TraceDropped + o.TraceDropped,
		ReaderEntriesDropped: s.ReaderEntriesDropped + o.ReaderEntriesDropped,
	}
}

// AbortRate returns the fraction of started transactions that aborted on
// a conflict (retries count as fresh starts). Zero when nothing ran.
func (s Stats) AbortRate() float64 {
	if s.Begun == 0 {
		return 0
	}
	return float64(s.Aborted) / float64(s.Begun)
}

// counters is the live, atomically updated form of Stats.
type counters struct {
	begun, committed, aborted, userAbort, conflicts, spinSaves       atomic.Uint64
	escalations, crises                                              atomic.Uint64
	dispatches, borrowDispatch, inlineChildren, serializedFork       atomic.Uint64
	handoffs, slotYields, selfDiscards, remoteDiscards, borrowSwitch atomic.Uint64
	helpPublishes, readerPrunes, readerDropped                       atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Begun:                c.begun.Load(),
		Committed:            c.committed.Load(),
		Aborted:              c.aborted.Load(),
		UserAbort:            c.userAbort.Load(),
		Conflicts:            c.conflicts.Load(),
		SpinSaves:            c.spinSaves.Load(),
		Escalations:          c.escalations.Load(),
		Crises:               c.crises.Load(),
		Dispatches:           c.dispatches.Load(),
		BorrowDispatch:       c.borrowDispatch.Load(),
		InlineChildren:       c.inlineChildren.Load(),
		SerializedFork:       c.serializedFork.Load(),
		Handoffs:             c.handoffs.Load(),
		SlotYields:           c.slotYields.Load(),
		SelfDiscards:         c.selfDiscards.Load(),
		RemoteDiscards:       c.remoteDiscards.Load(),
		BorrowSwitches:       c.borrowSwitch.Load(),
		HelpPublishes:        c.helpPublishes.Load(),
		ReaderPrunes:         c.readerPrunes.Load(),
		ReaderEntriesDropped: c.readerDropped.Load(),
	}
}
