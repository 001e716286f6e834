package core

import (
	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

// Shared read accesses — the paper's first "future work" item (§9): "one
// wants to optimize [read] accesses by allowing multiple (possibly
// conflicting) transactions to simultaneously read from a common object.
// The main consequence is that the conflict detection test must be
// extended to answer ancestor queries between one transaction and a set of
// multiple transactions."
//
// This file implements that extension (Config.SharedReads). Each object
// additionally carries a reader set: (ancestor-set, epoch) entries for the
// transactions that read it. The rules generalize the paper's hierarchy:
//
//   - READ by t: allowed iff the topmost write entry's active ancestors
//     are a subset of t's ancestors (the object's current value belongs to
//     an ancestor of t, or to nobody). Readers never conflict with
//     readers. The read records a reader entry; no undo is needed.
//
//   - WRITE by t: the paper's test on the write stack, plus every active
//     reader must be an ancestor of t. The set-vs-one ancestor query is
//     answered with the same bit-vector algebra: ∪ᵢ active(ancᵢ) ⊆ t.anc
//     ⟺ ∀i active(ancᵢ) ⊆ t.anc, and each active(ancᵢ) is obtained with
//     the usual committed-mask/comDesc filtering at the reader's epoch, so
//     the per-reader cost is O(1) and depth-independent.
//
// Dead reader entries (every transaction in the ancestor set committed and
// published) are dropped by a write's scan and by a read that finds the set
// at its prune mark (dropDead, D54); an aborted reader's entry is retracted
// by its rollback (D16).
type readerSet struct {
	entries []objEntry
	pruneAt int // prune mark: twice the entries the last prune or write kept
}

// minReaderPrune is the smallest prune mark.
const minReaderPrune = 8

// recordReader notes that the transaction with the given live ancestor set
// read the object at epoch ep. An existing entry by the same transaction
// (same ancestor set, epoch within its window) is refreshed in place;
// appended reports whether a new entry was created (the caller then logs a
// retraction record so an abort removes it, D16).
func (rs *readerSet) recordReader(anc bitvec.Vec, beginEp, ep epoch.Epoch) (appended bool) {
	for i := range rs.entries {
		e := &rs.entries[i]
		if e.anc == anc && beginEp <= e.ep && e.ep <= ep {
			e.ep = ep
			return false
		}
	}
	rs.entries = append(rs.entries, objEntry{anc: anc, ep: ep})
	return true
}

// retract removes one reader entry matching the retraction record: same
// ancestor set, epoch at or above the recorded one (in-transaction
// refreshes only raise it).
func (rs *readerSet) retract(anc bitvec.Vec, ep epoch.Epoch) {
	for i := range rs.entries {
		e := &rs.entries[i]
		if e.anc == anc && e.ep >= ep {
			rs.entries[i] = rs.entries[len(rs.entries)-1]
			rs.entries = rs.entries[:len(rs.entries)-1]
			return
		}
	}
}

// dropDead removes the entries whose whole ancestor set is in the committed
// mask of the entry's epoch — dropDeadPrefix's test for the write stack
// (D7) — and re-arms pruneAt. Masks only, never activeAncestors: the
// pruning context's own unpublished comDesc notes would also drop entries
// that are dead only from its view, and a later non-ancestor writer would
// miss a live read (D54). Caller holds the object lock.
func (rs *readerSet) dropDead(rt *Runtime) {
	kept := rs.entries[:0]
	for _, e := range rs.entries {
		if !e.anc.Minus(rt.st.Masks.Get(e.ep)).Empty() {
			kept = append(kept, e)
		}
	}
	rt.stats.readerPrunes.Add(1)
	rt.stats.readerDropped.Add(uint64(len(rs.entries) - len(kept)))
	rs.entries, rs.pruneAt = kept, max(2*len(kept), minReaderPrune)
}

// readersAllAncestors filters the reader set and reports whether every
// active reader is an ancestor of the writer (refAnc). Dead entries are
// dropped as a side effect and the read-path prune re-armed. Caller holds
// the object lock.
func (c *Ctx) readersAllAncestors(rs *readerSet, refAnc bitvec.Vec) bool {
	if len(rs.entries) == 0 {
		return true
	}
	ok := true
	kept := rs.entries[:0]
	for _, e := range rs.entries {
		active := c.activeAncestors(e.anc, e.ep)
		if active.Empty() {
			continue // reader committed and published: drop
		}
		kept = append(kept, e)
		if !active.SubsetOf(refAnc) {
			ok = false
		}
	}
	rs.entries, rs.pruneAt = kept, max(2*len(kept), minReaderPrune)
	return ok
}

// tryRead is the shared-read counterpart of tryAccess: it validates the
// read against the write stack, prunes the reader set at its mark and
// records the reader entry. Returns false on conflict. Caller holds the
// object lock.
func (c *Ctx) tryRead(o *Object, tx *txDesc) bool {
	if n := len(o.stack); n > o.head {
		top := &o.stack[n-1]
		// Reading our own (or an ancestor's merged) write: covered by the
		// write entry itself, no reader entry needed.
		if top.anc == c.ancBase && tx.beginEp <= top.ep && top.ep <= c.ep {
			return true
		}
		xanc := c.activeAncestors(top.anc, top.ep)
		if !xanc.Empty() {
			c.refreshAnc() // and read xanc again on a failed test, as tryAccess does
			if !xanc.SubsetOf(c.ancBase) && !c.activeAncestors(top.anc, top.ep).SubsetOf(c.ancBase) {
				return false // current value belongs to a non-ancestor
			}
		}
	}
	rs := &o.readers
	if len(rs.entries) >= max(rs.pruneAt, minReaderPrune) {
		rs.dropDead(c.rt)
	}
	if rs.recordReader(c.ancBase, tx.beginEp, c.ep) {
		tx.pushReadUndo(o, c.ancBase, c.ep)
	}
	return true
}
