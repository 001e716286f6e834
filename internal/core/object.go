package core

import (
	"runtime"
	"time"

	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

// Object is one transactional memory location. It carries the per-object
// access stack of the paper (§4.2): each entry records the ancestor set
// and epoch of a transaction that accessed the object, and the topmost
// entry always denotes a descendant of every other entry. The current
// value lives in val; overwritten values are kept in the writers' undo
// logs.
type Object struct {
	mu      objMutex
	val     Value
	stack   []objEntry
	readers readerSet // shared-read entries (Config.SharedReads, paper §9)

	// label names the object for conflict attribution (D35) — e.g. a
	// stmlib map bucket's "m:orders/3". Written once by SetLabel before
	// the object sees transactional traffic, read lock-free afterwards.
	label string
	// pushSeq numbers entry pushes so rollback can identify exactly its
	// own entries. After a unilateral discard (§6.2), a merged victim's
	// active entries read as base-transaction-owned, and a sibling may
	// legitimately stack above them; a blind LIFO pop would then remove
	// the wrong entry (ARCHITECTURE.md D16).
	pushSeq uint64
	// head indexes the first live stack entry. Entries below head are
	// dead — every transaction in their ancestor sets has committed and
	// been published — and dead entries always form a bottom prefix of
	// the stack: an entry's lineage is a prefix of every entry above it,
	// a committed transaction has no active descendants, and publication
	// frontiers are monotone. A dead entry can have no outstanding undo
	// record either (records die with the topmost committed ancestor), so
	// dropping the prefix can never desynchronize rollback's pops (D7).
	head int
	// helpedAt is the pushSeq at which a help-publish cycle last failed
	// to compact this object below helpPublishThreshold. A depth that
	// stays over the threshold with an unchanged stack is genuinely deep
	// live nesting — publication cannot shrink it — so helping again is
	// wasted work until the stack changes (the next push bumps pushSeq
	// and re-arms the trigger).
	helpedAt uint64
}

// Value is what an object holds and an undo record saves: a boxed value in
// P, one machine word in W, or a slice's data pointer in P and its length
// and capacity in W. The core copies the pair whole and never looks inside
// it; which halves carry the value is the typed front end's choice, made
// once per variable (pnstm.TVar, ARCHITECTURE.md D52). The
// untyped accessors — NewObject, Ctx.Load/Store, Peek, SetDirect — always
// use P.
type Value struct {
	P any
	W uint64
}

// objEntry is one access-stack entry: the paper pushes (anc, epoch) pairs
// and filters committed bitnums lazily at query time. seq identifies the
// push for rollback (unused in reader entries).
type objEntry struct {
	anc bitvec.Vec
	ep  epoch.Epoch
	seq uint64
}

// pushEntry appends an entry and logs the matching undo record.
func (o *Object) pushEntry(c *Ctx, tx *txDesc) {
	o.pushSeq++
	o.stack = append(o.stack, objEntry{anc: c.ancBase, ep: c.ep, seq: o.pushSeq})
	tx.pushUndo(o, o.val, o.pushSeq)
}

// ownedBy reports whether the entry is the transaction's with live
// ancestor set anc and active window [beginEp, ep]: the same set, pushed
// within the window. The window is what tells it from an earlier
// transaction that used the same bitnum (§5.2 case 1).
func (e *objEntry) ownedBy(anc bitvec.Vec, beginEp, ep epoch.Epoch) bool {
	return e.anc == anc && beginEp <= e.ep && e.ep <= ep
}

// dead reports whether every transaction in the entry's ancestor set has
// committed and been published, by the committed mask of its epoch alone
// (D7, D54).
func (e *objEntry) dead(rt *Runtime) bool {
	return e.anc.Minus(rt.st.Masks.Get(e.ep)).Empty()
}

// NewObject returns an object holding the given initial value.
func NewObject(initial any) *Object {
	return &Object{val: Value{P: initial}}
}

// SetLabel names the object for conflict attribution. Call once at
// structure-construction time, before any transaction touches the
// object; labels are read without synchronization afterwards.
func (o *Object) SetLabel(label string) { o.label = label }

// objLabel renders an object reference for an event, tolerating nil
// (a conflict signal that crossed a block boundary loses nothing but
// may have started unattributed).
func objLabel(o *Object) string {
	if o == nil {
		return ""
	}
	return o.label
}

// PeekValue and SetValue read and overwrite the value without
// transactional bookkeeping (only safe when no transactions are running);
// Access is a transactional load (store false) or store. They are the
// typed front end's whole interface to an Object, and package functions,
// not methods, so that pnstm's alias of Ctx does not export them.
func PeekValue(o *Object) Value { return o.val }

func SetValue(o *Object, v Value) { o.val = v }

func Access(c *Ctx, o *Object, v Value, store bool) Value { return c.access(o, v, store) }

// compactThreshold is the live depth beyond which an access additionally
// tries to drop dead bottom entries. Small enough to bound memory under
// publication lag, large enough to keep the common path to one branch.
const compactThreshold = 8

// helpPublishThreshold is the live depth beyond which an accessor stops
// trusting the background publisher and runs a publication cycle itself
// (outside the object lock). The background goroutine can be starved
// arbitrarily long — e.g. GOMAXPROCS=1 with a worker in a tight
// transaction loop — and without helping, the stack of a hot object grows
// with the transaction count instead of staying bounded by the
// publication window (D7).
const helpPublishThreshold = 64

// dropDeadPrefix advances head past dead bottom entries and releases
// storage once the dead prefix dominates. Caller holds o.mu.
func (o *Object) dropDeadPrefix(rt *Runtime) {
	for o.head < len(o.stack) {
		if !o.stack[o.head].dead(rt) {
			break
		}
		o.stack[o.head] = objEntry{}
		o.head++
	}
	if o.head == len(o.stack) {
		o.stack, o.head = o.stack[:0], 0
		return
	}
	if o.head > cap(o.stack)/2 {
		n := copy(o.stack, o.stack[o.head:])
		o.stack, o.head = o.stack[:n], 0
	}
}

// access is the eager-validation access protocol (paper Fig. 3 `write`;
// all accesses are treated as writes, §4.2). It returns the value the
// object held before the access. On conflict it re-tests, yielding
// between tests, for up to Config.ConflictWait of wall time — the
// conflict may be a lazy-publication false positive that the publisher
// resolves within microseconds (§5.1), or a live holder about to commit —
// and then unwinds the transaction body with a conflictSignal for
// rollback and retry.
func (c *Ctx) access(o *Object, newVal Value, store bool) Value {
	tx := c.cur
	if tx == nil {
		panic("pnstm: transactional access outside an atomic block")
	}
	if c.rt.cfg.Serial {
		return c.serialAccess(o, newVal, store)
	}
	write := store || !c.rt.cfg.SharedReads
	var waitFrom time.Time // the first failed test; zero until one fails
	for {
		o.mu.lock()
		if c.admit(o, tx, write) {
			old := o.val
			if store {
				o.val = newVal
			}
			deep := len(o.stack)-o.head > helpPublishThreshold && o.helpedAt != o.pushSeq
			o.mu.unlock()
			if deep && c.rt.helpPublish() {
				o.mu.lock()
				o.dropDeadPrefix(c.rt)
				if len(o.stack)-o.head > helpPublishThreshold {
					// Still deep after publishing: the depth is live
					// nesting, not publication lag. Disarm until the
					// stack changes.
					o.helpedAt = o.pushSeq
				}
				o.mu.unlock()
			}
			if !waitFrom.IsZero() {
				c.rt.stats.spinSaves.Add(1)
			}
			return old
		}
		o.mu.unlock()
		if waitFrom.IsZero() {
			c.rt.stats.conflicts.Add(1)
			waitFrom = time.Now()
		} else if time.Since(waitFrom) >= c.rt.cfg.ConflictWait {
			// Attribute the abort to the object that failed validation: the
			// signal carries it to Atomic's recover, which records it and
			// re-attaches it to any escalation it raises (D35).
			panic(conflictSignal{obj: o})
		}
		runtime.Gosched()
	}
}

// admit is the conflict verdict of one access (paper Fig. 3 write and
// noConflict), run under the object lock. A write (every access unless
// Config.SharedReads) first compacts a deep stack and must cover every
// live shared reader (§9); then, unless the accessor owns the top entry,
// it must cover that entry. A granted write pushes its stack entry and
// undo record, a granted shared read its reader entry.
func (c *Ctx) admit(o *Object, tx *txDesc, write bool) bool {
	var refreshed bool
	if write {
		if len(o.stack)-o.head > compactThreshold {
			o.dropDeadPrefix(c.rt)
		}
		if !c.readersCovered(&o.readers, &refreshed) {
			return false
		}
	}
	vacant := true // no live entry: the push starts the stack afresh (D7)
	if n := len(o.stack); n > o.head {
		top := &o.stack[n-1]
		// Paper write() line 5: the accessor (or, for a shared read, an
		// ancestor whose write it inherited) owns the top entry.
		if top.ownedBy(c.ancBase, tx.beginEp, c.ep) {
			return true
		}
		active := c.activeAncestors(top.anc, top.ep)
		if !c.covers(top, active, &refreshed) {
			return false
		}
		vacant = active.Empty()
	}
	if !write {
		c.recordRead(o, tx)
		return true
	}
	if vacant {
		o.stack, o.head = o.stack[:0], 0
	}
	o.pushEntry(c, tx)
	return true
}

// covers is the paper's noConflict for one entry: every still-active
// transaction in its ancestor set (active, as the caller filtered it) is
// an ancestor of the accessor. Before a verdict's first subset test it
// refreshes the accessor's own set: a unilaterally discarded ancestor
// bitnum may have been re-used by a concurrent transaction, and a stale
// bit on our side would make the test pass wrongly (ARCHITECTURE.md D11).
// A bit the refresh drops was published (or is being) after active was
// read, so a failed test filters the entry again before it calls the
// access a conflict.
func (c *Ctx) covers(e *objEntry, active bitvec.Vec, refreshed *bool) bool {
	if active.Empty() {
		return true
	}
	if !*refreshed {
		c.refreshAnc()
		*refreshed = true
	}
	return active.SubsetOf(c.ancBase) || c.activeAncestors(e.anc, e.ep).SubsetOf(c.ancBase)
}

// activeAncestors filters the committed transactions out of an entry's
// ancestor set (paper §5 + Fig. 5): subtract the committed mask of the
// entry's epoch, then subtract every committed-descendant note that is
// still unpublished — dropping notes whose bitnum has been published past
// the note epoch, since from that point on the bitnum may be re-used.
//
// The accessor's own block's bitnum is subtracted too while its discard
// is pending: that block is the last one still running and a
// finishing sibling discarded it (§6.2). What it did under that bitnum
// belongs to its base transaction's identity from then on, the publisher
// is about to write that into the masks through every epoch it was live
// at, and the bitnum is re-used only after it has. Meanwhile the block's
// own ancestor set can already have dropped it — it switched to its
// base's identity, or Erase (D11) took it on a mask of an earlier epoch or
// on the discarding set — and without the subtraction the block spins on
// its own entries. (Any bitnum with a pending discard could be subtracted
// on the same argument; for other blocks' bitnums that would change what
// the lazy publication window lets through, so it is left to the masks.)
// The pending flag is read before the mask: a discard that is no longer
// pending has its masks written.
func (c *Ctx) activeAncestors(anc bitvec.Vec, ep epoch.Epoch) bitvec.Vec {
	b := c.block
	own := b != nil && !b.borrowed && b.bn.Valid() && c.rt.st.IsDiscarded(b.bn)
	out := anc.Minus(c.rt.st.Masks.Get(ep))
	if own {
		out = out.Remove(b.bn)
	}
	if len(c.comDesc) > 0 {
		kept := c.comDesc[:0]
		for _, n := range c.comDesc {
			if c.rt.st.Masks.Get(n.ep).Has(n.bn) {
				continue // published: stop ignoring (Fig. 5 line 2)
			}
			kept = append(kept, n)
			out = out.Remove(n.bn)
		}
		c.comDesc = kept
	}
	return out
}

// serialAccess is the serial-nesting baseline's access path (paper §7):
// no locking, a peek at the access stack, an undo record when a new entry
// is needed. Serial stacks hold at most one entry per object — entries
// are conflict metadata only, and with a single thread the top entry can
// be replaced in place.
func (c *Ctx) serialAccess(o *Object, newVal Value, store bool) Value {
	tx := c.cur
	if len(o.stack) == 0 {
		o.stack = append(o.stack, objEntry{anc: c.ancBase, ep: c.ep})
		tx.pushUndo(o, o.val, 0)
	} else if top := &o.stack[len(o.stack)-1]; !top.ownedBy(c.ancBase, tx.beginEp, c.ep) {
		top.anc, top.ep = c.ancBase, c.ep
		tx.pushUndo(o, o.val, 0)
	}
	old := o.val
	if store {
		o.val = newVal
	}
	return old
}
