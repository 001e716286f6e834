package core

import (
	"runtime"

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
// P, or one machine word in W. The core copies the pair whole and never
// looks inside it; which half carries the value is the typed front end's
// choice, made once per variable (pnstm.TVar, ARCHITECTURE.md D52). The
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

// NewObject returns an object holding the given initial value.
func NewObject(initial any) *Object {
	return &Object{val: Value{P: initial}}
}

// SetLabel names the object for conflict attribution. Call once at
// structure-construction time, before any transaction touches the
// object; labels are read without synchronization afterwards.
func (o *Object) SetLabel(label string) { o.label = label }

// Label returns the attribution label ("" when unnamed).
func (o *Object) Label() string { return o.label }

// objLabel renders an object reference for an event, tolerating nil
// (a conflict signal that crossed a block boundary loses nothing but
// may have started unattributed).
func objLabel(o *Object) string {
	if o == nil {
		return ""
	}
	return o.label
}

// Peek returns the object's current value without any transactional
// bookkeeping. Only safe when no transactions are running (e.g. between
// Run calls); used to read results out.
func (o *Object) Peek() any { return o.val.P }

// SetDirect overwrites the value without transactional bookkeeping. Only
// safe when no transactions are running.
func (o *Object) SetDirect(v any) { o.val = Value{P: v} }

// PeekValue and SetValue are Peek and SetDirect for the typed front end,
// which moves whole Values; Access is its Load (store false) and Store.
// They are package functions, not methods, so that pnstm's aliases of Ctx
// and Object do not export them.
func PeekValue(o *Object) Value { return o.val }

func SetValue(o *Object, v Value) { o.val = v }

func Access(c *Ctx, o *Object, v Value, store bool) Value { return c.access(o, v, store) }

// StackDepth reports the current live access-stack depth
// (diagnostics/tests).
func (o *Object) StackDepth() int {
	o.mu.lock()
	d := len(o.stack) - o.head
	o.mu.unlock()
	return d
}

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
		e := &o.stack[o.head]
		if !e.anc.Minus(rt.st.Masks.Get(e.ep)).Empty() {
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
// object held before the access. On conflict it spins a bounded number of
// times — the conflict may be a lazy-publication false positive that the
// publisher resolves within microseconds (§5.1) — and then unwinds the
// transaction body with a conflictSignal for rollback and retry.
func (c *Ctx) access(o *Object, newVal Value, store bool) Value {
	tx := c.cur
	if tx == nil {
		panic("pnstm: transactional access outside an atomic block")
	}
	if c.rt.cfg.Serial {
		return c.serialAccess(o, newVal, store)
	}
	sharedRead := !store && c.rt.cfg.SharedReads
	spins := 0
	for {
		o.mu.lock()
		var granted bool
		if sharedRead {
			granted = c.tryRead(o, tx)
		} else {
			granted = c.tryAccess(o, tx)
		}
		if granted {
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
			if spins > 0 {
				c.rt.stats.spinSaves.Add(1)
			}
			return old
		}
		o.mu.unlock()
		if spins == 0 {
			c.rt.stats.conflicts.Add(1)
		}
		if spins >= c.rt.cfg.SpinRetries {
			// Attribute the abort to the object that failed validation: the
			// signal carries it to Atomic's recover, which records it and
			// re-attaches it to any escalation it raises (D35).
			panic(conflictSignal{obj: o})
		}
		spins++
		runtime.Gosched()
	}
}

// tryAccess runs the conflict test under the object lock and, when the
// access is safe, pushes the stack entry and undo record. It returns
// false on conflict.
func (c *Ctx) tryAccess(o *Object, tx *txDesc) bool {
	if len(o.stack)-o.head > compactThreshold {
		o.dropDeadPrefix(c.rt)
	}
	// A write must dominate every active shared reader (§9 extension);
	// with SharedReads off the reader set is always empty and this is one
	// length check.
	if !c.readersAllAncestors(&o.readers, c.ancBase) {
		return false
	}
	if len(o.stack) == o.head {
		// Paper write() lines 2–4: first accessor.
		o.stack, o.head = o.stack[:0], 0
		o.pushEntry(c, tx)
		return true
	}
	top := &o.stack[len(o.stack)-1]
	// Paper write() line 5: the same transaction (same ancestor set, entry
	// epoch within our active window) already owns the top entry; write in
	// place. The epoch window is what distinguishes us from an earlier
	// transaction that used the same bitnum (§5.2 case 1).
	if top.anc == c.ancBase && tx.beginEp <= top.ep && top.ep <= c.ep {
		return true
	}
	xanc := c.activeAncestors(top.anc, top.ep)
	if xanc.Empty() {
		// Every transaction on the stack has committed and been published:
		// the stack is dead metadata. Compact before pushing (D7).
		o.stack, o.head = o.stack[:0], 0
		o.pushEntry(c, tx)
		return true
	}
	// Refresh our own ancestor set before the subset test: a unilaterally
	// discarded ancestor bitnum may have been re-used by a concurrent
	// transaction, and a stale bit on our side would make the test pass
	// wrongly (ARCHITECTURE.md D11).
	c.refreshAnc()
	// Paper noConflict: the access is safe iff every still-active
	// transaction that accessed the object is our ancestor.
	if xanc.SubsetOf(c.ancBase) {
		o.pushEntry(c, tx)
		return true
	}
	return false
}

// activeAncestors filters the committed transactions out of an entry's
// ancestor set (paper §5 + Fig. 5): subtract the committed mask of the
// entry's epoch, then subtract every committed-descendant note that is
// still unpublished — dropping notes whose bitnum has been published past
// the note epoch, since from that point on the bitnum may be re-used.
func (c *Ctx) activeAncestors(anc bitvec.Vec, ep epoch.Epoch) bitvec.Vec {
	out := anc.Minus(c.rt.st.Masks.Get(ep))
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
	} else if top := &o.stack[len(o.stack)-1]; !(top.anc == c.ancBase && tx.beginEp <= top.ep && top.ep <= c.ep) {
		top.anc, top.ep = c.ancBase, c.ep
		tx.pushUndo(o, o.val, 0)
	}
	old := o.val
	if store {
		o.val = newVal
	}
	return old
}
