package core

import (
	"sync/atomic"
	"time"
)

// Conflict X-ray flight recorder (DESIGN D35): every transaction
// lifecycle transition can emit one Event into a per-slot lock-free
// ring buffer. The recorder is built unconditionally but records
// nothing until tracing is enabled (Runtime.EnableTracing); the
// disabled path is a single atomic.Bool load per potential event, so
// the instrumentation can be compiled in everywhere the engine makes a
// decision without taxing the untraced hot path (benchmarked in
// trace_test.go).
//
// Ring discipline: each worker slot owns one ring and is its only
// writer (a slot runs one block at a time, and serial mode forbids
// concurrent Run calls), so writes are ordered per ring; readers are
// concurrent and lock-free. A cell is an atomic.Pointer[Event]: the
// writer publishes a fully built event with one pointer store, and a
// reader validates the cell against its expected sequence number — a
// lapped or not-yet-published cell simply ends the read. Readers take
// snapshots of what a ring retains; an event is dropped once the
// writer has overwritten it.

// Event kinds, in lifecycle order.
const (
	EvBegin uint8 = iota + 1
	EvCommit
	EvAbort    // conflict abort (the transaction retries)
	EvEscalate // conflict propagated to the parent transaction
)

// Event is one recorded transaction-lifecycle transition. Identity
// fields make a request followable end to end: Root is the runtime's
// ticket for the root transaction this event happened under (a server
// batch), Batch/Shard are stamped by the embedding server, and Tag is
// whatever the caller set on the context for the current unit of work
// (the server stamps the request's structure:key). Obj carries the
// label of the object whose access conflict killed the transaction —
// only on abort/escalate events, and only when the structure gave its
// objects labels.
type Event struct {
	TS    int64  `json:"ts"` // unix nanoseconds
	Seq   uint64 `json:"seq"`
	Root  uint64 `json:"root"`
	Batch uint64 `json:"batch,omitempty"`
	Kind  uint8  `json:"kind"`
	Depth uint8  `json:"depth"`
	Shard uint8  `json:"shard"`
	Obj   string `json:"obj,omitempty"`
	Tag   string `json:"tag,omitempty"`
}

// traceRingSize is each per-slot ring's capacity. Power of two; at
// ~2.5k events per second per slot under a hot loadgen this holds a
// couple of seconds of history per slot, which is what the trace
// endpoint wants.
const traceRingSize = 4096

// traceChunkSize is the writer-side allocation batch: events are carved
// out of writer-private arenas this many at a time, so the hot record
// path allocates once per chunk instead of once per event (the per-event
// heap allocation plus its GC scan cost dominated the traced overhead
// before D38). Chunks are never reused — a published *Event stays
// immutable forever — so readers need no copy-validation beyond the
// sequence check.
const traceChunkSize = 256

// traceRing is one slot's event ring: single writer, many readers.
type traceRing struct {
	pos   atomic.Uint64 // next sequence number to write: events recorded so far
	cells [traceRingSize]atomic.Pointer[Event]
	chunk []Event // writer-private arena; see traceChunkSize
}

// alloc hands out the next event slot from the writer's arena. Only the
// ring's single writer calls this.
func (r *traceRing) alloc() *Event {
	if len(r.chunk) == 0 {
		r.chunk = make([]Event, traceChunkSize)
	}
	ev := &r.chunk[0]
	r.chunk = r.chunk[1:]
	return ev
}

func (r *traceRing) record(ev *Event) {
	seq := r.pos.Add(1) - 1
	ev.Seq = seq
	r.cells[seq%traceRingSize].Store(ev)
}

// overwritten is the number of events the writer has lapped: every
// sequence number below head minus the ring's capacity.
func overwritten(head uint64) uint64 { return max(head, traceRingSize) - traceRingSize }

// snapshot appends the events the ring still retains, oldest first. A
// cell that does not hold its expected sequence — lapped mid-read, or
// reserved but not yet published — ends the read, so a snapshot is a
// run of consecutive, untorn events.
func (r *traceRing) snapshot(out []Event) []Event {
	head := r.pos.Load()
	for seq := overwritten(head); seq < head; seq++ {
		ev := r.cells[seq%traceRingSize].Load()
		if ev == nil || ev.Seq != seq {
			break
		}
		out = append(out, *ev)
	}
	return out
}

// recorder owns the per-slot rings and the runtime-wide trace state.
// Event totals live on the rings (their single writers own the cache
// line).
//
// Each slot gets TWO rings: the main lifecycle ring (the firehose) and
// a conflict ring holding only abort/escalate events. Conflicts
// are orders of magnitude rarer than begins/commits, so a conflict ring
// keeps the slot's recent conflicts long after the firehose has lapped
// them: a reader ranking hot keys sees thousands of aborts, not the
// handful the last few thousand begins and commits left (D38).
type recorder struct {
	enabled   atomic.Bool
	sample    atomic.Uint64 // lifecycle sampling: record begin/commit for 1 in N roots (≤1: all)
	rings     []*traceRing
	conflicts []*traceRing
}

func newRecorder(slots int) *recorder {
	if slots < 1 {
		slots = 1
	}
	r := &recorder{
		rings:     make([]*traceRing, slots),
		conflicts: make([]*traceRing, slots),
	}
	for i := range r.rings {
		r.rings[i] = &traceRing{}
		r.conflicts[i] = &traceRing{}
	}
	return r
}

// ring picks the calling context's ring: the bound slot's, or ring 0
// when the context has none (serial mode).
func (r *recorder) ring(c *Ctx) *traceRing {
	if c.slot != nil && c.slot.id < len(r.rings) {
		return r.rings[c.slot.id]
	}
	return r.rings[0]
}

// conflictRing is ring's analog for the conflict-only rings.
func (r *recorder) conflictRing(c *Ctx) *traceRing {
	if c.slot != nil && c.slot.id < len(r.conflicts) {
		return r.conflicts[c.slot.id]
	}
	return r.conflicts[0]
}

// traceEvent records one lifecycle event for the context's current
// unit of work. Callers gate on rt.tracing() so the disabled path
// never reaches here.
func (c *Ctx) traceEvent(kind, depth uint8, obj string) {
	// Begin/commit are the hot-path firehose: they reuse the root
	// begin's cached clock (the whole lineage spans well under a
	// millisecond, and the window/ordering consumers only need batch
	// granularity). Conflict events are rare and incident-relevant, so
	// they pay for a fresh stamp.
	ts := c.traceTS
	if kind >= EvAbort || ts == 0 {
		ts = time.Now().UnixNano()
	}
	ring := c.rt.rec.ring(c)
	ev := ring.alloc()
	*ev = Event{
		TS:    ts,
		Root:  c.traceRoot,
		Batch: c.traceBatch,
		Kind:  kind,
		Depth: depth,
		Shard: c.traceShard,
		Obj:   obj,
		Tag:   c.traceTag.String(),
	}
	ring.record(ev)
	if kind >= EvAbort {
		// Duplicate conflict events into the slot's conflict ring, where
		// the lifecycle firehose cannot lap them. Distinct Event objects
		// per ring: record stamps each ring's own sequence into its copy.
		cr := c.rt.rec.conflictRing(c)
		cv := cr.alloc()
		*cv = *ev
		cr.record(cv)
	}
}

// tracing reports whether lifecycle events are being recorded.
func (rt *Runtime) tracing() bool { return rt.rec.enabled.Load() }

// EnableTracing switches lifecycle-event recording on or off. Safe to
// flip at any time; events race the flip benignly (a transaction that
// observed the old value finishes recording under it).
func (rt *Runtime) EnableTracing(on bool) { rt.rec.enabled.Store(on) }

// TracingEnabled reports the current recording state.
func (rt *Runtime) TracingEnabled() bool { return rt.tracing() }

// SetTraceSampling records full begin/commit lifecycle events for 1 in
// every roots (by root ticket); 0 or 1 records every root. Conflict
// events — abort, escalate — are ALWAYS recorded regardless,
// so hot-key attribution stays exact while the steady-state firehose
// shrinks by the sampling factor (D38).
func (rt *Runtime) SetTraceSampling(every uint64) { rt.rec.sample.Store(every) }

// TraceSnapshot returns every event the lifecycle rings currently
// retain (up to traceRingSize per ring), in per-ring order; callers
// interleave by timestamp if they need a global order. Lock-free with
// respect to writers.
func (rt *Runtime) TraceSnapshot() []Event { return snapshotRings(rt.rec.rings) }

// TraceConflicts is TraceSnapshot over the conflict-only rings: just
// abort/escalate events, recorded regardless of lifecycle
// sampling.
func (rt *Runtime) TraceConflicts() []Event { return snapshotRings(rt.rec.conflicts) }

func snapshotRings(rings []*traceRing) []Event {
	var out []Event
	for _, ring := range rings {
		out = ring.snapshot(out)
	}
	return out
}

// TraceStats reports the lifecycle rings' cumulative totals: events
// recorded and events dropped (overwritten, no longer retained).
func (rt *Runtime) TraceStats() (events, dropped uint64) {
	for _, ring := range rt.rec.rings {
		head := ring.pos.Load()
		events += head
		dropped += overwritten(head)
	}
	return events, dropped
}

// ---------------------------------------------------------------------------
// Per-context trace identity
// ---------------------------------------------------------------------------

// traceTag is a context's work label, kept as the parts the caller
// already holds: joining them costs a string per request, and almost no
// request ever records an event that carries it.
type traceTag struct{ name, key string }

// String renders the label: name:key for keyed work, the name otherwise.
func (t traceTag) String() string {
	if t.key == "" {
		return t.name
	}
	return t.name + ":" + t.key
}

// SetTraceTag labels the context's current unit of work; subsequent
// lifecycle events carry the label name:key (just name when key is
// empty). The server stamps each request's structure and key here so
// aborts attribute to the key that suffered them. Inherited by blocks
// forked from this context. The label is rendered only when an event is
// recorded, so stamping costs two string headers.
func (c *Ctx) SetTraceTag(name, key string) { c.traceTag = traceTag{name, key} }

// StampTrace sets the batch/shard identity carried by this context's
// events (and inherited by forked blocks). The embedding server calls
// it once per batch root.
func (c *Ctx) StampTrace(batch uint64, shard uint8) {
	c.traceBatch, c.traceShard = batch, shard
}
