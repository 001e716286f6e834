package core

import "pnstm/internal/bitvec"

// Untyped accessors for the package's tests. Library code reaches an
// Object only through Access, PeekValue and SetValue, which move whole
// Values for pnstm's typed front end.

// Load reads an object inside the current transaction. Per the paper
// (§4.2), every access is treated as a write for conflict purposes.
func (c *Ctx) Load(o *Object) any { return c.access(o, Value{}, false).P }

// Store writes an object inside the current transaction and returns the
// previous value.
func (c *Ctx) Store(o *Object, v any) any { return c.access(o, Value{P: v}, true).P }

// InTx reports whether an atomic block is active.
func (c *Ctx) InTx() bool { return c.cur != nil }

// TraceTag returns the current work label, rendered.
func (c *Ctx) TraceTag() string { return joinTag(c.traceTag.name, c.traceTag.key) }

// Peek returns the object's current value without any transactional
// bookkeeping. Only safe when no transactions are running.
func (o *Object) Peek() any { return o.val.P }

// StackDepth reports the current live access-stack depth.
func (o *Object) StackDepth() int {
	o.mu.lock()
	d := len(o.stack) - o.head
	o.mu.unlock()
	return d
}

// Bitnums returns the identifier space size N (0 in serial mode).
func (rt *Runtime) Bitnums() int { return rt.nbits }

// TraceSampling returns the lifecycle sampling divisor (≤1: all roots).
func (rt *Runtime) TraceSampling() uint64 { return rt.rec.sample.Load() }

// freeBitnums reports the current number of free bitnums.
func (s *scheduler) freeBitnums() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free.Len()
}

// vecOf builds a vector from the given bitnums.
func vecOf(bs ...bitvec.Bitnum) bitvec.Vec {
	var v bitvec.Vec
	for _, b := range bs {
		v = v.Add(b)
	}
	return v
}
