package pnstm

import (
	"reflect"
	"unsafe"

	"pnstm/internal/core"
	"pnstm/internal/epoch"
)

// Ctx is an execution context handed to block programs and transaction
// bodies. It provides Atomic (begin a transaction, possibly nested) and
// Parallel (fork–join inside or outside a transaction); variables are
// read and written through TVar and the generic Load, Store, Swap and
// Update functions.
//
// A Ctx belongs to the block it was handed to. Its storage is recycled
// when the block ends, so a Ctx retained past that aliases the context of
// some later block: do not keep one.
type Ctx = core.Ctx

// Stats is a snapshot of runtime activity counters; see the field
// documentation in the core package.
type Stats = core.Stats

// ErrClosed is returned by Run after Close.
var ErrClosed = core.ErrClosed

// Config configures a Runtime.
//
// Field interactions:
//
//   - Serial overrides almost everything else: it disables the scheduler,
//     the publisher and conflict detection, so DisableAggressiveRecycle
//     and SharedReads have no effect, and Runtime.Publisher returns nil.
//     Workers still sets the fork width (stmlib and the server split bulk
//     work into at most Workers groups), though the groups run inline
//     one after another. A Serial runtime is single-threaded: concurrent
//     Run calls are not safe in this mode.
//   - DisableAggressiveRecycle turns off unilateral bitnum discards,
//     which also eliminates borrow switches and merged-victim
//     escalations; deep trees then lean harder on the publisher to
//     recycle bitnums, so expect more head-of-line waiting when the free
//     queue runs dry.
//   - SharedReads changes the conflict model itself (reads stop
//     conflicting with reads), so results of racy programs may differ
//     from the default write-only model; oracle-style comparisons against
//     Serial still hold for deterministic programs.
//   - Seed randomizes the retry backoff. The backoff and slot-yield
//     limits are fixed, and a conflicted access re-tests for up to 1 ms
//     of wall time before it aborts.
type Config struct {
	// Workers is the number of worker slots P (1..32). Transactions get
	// identifiers out of a 2P-bit space, so P is bounded by half the
	// machine word.
	Workers int

	// Serial selects the serial-nesting baseline: Parallel runs its
	// children sequentially in the calling context, as in STMs that
	// disallow parallel nesting. Used for benchmarking against the paper's
	// baseline. See the interaction notes on Config.
	Serial bool

	// DisableAggressiveRecycle turns off unilateral bitnum recycling
	// (paper §6.2). For ablation experiments.
	DisableAggressiveRecycle bool

	// SharedReads makes Load a shared read: concurrent readers never
	// conflict with each other, and a write is admitted only when every
	// active reader is an ancestor of the writer. Off by default, which
	// reproduces the paper's write-only evaluation model. (The extension
	// is the paper's §9 first future-work item.)
	SharedReads bool

	// Seed seeds backoff randomization. Default 1.
	Seed int64
}

// Runtime schedules transactional fork–join programs over a fixed set of
// worker slots. Create with New; always Close when done (it stops the
// background publisher).
type Runtime struct {
	rt *core.Runtime
}

// New creates a runtime.
func New(cfg Config) (*Runtime, error) {
	rt, err := core.New(core.Config{
		Workers:                  cfg.Workers,
		Serial:                   cfg.Serial,
		DisableAggressiveRecycle: cfg.DisableAggressiveRecycle,
		SharedReads:              cfg.SharedReads,
		Seed:                     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Runtime{rt: rt}, nil
}

// Run executes fn as a root block and waits for it and everything it
// forked. Concurrent Run calls are independent block trees. A panic in the
// tree is re-raised here after rollback.
func (r *Runtime) Run(fn func(*Ctx)) error { return r.rt.Run(fn) }

// Close waits for in-flight Run calls and stops the background publisher.
// Idempotent; Run afterwards returns ErrClosed.
func (r *Runtime) Close() { r.rt.Close() }

// Stats returns a snapshot of activity counters.
func (r *Runtime) Stats() Stats { return r.rt.Stats() }

// Workers returns the configured worker count.
func (r *Runtime) Workers() int { return r.rt.Workers() }

// Publisher exposes the lazy-reclaiming publisher for tests and
// benchmarks (pause, resume, drain). Nil in Serial mode.
func (r *Runtime) Publisher() *epoch.Publisher { return r.rt.Publisher() }

// TraceEvent is one recorded transaction-lifecycle event; see the core
// package's Event documentation. Kinds are the EvBegin..EvEscalate
// constants.
type TraceEvent = core.Event

// Trace event kinds.
const (
	EvBegin    = core.EvBegin
	EvCommit   = core.EvCommit
	EvAbort    = core.EvAbort
	EvEscalate = core.EvEscalate
)

// EnableTracing switches lifecycle-event recording on or off (the
// conflict X-ray flight recorder). Safe to flip at any time.
func (r *Runtime) EnableTracing(on bool) { r.rt.EnableTracing(on) }

// TracingEnabled reports whether lifecycle events are being recorded.
func (r *Runtime) TracingEnabled() bool { return r.rt.TracingEnabled() }

// SetTraceSampling records the begin/commit lifecycle for 1 in every
// roots (0 or 1: every root). Conflict events — abort and escalate —
// are always recorded regardless, so abort attribution stays exact
// under sampling.
func (r *Runtime) SetTraceSampling(every uint64) { r.rt.SetTraceSampling(every) }

// TraceSnapshot returns every event the flight recorder's lifecycle
// rings currently retain. Lock-free; safe to call
// concurrently with running transactions.
func (r *Runtime) TraceSnapshot() []TraceEvent { return r.rt.TraceSnapshot() }

// TraceConflicts returns every abort/escalate event the
// dedicated conflict rings currently retain. Conflict events are always
// recorded regardless of lifecycle sampling, and the firehose never
// laps them, so these rings hold far more conflict history than
// TraceSnapshot.
func (r *Runtime) TraceConflicts() []TraceEvent { return r.rt.TraceConflicts() }

// TraceStats reports events recorded and events dropped (overwritten,
// no longer retained).
func (r *Runtime) TraceStats() (events, dropped uint64) { return r.rt.TraceStats() }

// TVar is a typed transactional variable. A variable of a pointer-free
// type of at most 8 bytes (int, bool, float64, time.Duration, a named
// uint8, struct{ x, y int32 }, [8]byte, ...) keeps its value in a machine
// word, and a variable of a slice type keeps its slice's data pointer and
// its length and capacity: loading and storing either allocates nothing.
// Every other type — strings, maps, pointers, interfaces, larger structs —
// is held as an interface value, so storing a non-pointer one boxes it;
// hold a pointer where that matters.
type TVar[T any] struct {
	obj *core.Object
	// word and slice are the representation, decided once from T
	// (ARCHITECTURE.md D52): a word-backed value travels in core.Value.W; a
	// slice travels as its data pointer in core.Value.P and its length and
	// capacity in W; anything else, and a slice of capacity 2³² or more,
	// is boxed in P.
	word, slice bool
}

// NewTVar returns a transactional variable holding initial.
func NewTVar[T any](initial T) *TVar[T] {
	t := reflect.TypeOf((*T)(nil)).Elem()
	v := &TVar[T]{obj: core.NewObject(nil), word: t.Size() <= 8 && pointerFree(t), slice: t.Kind() == reflect.Slice}
	v.SetDirect(initial)
	return v
}

// pointerFree reports whether values of type t hold no pointers, so that
// one may live in a uint64 the garbage collector does not scan.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Uintptr, reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// sliceHeader is the layout of every slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// pack and unpack move a T into and out of the variable's representation.
// They hold the package's only unsafe code: a word-backed T is at most 8
// bytes, at most 8-aligned and pointer-free, so it can be copied through
// the address of a uint64, and a slice T is a sliceHeader. The data
// pointer goes into P as an unsafe.Pointer, which an interface holds
// without a box; len | cap<<32 goes into W. A nil interface in P reads
// back as the zero T.
func (v *TVar[T]) pack(val T) (x core.Value) {
	if v.word {
		*(*T)(unsafe.Pointer(&x.W)) = val
		return x
	}
	if v.slice {
		if h := (*sliceHeader)(unsafe.Pointer(&val)); uint64(h.cap) < 1<<32 {
			return core.Value{P: h.data, W: uint64(h.len) | uint64(h.cap)<<32}
		}
	}
	return core.Value{P: val}
}

func (v *TVar[T]) unpack(x core.Value) (val T) {
	if v.word {
		return *(*T)(unsafe.Pointer(&x.W))
	}
	if v.slice {
		if p, ok := x.P.(unsafe.Pointer); ok || x.P == nil {
			*(*sliceHeader)(unsafe.Pointer(&val)) = sliceHeader{p, int(uint32(x.W)), int(x.W >> 32)}
			return val
		}
	}
	val, _ = x.P.(T)
	return val
}

// Load reads v inside the current transaction. Like every access it is
// treated as a write for conflict detection (paper §4.2).
func Load[T any](c *Ctx, v *TVar[T]) T {
	return v.unpack(core.Access(c, v.obj, core.Value{}, false))
}

// Store writes v inside the current transaction.
func Store[T any](c *Ctx, v *TVar[T], val T) {
	core.Access(c, v.obj, v.pack(val), true)
}

// Swap writes val and returns the previous value.
func Swap[T any](c *Ctx, v *TVar[T], val T) T {
	return v.unpack(core.Access(c, v.obj, v.pack(val), true))
}

// Update applies f to the current value and stores the result, returning
// the new value.
func Update[T any](c *Ctx, v *TVar[T], f func(T) T) T {
	next := f(Load(c, v))
	Store(c, v, next)
	return next
}

// Peek reads the value without transactional bookkeeping. Only safe when
// no transactions are running (e.g. after Run returns).
func (v *TVar[T]) Peek() T { return v.unpack(core.PeekValue(v.obj)) }

// SetDirect overwrites the value without transactional bookkeeping. Only
// safe when no transactions are running.
func (v *TVar[T]) SetDirect(val T) { core.SetValue(v.obj, v.pack(val)) }

// SetLabel names the variable for conflict attribution (a stmlib map
// bucket's "m:orders/3"). Call once at construction time, before any
// transaction touches the variable.
func (v *TVar[T]) SetLabel(label string) { v.obj.SetLabel(label) }

// AtomicResult runs fn atomically and returns its result, a generic
// convenience over Ctx.Atomic.
func AtomicResult[R any](c *Ctx, fn func(*Ctx) (R, error)) (R, error) {
	var out R
	err := c.Atomic(func(c *Ctx) error {
		var err error
		out, err = fn(c)
		return err
	})
	return out, err
}
