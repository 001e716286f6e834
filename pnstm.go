package pnstm

import (
	"reflect"
	"time"
	"unsafe"

	"pnstm/internal/core"
	"pnstm/internal/epoch"
)

// Ctx is an execution context handed to block programs and transaction
// bodies. It provides Atomic (begin a transaction, possibly nested),
// Parallel (fork–join inside or outside a transaction) and the raw
// Load/Store accessors; the generic Load/Store/Update package functions
// are the typed front end.
type Ctx = core.Ctx

// Stats is a snapshot of runtime activity counters; see the field
// documentation in the core package.
type Stats = core.Stats

// Var is an untyped transactional variable. Prefer the generic TVar.
type Var = core.Object

// NewVar returns an untyped transactional variable holding initial.
func NewVar(initial any) *Var { return core.NewObject(initial) }

// ErrClosed is returned by Run after Close.
var ErrClosed = core.ErrClosed

// Config configures a Runtime.
//
// Field interactions:
//
//   - Serial overrides almost everything else: it disables the scheduler,
//     the publisher and conflict detection, so Workers,
//     DisableAggressiveRecycle, SharedReads, PublisherPartitions,
//     PublisherStartPaused, SpinRetries and the backoff fields have no
//     effect, and Runtime.Publisher returns nil. A Serial runtime is
//     single-threaded: concurrent Run calls are not safe in this mode.
//   - DisableAggressiveRecycle turns off unilateral bitnum discards,
//     which also eliminates borrow switches and merged-victim
//     escalations; deep trees then lean harder on the publisher to
//     recycle bitnums, so expect more head-of-line waiting when the free
//     queue runs dry.
//   - SharedReads changes the conflict model itself (reads stop
//     conflicting with reads), so results of racy programs may differ
//     from the default write-only model; oracle-style comparisons against
//     Serial still hold for deterministic programs.
//   - PublisherStartPaused holds the lazy-publication window open until
//     Publisher().Resume or a manual StepOnce/Drain; accessors then rely
//     on SpinRetries and committed-descendant notes, and deliberately do
//     not help-publish (tests pause the publisher precisely to keep the
//     window open).
//   - SpinRetries, YieldAfterAborts, BackoffBase/BackoffMax and Seed tune
//     the same retry loop, in escalating order: spin in place, then back
//     off (randomized via Seed), then yield the worker slot.
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

	// PublisherPartitions parallelizes the background publisher over the
	// bitnum space (paper §5.1). Default 1.
	PublisherPartitions int

	// PublisherStartPaused starts the publisher paused. Testing only: it
	// holds the lazy-publication window open.
	PublisherStartPaused bool

	// SpinRetries bounds in-place conflict re-testing before a transaction
	// aborts. Default 64.
	SpinRetries int

	// YieldAfterAborts is how many consecutive aborts a transaction
	// tolerates before giving its worker slot back between retries.
	// Default 3.
	YieldAfterAborts int

	// BackoffBase and BackoffMax bound the randomized exponential backoff
	// between retries. Defaults 500ns and 100µs.
	BackoffBase time.Duration
	BackoffMax  time.Duration

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
		PublisherPartitions:      cfg.PublisherPartitions,
		PublisherStartPaused:     cfg.PublisherStartPaused,
		SpinRetries:              cfg.SpinRetries,
		YieldAfterAborts:         cfg.YieldAfterAborts,
		BackoffBase:              cfg.BackoffBase,
		BackoffMax:               cfg.BackoffMax,
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
// package's Event documentation. Kinds are the EvBegin..EvCrisis
// constants; TraceKindName renders them.
type TraceEvent = core.Event

// Trace event kinds.
const (
	EvBegin    = core.EvBegin
	EvCommit   = core.EvCommit
	EvAbort    = core.EvAbort
	EvEscalate = core.EvEscalate
	EvCrisis   = core.EvCrisis
)

// TraceKindName renders a trace-event kind ("begin", "abort", ...).
func TraceKindName(k uint8) string { return core.KindName(k) }

// EnableTracing switches lifecycle-event recording on or off (the
// conflict X-ray flight recorder). Safe to flip at any time.
func (r *Runtime) EnableTracing(on bool) { r.rt.EnableTracing(on) }

// TracingEnabled reports whether lifecycle events are being recorded.
func (r *Runtime) TracingEnabled() bool { return r.rt.TracingEnabled() }

// SetTraceSampling records the begin/commit lifecycle for 1 in every
// roots (0 or 1: every root). Conflict events — abort, escalate,
// crisis — are always recorded regardless, so abort attribution stays
// exact under sampling.
func (r *Runtime) SetTraceSampling(every uint64) { r.rt.SetTraceSampling(every) }

// TraceSampling returns the lifecycle sampling divisor (≤1: all roots).
func (r *Runtime) TraceSampling() uint64 { return r.rt.TraceSampling() }

// TraceRings returns the recorder's ring count — the cursor-slice
// length TraceRead expects.
func (r *Runtime) TraceRings() int { return r.rt.TraceRings() }

// TraceRead drains events recorded since the given per-ring cursors
// (nil reads from each ring's start) and returns them with the
// advanced cursors. Lock-free; safe to call concurrently with running
// transactions.
func (r *Runtime) TraceRead(cursors []uint64) ([]TraceEvent, []uint64) {
	return r.rt.TraceRead(cursors)
}

// TraceReadConflicts drains only abort/escalate/crisis events (always
// recorded regardless of lifecycle sampling) from the dedicated
// conflict rings — the cheap poll for continuous consumers like the
// hot-key profiler.
func (r *Runtime) TraceReadConflicts(cursors []uint64) ([]TraceEvent, []uint64) {
	return r.rt.TraceReadConflicts(cursors)
}

// TraceSnapshot returns every event the flight recorder currently
// retains (for dumps).
func (r *Runtime) TraceSnapshot() []TraceEvent { return r.rt.TraceSnapshot() }

// TraceStats reports events recorded and events dropped (overwritten
// before any reader drained them).
func (r *Runtime) TraceStats() (events, dropped uint64) { return r.rt.TraceStats() }

// SetCrisisHook installs fn to run each time a root transaction takes
// the cross-root crisis token (on that root's goroutine — it must not
// block). The server dumps the flight recorder here.
func (r *Runtime) SetCrisisHook(fn func()) { r.rt.SetCrisisHook(fn) }

// TVar is a typed transactional variable. A variable of a pointer-free
// type of at most 8 bytes (int, bool, float64, time.Duration, a named
// uint8, struct{ x, y int32 }, [8]byte, ...) keeps its value in a machine
// word: loading and storing it allocates nothing. Every other type —
// strings, slices, maps, pointers, interfaces, larger structs — is held as
// an interface value, so storing a non-pointer one boxes it; hold a pointer
// where that matters.
type TVar[T any] struct {
	obj *core.Object
	// word is the representation, decided once from T: the value travels
	// in core.Value.W rather than boxed in core.Value.P (ARCHITECTURE.md D52).
	word bool
}

// NewTVar returns a transactional variable holding initial.
func NewTVar[T any](initial T) *TVar[T] {
	t := reflect.TypeOf((*T)(nil)).Elem()
	v := &TVar[T]{obj: core.NewObject(nil), word: t.Size() <= 8 && pointerFree(t)}
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

// pack and unpack move a T into and out of the variable's representation.
// They hold the package's only unsafe code: a word-backed T is at most 8
// bytes, at most 8-aligned and pointer-free, so it can be copied through
// the address of a uint64. A nil interface in P reads back as the zero T.
func (v *TVar[T]) pack(val T) (x core.Value) {
	if !v.word {
		return core.Value{P: val}
	}
	*(*T)(unsafe.Pointer(&x.W)) = val
	return x
}

func (v *TVar[T]) unpack(x core.Value) T {
	if v.word {
		return *(*T)(unsafe.Pointer(&x.W))
	}
	val, _ := x.P.(T)
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
// transaction touches the variable. The untyped variable underneath is not
// exposed: a word-backed value would read as nil through Ctx.Load.
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
