package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pnstm/internal/bitnum"
	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

// Config configures a Runtime. The zero value is not valid; use sensible
// defaults via Default or fill in Workers.
type Config struct {
	// Workers is P, the number of worker slots. 1..32 (the bit-vector
	// space is N = 2P <= 64, the machine word: paper §3).
	Workers int

	// Serial selects the serial-nesting baseline (paper §7): Parallel runs
	// children inline in one context, work stealing and the publisher are
	// disabled, and conflict detection degenerates to the trivial check.
	Serial bool

	// DisableAggressiveRecycle turns off the unilateral discard of the
	// last remaining sibling's bitnum (§6.2). On by default; the switch
	// exists for ablation benchmarks and debugging.
	DisableAggressiveRecycle bool

	// SharedReads enables the §9 read-access extension: Load becomes a
	// shared read that never conflicts with other readers, and a write is
	// admitted only when every active reader is an ancestor. With it off
	// (the default), every access is a write, as in the paper's evaluation.
	SharedReads bool

	// PublisherPartitions is the number of parallel publisher goroutines
	// (§5.1). Default 1.
	PublisherPartitions int

	// PublisherStartPaused creates the publisher paused (tests: opens the
	// lazy-publication window arbitrarily wide).
	PublisherStartPaused bool

	// SpinRetries bounds how many times an access re-tests a conflicted
	// object before aborting; spinning rides out the publication latency
	// of already committed transactions (§5.1). Default 64.
	SpinRetries int

	// YieldAfterAborts is the number of consecutive aborts after which a
	// context returns its worker slot to the scheduler before retrying.
	// Default 3.
	YieldAfterAborts int

	// EscalateAfterAborts is the number of consecutive aborts after which
	// a nested transaction stops retrying locally and propagates the
	// conflict to its parent, aborting it (and, transitively, the writes
	// of its committed children). This is the nesting-aware contention
	// management the paper's conclusions call for: with plain
	// requester-aborts, two transactions that each committed a child and
	// are parked waiting for a second child can deadlock — each surviving
	// child conflicts with the other parent's lineage, and aborting a leaf
	// releases nothing. Escalation aborts a parent, which does release its
	// merged children's entries. Default 8.
	EscalateAfterAborts int

	// BackoffBase / BackoffMax bound the randomized exponential backoff
	// between retries. Defaults 500ns / 100µs.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// CrisisAborts is the number of consecutive ROOT aborts after which
	// the cross-root livelock breaker engages. Nested escalation (above)
	// resolves contention inside one block tree, but concurrent root
	// transactions with overlapping write sets can still abort each other
	// forever: exponential backoff tops out at BackoffMax, which is
	// comparable to one root attempt's execution time, so staggering
	// never separates them. A root that aborts this many times contends
	// for the runtime's single crisis token: the winner keeps retrying
	// with normal backoff while every loser sleeps CrisisBackoff-scale
	// intervals between attempts — quiescing the system so the token
	// holder commits, releases the token, and the next struggling root
	// takes it. Token waiters only ever sleep (never block on a lock
	// while holding a worker slot), so the breaker cannot deadlock the
	// scheduler. Default 16.
	CrisisAborts int

	// CrisisBackoff is the sleep interval for roots that lost the crisis
	// token race. It must dwarf a typical root attempt so the holder runs
	// effectively alone. Default 2ms.
	CrisisBackoff time.Duration

	// Seed seeds the per-slot RNGs used for backoff jitter. Default 1.
	Seed int64
}

func (c *Config) fillDefaults() error {
	if c.Workers <= 0 {
		return fmt.Errorf("core: Workers must be positive, got %d", c.Workers)
	}
	if 2*c.Workers > bitvec.Word {
		return fmt.Errorf("core: Workers must be <= %d (bit-vector space is 2P bits)", bitvec.Word/2)
	}
	if c.PublisherPartitions <= 0 {
		c.PublisherPartitions = 1
	}
	if c.SpinRetries <= 0 {
		c.SpinRetries = 64
	}
	if c.YieldAfterAborts <= 0 {
		c.YieldAfterAborts = 3
	}
	if c.EscalateAfterAborts <= 0 {
		c.EscalateAfterAborts = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Nanosecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 100 * time.Microsecond
	}
	if c.CrisisAborts <= 0 {
		c.CrisisAborts = 16
	}
	if c.CrisisBackoff <= 0 {
		c.CrisisBackoff = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Runtime owns the worker slots, the scheduler, the shared epoch state and
// the publisher. Create with New, run root blocks with Run, and Close when
// done.
type Runtime struct {
	cfg     Config
	nbits   int // N: size of the bitnum space
	st      *epoch.State
	pub     *epoch.Publisher
	sched   *scheduler
	limiter *bitnum.Limiter
	slots   []*slot
	stats   counters

	closeMu sync.RWMutex
	closed  atomic.Bool

	// serialEp is where the last Serial-mode Run left its epoch. A Serial
	// object keeps its last access entry for good, so the next root must
	// start past it: an old entry inside the new root's epoch window would
	// read as the root's own, and its first write would log no undo record.
	serialEp epoch.Epoch

	// crisisToken is the cross-root livelock breaker's exclusivity hint:
	// held (true) while one root transaction that crossed CrisisAborts
	// retries at full speed and its competitors quiesce. A hint, not a
	// lock — losers keep retrying on a slow clock, so a stuck holder can
	// never wedge the runtime.
	crisisToken atomic.Bool

	// rec is the lifecycle-event flight recorder (D35). Always built;
	// records only while its enabled flag is set.
	rec *recorder

	// rootSeq tickets traced root transactions so every event in one
	// root's lineage shares an identity.
	rootSeq atomic.Uint64

	// crisisHook, when non-nil, runs on the goroutine of each root that
	// takes the crisis token (the server dumps the flight recorder).
	crisisHook func()

	// testHook, when non-nil, receives diagnostic scheduling events
	// (dispatch decisions, borrow conversions). Tests only. Call sites
	// test it for nil themselves: a variadic call boxes every argument
	// before the callee could decline it.
	testHook func(format string, args ...any)

	// undoReleaseHook, when non-nil, is handed every undo-log chunk on its
	// way back to the pool, after its records were cleared. Tests only.
	undoReleaseHook func(*undoChunk)
}

// New creates a runtime with P = cfg.Workers worker slots and an identifier
// space of N = 2P bitnums, of which at most L = N−P may be held by blocked
// parents (paper §6.1) — guaranteeing P bitnums always cycle through leaf
// blocks.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg}
	rt.rec = newRecorder(cfg.Workers)
	if cfg.Serial {
		// The baseline runs on the caller's goroutine with no scheduler,
		// bitnums, or publisher (paper §7: "work stealing is disabled ...
		// without any dequeuing or locking").
		return rt, nil
	}
	p := cfg.Workers
	rt.nbits = 2 * p
	rt.st = &epoch.State{}
	rt.limiter = bitnum.NewLimiter(rt.nbits - p)
	rt.slots = make([]*slot, p)
	for i := range rt.slots {
		rt.slots[i] = &slot{id: i, rng: rand.New(rand.NewSource(cfg.Seed + int64(i)))}
		rt.slots[i].ep.Store(1)
	}
	rt.sched = newScheduler(rt, rt.nbits, rt.slots)
	rt.pub = epoch.NewPublisher(rt.st, epoch.PublisherConfig{
		Bitnums:     rt.nbits,
		Partitions:  cfg.PublisherPartitions,
		MaxEpoch:    rt.maxEpoch,
		Free:        rt.sched.freeBitnum,
		StartPaused: cfg.PublisherStartPaused,
	})
	return rt, nil
}

// maxEpoch returns an epoch at least as large as every running context's
// epoch. Slot epochs are monotone (D11), so this also dominates the epochs
// of parked contexts, which resumed at epochs their slots once published.
func (rt *Runtime) maxEpoch() epoch.Epoch {
	var m epoch.Epoch
	for _, s := range rt.slots {
		if e := s.epochOf(); e > m {
			m = e
		}
	}
	return m
}

// Run executes fn as a root block and blocks until it (and every block it
// forked) completes. Multiple Run calls may be active concurrently; each
// is an independent block tree. A panic inside the tree is re-raised on
// the calling goroutine after all of the tree's transactions have been
// rolled back or committed.
func (rt *Runtime) Run(fn func(*Ctx)) error {
	rt.closeMu.RLock()
	defer rt.closeMu.RUnlock()
	if rt.closed.Load() {
		return ErrClosed
	}
	if rt.cfg.Serial {
		ctx := &Ctx{rt: rt, ep: rt.serialEp + 1}
		defer func() { rt.serialEp = ctx.ep }()
		fn(ctx)
		return nil
	}
	done := make(chan rootResult, 1)
	rt.sched.enqueue(&block{program: fn, minEp: 1, done: done})
	res := <-done
	if res.panicVal != nil {
		panic(res.panicVal)
	}
	return nil
}

// Close waits for active Run calls to finish and stops the publisher.
// Further Run calls return ErrClosed. Close is idempotent.
func (rt *Runtime) Close() {
	rt.closed.Store(true)
	rt.closeMu.Lock() // waits for in-flight Runs holding the read lock
	rt.closeMu.Unlock()
	if rt.pub != nil {
		rt.pub.Close()
	}
}

// Stats returns a snapshot of runtime activity counters.
func (rt *Runtime) Stats() Stats {
	s := rt.stats.snapshot()
	if rt.limiter != nil {
		s.PeakParents = uint64(rt.limiter.Peak())
	}
	s.TraceEvents, s.TraceDropped = rt.TraceStats()
	return s
}

// Publisher exposes the background publisher for tests and benchmarks
// (pause/step/drain). Nil in serial mode.
func (rt *Runtime) Publisher() *epoch.Publisher { return rt.pub }

// helpPublish runs one synchronous publication cycle on the caller's
// goroutine. Accessors call it when an object's live stack outgrows the
// expected publication window, which means the background publisher is
// starved (e.g. GOMAXPROCS=1 under a tight transaction loop). A paused
// publisher is respected — tests pause it precisely to hold the lazy
// window open. Reports whether a cycle ran.
func (rt *Runtime) helpPublish() bool {
	if rt.pub == nil || rt.pub.Paused() {
		return false
	}
	rt.pub.StepOnce()
	rt.stats.helpPublishes.Add(1)
	return true
}

// Workers returns the configured worker count P.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// Bitnums returns the identifier space size N (0 in serial mode).
func (rt *Runtime) Bitnums() int { return rt.nbits }

// initCtx sets up, in place, the context a dispatched block runs in. Its
// trace identity was written by the forker.
func (b *block) initCtx(rt *Runtime) *Ctx {
	c := &b.ctx
	c.rt, c.block, c.spare = rt, b, &b.tx0
	c.baseTx, c.cur = b.baseTx, b.baseTx
	// A copy: the context filters its notes in place, the snapshot is the
	// parked forker's and its siblings'.
	c.comDesc = append(c.noteBuf[:0], b.comDesc...)
	c.bn = b.bn
	if b.baseTx != nil {
		c.ancBase = b.baseTx.anc
		if b.borrowed {
			c.bn = b.baseTx.bitnum
		}
	}
	return c
}

// runBlock is the body of a dispatch: bind the slot, run the program,
// finish the block. f is the reserved bitnum (ignored when borrowed).
func (rt *Runtime) runBlock(sl *slot, b *block, f bitnum.Free, borrowed bool) {
	if borrowed {
		b.bn = bitvec.None
		b.borrowed = true
		rt.stats.borrowDispatch.Add(1)
	} else if j := b.succ; j != nil {
		j.mu.Lock()
		if b.baseTx != nil && b.baseTx.liveBlocks.Load() == 1 {
			// Steal-time single child (paper stealBlock lines 9–10): every
			// other block under the base transaction has finished, so
			// borrow its bitnum and return the reserved one unused (D9).
			// The whole-transaction live-block count, not the join's, is
			// what makes this sound (D15).
			j.mu.Unlock()
			rt.sched.returnUnused(f)
			b.bn = bitvec.None
			b.borrowed = true
			rt.stats.borrowDispatch.Add(1)
			if hook := rt.testHook; hook != nil {
				hook("DISPATCH steal-borrow block=%p baseTx.bn=%v baseTx.anc=%v minEp=%d", b, b.baseTx.bitnum, b.baseTx.anc, b.minEp)
			}
		} else {
			b.bn, b.bnMinEp = f.Bn, f.MinEp
			j.precBitnums = j.precBitnums.Add(f.Bn)
			j.live = append(j.live, b)
			j.mu.Unlock()
			rt.stats.dispatches.Add(1)
			if hook := rt.testHook; hook != nil {
				hook("DISPATCH block=%p bn=%v bnMinEp=%d minEp=%d join=%p", b, b.bn, b.bnMinEp, b.minEp, j)
			}
		}
	} else {
		b.bn, b.bnMinEp = f.Bn, f.MinEp
		rt.stats.dispatches.Add(1)
	}

	ctx := b.initCtx(rt)
	// The extra erases against the block's fork-time epoch and the base
	// transaction's begin epoch catch ancestor bitnums that were
	// unilaterally discarded while this block sat in the queue, even when
	// the dispatch epoch jumps past their publication horizon. The base
	// ancestor set is a begin-time snapshot, and a discarded bitnum is
	// always published through the begin epoch of any transaction whose
	// snapshot contains it (D11).
	if b.baseTx != nil {
		ctx.adoptSlot(sl, epoch.Max(b.minEp, b.bnMinEp), b.baseTx.beginEp, b.minEp)
	} else {
		ctx.adoptSlot(sl, epoch.Max(b.minEp, b.bnMinEp), b.minEp)
	}

	func() {
		defer func() {
			if r := recover(); r != nil {
				ctx.noteBlockPanic(r)
			}
		}()
		b.program(ctx)
	}()

	rt.finishBlock(ctx)
}

// finishBlock implements the paper's finishBlock: discard the block's
// bitnum, fold the block's outcome into its continuation's join, possibly
// unilaterally discard the last remaining sibling's bitnum (§6.2), and
// either hand the worker slot to the now-ready continuation or return it
// to the scheduler.
func (rt *Runtime) finishBlock(c *Ctx) {
	b := c.block
	finishEp := c.ep
	selfDiscard := false
	if !b.borrowed && b.bn.Valid() && b.bnDiscarded.CompareAndSwap(false, true) {
		rt.st.Discard(b.bn, finishEp)
		rt.stats.selfDiscards.Add(1)
		selfDiscard = true
	}

	j := b.succ
	if j == nil {
		// Root block: return the slot and report completion.
		rt.sched.releaseSlot(c.slot)
		if b.done != nil {
			b.done <- rootResult{panicVal: c.panicVal}
		}
		return
	}

	j.mu.Lock()
	j.comDesc = rt.cleanNotes(j.comDesc)
	if selfDiscard {
		// The continuation may access this block's committed writes before
		// the publisher catches up; the note prevents those pathological
		// false conflicts (§5.2 case 2).
		j.comDesc = addNote(j.comDesc, comNote{bn: b.bn, ep: finishEp})
	}
	j.comDesc = mergeNotes(j.comDesc, rt.cleanNotes(c.comDesc))
	if !b.borrowed && b.bn.Valid() {
		j.precBitnums = j.precBitnums.Remove(b.bn)
		j.removeLive(b.bn)
	}
	if finishEp > j.minEp {
		j.minEp = finishEp
	}
	if c.panicVal != nil && !j.panicked {
		j.panicked, j.panicVal = true, c.panicVal
	}
	remaining := j.unfinished.Add(-1)
	var victim *block
	if remaining == 1 && !rt.cfg.DisableAggressiveRecycle && len(j.live) == 1 {
		// Exactly one sibling still runs. If it is also the base
		// transaction's only other live block (liveBlocks == 2: the
		// finisher has not decremented yet), it has become an only child:
		// its transactions can merge into the base transaction's identity
		// and its bitnum can be recycled (paper finishBlock lines 9–10,
		// strengthened per D15 — a stale read can only skip the
		// optimization, never grant it wrongly, because blocks the victim
		// forks afterwards belong to the victim's own line).
		v := j.live[0]
		if v.baseTx != nil && v.baseTx.liveBlocks.Load() == 2 &&
			v.bnDiscarded.CompareAndSwap(false, true) {
			victim = v
			j.precBitnums = j.precBitnums.Remove(v.bn)
			j.removeLive(v.bn)
			// The victim's own finish will find its bitnum already
			// discarded and leave no note, yet whatever it committed under
			// that bitnum before now stays on the access stacks until this
			// discard is published. Note it here, at the discard's epoch:
			// the continuation reads the notes only after the victim has
			// finished, and the note lapses with the publication that
			// precedes any re-use of the bitnum (§5.2 case 2, D12).
			j.comDesc = addNote(j.comDesc, comNote{bn: v.bn, ep: finishEp})
		}
	}
	var payload joinPayload
	if remaining == 0 {
		payload = joinPayload{
			slot:    c.slot,
			minEp:   j.minEp,
			comDesc: j.comDesc,
			pval:    j.panicVal,
			ppanic:  j.panicked,
		}
	}
	j.mu.Unlock()

	if victim != nil {
		rt.st.Discard(victim.bn, finishEp)
		rt.stats.remoteDiscards.Add(1)
	}
	// The finished block leaves the base transaction's live set last, so
	// that concurrent single-child decisions still count it (D15).
	if b.baseTx != nil {
		b.baseTx.liveBlocks.Add(-1)
	}
	if remaining == 0 {
		// Hand the slot straight to the parked continuation (paper
		// finishBlock lines 11–13: the last finisher runs the successor).
		j.resume <- payload
		return
	}
	rt.sched.releaseSlot(c.slot)
}

// cleanNotes drops committed-descendant notes whose bitnum has been
// published past the note epoch (it may be re-used from then on).
func (rt *Runtime) cleanNotes(notes []comNote) []comNote {
	kept := notes[:0]
	for _, n := range notes {
		if rt.st.Masks.Get(n.ep).Has(n.bn) {
			continue
		}
		kept = append(kept, n)
	}
	return kept
}
