package epoch

import (
	"sync"
	"sync/atomic"

	"pnstm/internal/bitvec"
)

// Publisher is the background thread of paper §5.1: the only writer of the
// committed masks. It folds the commit ledger (State) into the MaskTable
// and returns discarded bitnums to the free queue.
//
// Commit publication (paper Fig. 4, lines 4–7): when lastComEp[bn] moved
// past the publication frontier, set bn in every committed mask up to it.
//
// Discard processing (paper Fig. 4, lines 8–18): raise the global
// "discarding" bit, publish bn through one epoch PAST the maximum current
// epoch of any running context, then free the bitnum with a minimum epoch
// beyond the published horizon. The extra epoch of slack relative to the
// paper closes a window in which a context's pre-advance erase check can
// race the discarding store (ARCHITECTURE.md D5): with sequentially consistent
// atomics, at most one epoch advance can have loaded stale values before
// the publisher's maxEpoch() read, so publishing through maxCurEp+1 and
// re-using from maxCurEp+2 guarantees no two transactions ever share a
// bitnum at overlapping epochs.
//
// The ledger wakes it (D59): every write that gives it work rings the
// State's doorbell, and it runs one cycle per ring. An idle runtime runs
// none.
type Publisher struct {
	st       *State
	maxEpoch func() Epoch
	free     func(bn bitvec.Bitnum, minEp Epoch)
	bitnums  int

	mu         sync.Mutex // serializes cycles (background loop vs. StepOnce)
	lastInMask [bitvec.Word]Epoch

	paused atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	// Stats (atomic, readable concurrently).
	cycles    atomic.Uint64
	maskOrs   atomic.Uint64
	published atomic.Uint64 // commit publications
	freed     atomic.Uint64 // discards processed
}

// PublisherConfig configures a Publisher.
type PublisherConfig struct {
	// Bitnums is the number of live bitnum slots (N). Only [0, Bitnums) is
	// scanned.
	Bitnums int
	// MaxEpoch must return an epoch at least as large as the current epoch
	// of every running context.
	MaxEpoch func() Epoch
	// Free returns a fully published bitnum to the free queue with the
	// given minimum re-use epoch.
	Free func(bn bitvec.Bitnum, minEp Epoch)
}

// NewPublisher attaches a publisher to st and starts it. st must not have
// been written yet: a ring before the doorbell exists is lost.
func NewPublisher(st *State, cfg PublisherConfig) *Publisher {
	if cfg.Bitnums <= 0 || cfg.Bitnums > bitvec.Word {
		panic("epoch: PublisherConfig.Bitnums out of range")
	}
	if cfg.MaxEpoch == nil || cfg.Free == nil {
		panic("epoch: PublisherConfig requires MaxEpoch and Free")
	}
	p := &Publisher{
		st:       st,
		maxEpoch: cfg.MaxEpoch,
		free:     cfg.Free,
		bitnums:  cfg.Bitnums,
		stop:     make(chan struct{}),
	}
	st.Masks.full = bitvec.Vec(^uint64(0) >> (bitvec.Word - cfg.Bitnums))
	st.bell = make(chan struct{}, 1)
	p.wg.Add(1)
	go p.loop()
	return p
}

// loop is the background publisher goroutine: one cycle per ring.
func (p *Publisher) loop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-p.st.bell:
		}
		// Clear the flag before the scan, so that a write the scan misses
		// rings again (State.ring).
		p.st.rung.Store(false)
		if p.paused.Load() {
			continue // Resume rings
		}
		p.cycles.Add(1)
		p.StepOnce()
	}
}

// cycle scans every bitnum once. Reports whether any publication or
// freeing happened. Must hold p.mu.
func (p *Publisher) cycle() bool {
	work := false
	low := ^Epoch(0)
	for bn := bitvec.Bitnum(0); int(bn) < p.bitnums; bn++ {
		if p.publishBitnum(bn) {
			work = true
		}
		low = min(low, p.lastInMask[bn])
	}
	// Every epoch up to the lowest frontier now holds every bit (D55).
	p.st.Masks.raiseFloor(low)
	return work
}

// publishBitnum folds bn's pending commits and discard into the masks.
func (p *Publisher) publishBitnum(bn bitvec.Bitnum) bool {
	st := p.st
	work := false
	last := p.lastInMask[bn]
	if lc := st.LastCommit(bn); lc > last {
		st.Masks.OrRange(last+1, lc, bn.Bit())
		p.maskOrs.Add(uint64(lc - last))
		p.lastInMask[bn] = lc
		last = lc
		p.published.Add(1)
		work = true
	}
	if st.IsDiscarded(bn) {
		st.beginDiscarding(bn)
		// The discarding bit must be visible before we sample the maximum
		// current epoch (paper Fig. 4 order; see D5).
		target := p.maxEpoch() + 1
		if lc := st.LastCommit(bn); lc > target {
			// Defensive: commits always happen at epochs <= some running
			// context's epoch, so this should be unreachable; never free a
			// bitnum below its own commit frontier regardless.
			target = lc
		}
		if target > last {
			st.Masks.OrRange(last+1, target, bn.Bit())
			p.maskOrs.Add(uint64(target - last))
			p.lastInMask[bn] = target
		}
		st.endDiscarding(bn)
		st.clearDiscarded(bn)
		p.free(bn, target+1)
		p.freed.Add(1)
		work = true
	}
	return work
}

// Pause suspends background publication. Pending commits stay unpublished
// until Resume or StepOnce; used by tests to open the lazy window wide.
func (p *Publisher) Pause() { p.paused.Store(true) }

// Resume restarts background publication and publishes what the ledger
// gathered while paused.
func (p *Publisher) Resume() {
	p.paused.Store(false)
	p.st.ring()
}

// Paused reports whether the publisher is paused.
func (p *Publisher) Paused() bool { return p.paused.Load() }

// StepOnce runs a single full publication cycle over every bitnum on the
// caller's goroutine, regardless of the paused state. Safe to call
// concurrently with the background loop. Returns whether any work was
// done.
func (p *Publisher) StepOnce() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cycle()
}

// Drain runs StepOnce until a cycle finds no work. It publishes everything
// pending at call time; work arriving concurrently may remain.
func (p *Publisher) Drain() {
	for p.StepOnce() {
	}
}

// Close stops the background goroutine and waits for it. The mask table
// remains readable.
func (p *Publisher) Close() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
}

// PublisherStats is a snapshot of publisher activity counters.
type PublisherStats struct {
	Cycles       uint64 // background cycles executed
	MaskWrites   uint64 // per-epoch mask OR operations
	CommitFolds  uint64 // commit publications folded
	BitnumsFreed uint64 // discards processed and freed
}

// Stats returns a snapshot of the publisher's counters.
func (p *Publisher) Stats() PublisherStats {
	return PublisherStats{
		Cycles:       p.cycles.Load(),
		MaskWrites:   p.maskOrs.Load(),
		CommitFolds:  p.published.Load(),
		BitnumsFreed: p.freed.Load(),
	}
}
