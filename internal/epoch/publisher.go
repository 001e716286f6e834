package epoch

import (
	"sync"
	"sync/atomic"
	"time"

	"pnstm/internal/bitvec"
)

// Publisher is the background thread(s) of paper §5.1: the only writer of
// the committed masks. It continuously folds the commit ledger (State)
// into the MaskTable and returns discarded bitnums to the free queue.
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
// The publisher can be parallelized by partitioning the bitnum space
// (paper §5.1); Partitions > 1 enables that.
type Publisher struct {
	st       *State
	maxEpoch func() Epoch
	free     func(bn bitvec.Bitnum, minEp Epoch)

	parts []*partition

	paused atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	// Stats (atomic, readable concurrently).
	cycles    atomic.Uint64
	maskOrs   atomic.Uint64
	published atomic.Uint64 // commit publications
	freed     atomic.Uint64 // discards processed
}

// partition owns a disjoint subset of the bitnum space.
type partition struct {
	mu         sync.Mutex // serializes cycles (background loop vs. StepOnce)
	bns        []bitvec.Bitnum
	lastInMask [bitvec.Word]Epoch // frontier; only this partition's bns used
	low        atomic.Uint64      // lowest frontier of bns after the last cycle
}

// PublisherConfig configures a Publisher.
type PublisherConfig struct {
	// Bitnums is the number of live bitnum slots (N). Only [0, Bitnums) is
	// scanned.
	Bitnums int
	// Partitions is the number of background publisher goroutines
	// (paper §5.1 parallel publisher). Defaults to 1.
	Partitions int
	// IdleSleep is how long a publisher goroutine sleeps after a cycle
	// that found no work. Defaults to 20µs.
	IdleSleep time.Duration
	// MaxEpoch must return an epoch at least as large as the current epoch
	// of every running context.
	MaxEpoch func() Epoch
	// Free returns a fully published bitnum to the free queue with the
	// given minimum re-use epoch.
	Free func(bn bitvec.Bitnum, minEp Epoch)
	// StartPaused creates the publisher in the paused state (tests).
	StartPaused bool
}

// NewPublisher creates and starts a publisher.
func NewPublisher(st *State, cfg PublisherConfig) *Publisher {
	if cfg.Bitnums <= 0 || cfg.Bitnums > bitvec.Word {
		panic("epoch: PublisherConfig.Bitnums out of range")
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.Partitions > cfg.Bitnums {
		cfg.Partitions = cfg.Bitnums
	}
	if cfg.IdleSleep <= 0 {
		cfg.IdleSleep = 20 * time.Microsecond
	}
	if cfg.MaxEpoch == nil || cfg.Free == nil {
		panic("epoch: PublisherConfig requires MaxEpoch and Free")
	}
	p := &Publisher{
		st:       st,
		maxEpoch: cfg.MaxEpoch,
		free:     cfg.Free,
		stop:     make(chan struct{}),
	}
	p.paused.Store(cfg.StartPaused)
	st.Masks.full = bitvec.Vec(^uint64(0) >> (bitvec.Word - cfg.Bitnums))
	p.parts = make([]*partition, cfg.Partitions)
	for i := range p.parts {
		p.parts[i] = &partition{}
	}
	for bn := 0; bn < cfg.Bitnums; bn++ {
		part := p.parts[bn%cfg.Partitions]
		part.bns = append(part.bns, bitvec.Bitnum(bn))
	}
	for _, part := range p.parts {
		p.wg.Add(1)
		go p.loop(part, cfg.IdleSleep)
	}
	return p
}

// loop is one background publisher goroutine.
func (p *Publisher) loop(part *partition, idle time.Duration) {
	defer p.wg.Done()
	sleep := idle
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		if p.paused.Load() {
			time.Sleep(idle)
			continue
		}
		part.mu.Lock()
		work := p.cycle(part)
		part.mu.Unlock()
		p.cycles.Add(1)
		if work {
			sleep = idle
			continue
		}
		// Exponential idle backoff, capped: keeps publication latency low
		// under load without burning a core when the system is quiet.
		time.Sleep(sleep)
		if sleep < 8*idle {
			sleep *= 2
		}
	}
}

// cycle scans the partition's bitnums once. Reports whether any
// publication or freeing happened.
func (p *Publisher) cycle(part *partition) bool {
	work := false
	low := ^Epoch(0)
	for _, bn := range part.bns {
		if p.publishBitnum(part, bn) {
			work = true
		}
		low = min(low, part.lastInMask[bn])
	}
	part.low.Store(uint64(low))
	// Every epoch up to the lowest frontier of all partitions now holds
	// every bit (D55).
	for _, q := range p.parts {
		low = min(low, Epoch(q.low.Load()))
	}
	p.st.Masks.raiseFloor(low)
	return work
}

// publishBitnum folds bn's pending commits and discard into the masks.
func (p *Publisher) publishBitnum(part *partition, bn bitvec.Bitnum) bool {
	st := p.st
	work := false
	last := part.lastInMask[bn]
	if lc := st.LastCommit(bn); lc > last {
		st.Masks.OrRange(last+1, lc, bn.Bit())
		p.maskOrs.Add(uint64(lc - last))
		part.lastInMask[bn] = lc
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
			part.lastInMask[bn] = target
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

// Resume restarts background publication.
func (p *Publisher) Resume() { p.paused.Store(false) }

// Paused reports whether the publisher is paused.
func (p *Publisher) Paused() bool { return p.paused.Load() }

// StepOnce runs a single full publication cycle over every bitnum on the
// caller's goroutine, regardless of the paused state. Safe to call
// concurrently with the background loops. Returns whether any work was
// done.
func (p *Publisher) StepOnce() bool {
	work := false
	for _, part := range p.parts {
		part.mu.Lock()
		if p.cycle(part) {
			work = true
		}
		part.mu.Unlock()
	}
	return work
}

// Drain runs StepOnce until a cycle finds no work. It publishes everything
// pending at call time; work arriving concurrently may remain.
func (p *Publisher) Drain() {
	for p.StepOnce() {
	}
}

// Close stops the background goroutines and waits for them. The mask table
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

// Frontier returns the publication frontier of bn (diagnostics/tests).
func (p *Publisher) Frontier(bn bitvec.Bitnum) Epoch {
	for _, part := range p.parts {
		for _, b := range part.bns {
			if b == bn {
				part.mu.Lock()
				e := part.lastInMask[bn]
				part.mu.Unlock()
				return e
			}
		}
	}
	return 0
}
