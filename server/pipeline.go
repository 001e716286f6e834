package server

import (
	"sync"
	"time"

	"pnstm/internal/metrics"
)

// pipeline is a shard's one commit slot: a shard commits one batch at a
// time (D20), so its log order is its root-commit order and its batches
// never conflict with each other. The batcher holds the slot from launch
// to the last ack; reserveAll hands it to work that is not a batch.
type pipeline struct {
	mu     sync.Mutex
	cond   *sync.Cond
	busy   bool // a batch holds the slot
	paused bool // a reserver holds, or is waiting for, the slot
}

func newPipeline() *pipeline {
	p := &pipeline{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire blocks until the slot is free and not reserved.
func (p *pipeline) acquire() {
	p.mu.Lock()
	for p.paused || p.busy {
		p.cond.Wait()
	}
	p.busy = true
	p.mu.Unlock()
}

// release frees the slot taken by acquire.
func (p *pipeline) release() {
	p.mu.Lock()
	p.busy = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// reserveAll takes the slot for work that is not a batch: it admits no
// new batch at once, waits out the running one and holds the slot until
// the returned release runs. The caller then owns the position between
// two group commits in this shard's commit order — a commit ticket for a
// checkpoint's bulk read or a cross-shard envelope's slice (see
// shard.pauseCommits). A second reserver waits for the first to release.
func (p *pipeline) reserveAll() func() {
	p.mu.Lock()
	for p.paused {
		p.cond.Wait()
	}
	p.paused = true
	for p.busy {
		p.cond.Wait()
	}
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		p.paused = false
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// batchObs is the batcher's instrumentation hooks; a nil *batchObs
// disables them (batchers built directly in tests).
type batchObs struct {
	size     *metrics.Histogram // batch occupancy (requests per group commit)
	form     *metrics.Histogram // µs from first request to batch launch
	rejected *metrics.Counter   // StatusRejected responses (guard failures)
}

func (o *batchObs) observeBatch(size int, formed time.Duration) {
	if o == nil {
		return
	}
	o.size.Observe(float64(size))
	o.form.ObserveDuration(formed)
}

func (o *batchObs) observeRejected() {
	if o != nil {
		o.rejected.Inc()
	}
}
