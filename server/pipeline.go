package server

import (
	"sync"
	"time"

	"pnstm/internal/metrics"
)

// pipeline bounds concurrent group commits per shard. It replaces the
// fixed buffered-channel semaphore so the limit can change while
// acquisitions are in flight (PUT /config, the adaptive controller):
// raising the limit wakes waiters immediately, lowering it lets excess
// in-flight batches drain without being interrupted.
type pipeline struct {
	mu     sync.Mutex
	cond   *sync.Cond
	active int
	limit  int
	paused bool
}

func newPipeline(limit int) *pipeline {
	if limit < 1 {
		limit = 1
	}
	p := &pipeline{limit: limit}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire blocks until a slot is free and the pipeline is not reserved.
func (p *pipeline) acquire() {
	p.mu.Lock()
	for p.paused || p.active >= p.limit {
		p.cond.Wait()
	}
	p.active++
	p.mu.Unlock()
}

// release frees a slot taken by acquire.
func (p *pipeline) release() {
	p.mu.Lock()
	p.active--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// reserveAll takes exclusive ownership of the whole pipeline: it waits
// out every in-flight batch and admits no new one until the returned
// release runs. The caller then owns the position between two group
// commits in this shard's commit order — a commit ticket for work that
// is not a batch (a checkpoint's bulk read, a cross-shard envelope's
// slice; see shard.pauseCommits). Exclusivity is the paused flag, not a
// count of slots: a second reserver waits for the flag to clear, and a
// live limit change cannot disturb a reservation.
func (p *pipeline) reserveAll() func() {
	p.mu.Lock()
	for p.paused {
		p.cond.Wait()
	}
	p.paused = true
	for p.active > 0 {
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

// setLimit changes the concurrency bound. n < 1 clamps to 1.
func (p *pipeline) setLimit(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	p.limit = n
	p.cond.Broadcast()
	p.mu.Unlock()
}

// getLimit reports the current bound.
func (p *pipeline) getLimit() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.limit
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
