package server

import (
	"time"
)

// The adaptive controller closes the loop the paper leaves to the
// operator: how much commit pipelining a shard can sustain depends on
// the workload's conflict profile (read-heavy traffic under SharedReads
// pipelines freely; overlapping write-heavy batches livelock — the
// PR 2 cliff that forces the conservative static MaxInflight=1). Each
// tick it observes every shard's conflict-abort rate over the last
// interval and walks that shard's effective MaxInflight — the bound its
// pipeline admits batches under — by AIMD with hysteresis: a spike past
// abortHi halves it (multiplicative decrease, backing off the cliff)
// and remembers a ceiling one below where the cliff bit; calm ticks
// below abortLo raise it by one toward min(ceiling, ctrlInflightCap).
// Rates between the two thresholds hold — the hysteresis band that
// keeps borderline workloads from flapping. After ctrlProbeTicks calm
// ticks parked AT the ceiling the controller raises the ceiling once to
// re-probe — workloads shift (the phase-changing benchmark), and a
// cliff learned during a write burst should not cap a later read phase
// forever.
//
// That is the whole policy. How many parallel blocks a batch forks is
// not walked: runRoot sizes the fork from the batch in its hand, capped
// by Config.BatchFanout (D51).
//
// The controller exists only on a server whose MaxInflight may exceed 1
// (inflightCap: not with a WAL, not Serial) and acts only while
// Config.Adaptive is on; a PUT /config resets every shard to the new
// base MaxInflight and the walk starts again from there.

const (
	ctrlTick        = 100 * time.Millisecond
	ctrlAbortHi     = 0.10 // multiplicative decrease above this conflict-abort rate
	ctrlAbortLo     = 0.02 // additive increase below this
	ctrlCooldown    = 5    // hold ticks after a decrease (let the pipeline drain)
	ctrlProbeTicks  = 20   // calm ticks at the ceiling before re-probing (~2s)
	ctrlInflightCap = 8    // hard upper bound on walked MaxInflight
	ctrlMinObsTx    = 16   // ignore ticks with fewer started txs (noise)
)

// ctrlObs is one tick's observation of one shard.
type ctrlObs struct {
	abortRate float64 // conflict aborts / txs begun over the tick
	txs       uint64  // txs begun over the tick
	batches   uint64  // group commits over the tick
}

// ctrlSample is one reading of a shard's cumulative counters; two
// readings a tick apart make a ctrlObs.
type ctrlSample struct {
	begun, aborted, batches uint64
}

// shardCtrl is the controller's per-shard state. tick and step are pure
// over (state, input) — the unit tests drive them with synthetic traces.
type shardCtrl struct {
	inflight    int
	ceiling     int // learned MaxInflight ceiling (cliff - 1 after a decrease)
	cooldown    int // ticks left to hold after a decrease
	atCeil      int // consecutive calm ticks parked at the ceiling
	inflightCap int // the walk's upper bound

	prev   ctrlSample
	primed bool // prev is the previous ACTIVE tick's sample
}

// newShardCtrl starts a walk at inflight with nothing learned and no
// baseline: the first tick only records one.
func newShardCtrl(inflight, inflightCap int) *shardCtrl {
	return &shardCtrl{
		inflight:    clampInt(inflight, 1, inflightCap),
		ceiling:     inflightCap,
		inflightCap: inflightCap,
	}
}

// tick feeds one sample of the shard's cumulative counters and returns
// the signed change to inflight. The first sample after the controller
// turns on is a baseline only: the counters run from boot, and a step on
// a since-boot delta would judge traffic the walk never saw.
func (c *shardCtrl) tick(s ctrlSample) int {
	prev, primed := c.prev, c.primed
	c.prev, c.primed = s, true
	if !primed {
		return 0
	}
	o := ctrlObs{txs: s.begun - prev.begun, batches: s.batches - prev.batches}
	if o.txs > 0 {
		o.abortRate = float64(s.aborted-prev.aborted) / float64(o.txs)
	}
	return c.step(o)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// step advances the walk one observation — AIMD with hysteresis — and
// returns the signed change applied to inflight (for the steps-total
// metrics: nonzero means it moved).
func (c *shardCtrl) step(o ctrlObs) (dInflight int) {
	if o.batches == 0 {
		return 0 // idle shard: nothing observed, nothing to adapt
	}
	if o.txs < ctrlMinObsTx {
		return 0 // too few transactions to trust the rate
	}
	if c.cooldown > 0 {
		c.cooldown--
		return 0
	}
	switch {
	case o.abortRate > ctrlAbortHi:
		next := c.inflight / 2
		if next < 1 {
			next = 1
		}
		if next < c.inflight {
			c.ceiling = clampInt(c.inflight-1, 1, c.inflightCap)
			dInflight = next - c.inflight
			c.inflight = next
			c.cooldown = ctrlCooldown
		}
		c.atCeil = 0
	case o.abortRate < ctrlAbortLo:
		limit := c.ceiling
		if limit > c.inflightCap {
			limit = c.inflightCap
		}
		if c.inflight < limit {
			c.inflight++
			dInflight = 1
			c.atCeil = 0
		} else if c.inflight == limit && c.ceiling < c.inflightCap {
			c.atCeil++
			if c.atCeil >= ctrlProbeTicks {
				c.ceiling++ // re-probe: next calm tick climbs into it
				c.atCeil = 0
			}
		}
	default:
		// Hysteresis band: hold.
	}
	return dInflight
}

// stopController stops the controller goroutine (idempotent via the
// Close/Kill CAS — both call it exactly once).
func (s *Server) stopController() {
	if s.ctrlStop != nil {
		close(s.ctrlStop)
		<-s.ctrlDone
	}
}

// controllerLoop ticks the per-shard walks. While Adaptive is off it
// reads nothing but the configuration pointer; the tick that finds it on
// starts every shard's walk afresh from its pipeline's current limit.
func (s *Server) controllerLoop() {
	defer close(s.ctrlDone)

	ctrls := make([]*shardCtrl, len(s.shards))
	active := false
	t := time.NewTicker(ctrlTick)
	defer t.Stop()
	for {
		select {
		case <-s.ctrlStop:
			return
		case <-t.C:
		}
		if !s.cfg.Load().Adaptive {
			active = false
			continue
		}
		for i, sh := range s.shards {
			c, limit := ctrls[i], clampInt(sh.b.pl.getLimit(), 1, ctrlInflightCap)
			if !active || limit != c.inflight {
				// Off → on, or a PUT /config moved the limit while we slept:
				// the operator's value is the new starting point and what was
				// learned before it is forgotten.
				c = newShardCtrl(limit, ctrlInflightCap)
				ctrls[i] = c
			}
			rt := sh.rt.Stats()
			batches, _, _, _ := sh.b.stats()
			d := c.tick(ctrlSample{begun: rt.Begun, aborted: rt.Aborted, batches: batches})
			if d == 0 {
				continue
			}
			sh.b.pl.setLimit(c.inflight)
			if d > 0 {
				s.obs.ctrlUp[i].Inc()
			} else {
				s.obs.ctrlDn[i].Inc()
			}
		}
		active = true
	}
}
