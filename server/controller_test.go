package server

import (
	"testing"
)

// cliffTrace builds the observation a shard under a write-hot workload
// produces: calm below the livelock cliff, violent above it.
func cliffTrace(cliff int) func(inflight int) ctrlObs {
	return func(inflight int) ctrlObs {
		rate := 0.005
		if inflight > cliff {
			rate = 0.30
		}
		return ctrlObs{abortRate: rate, txs: 1000, batches: 10}
	}
}

// TestControllerConvergesToCliff drives the AIMD policy against a
// synthetic abort-rate cliff and proves it converges to the cliff and
// never oscillates past the hysteresis/ceiling bounds.
func TestControllerConvergesToCliff(t *testing.T) {
	const cliff = 3
	c := newShardCtrl(1, 8)
	obs := cliffTrace(cliff)

	var atOrBelow, ticks int
	decreaseTicks := []int{}
	for i := 0; i < 400; i++ {
		before := c.inflight
		c.step(obs(c.inflight))
		ticks++
		if c.inflight < before {
			decreaseTicks = append(decreaseTicks, i)
		}
		// The cliff is at 3: the walk may stand on 4 for exactly the tick
		// that discovers the cliff (or a re-probe), but a step must never
		// jump past it.
		if c.inflight > cliff+1 {
			t.Fatalf("tick %d: inflight %d exceeded cliff+1", i, c.inflight)
		}
		if i >= 100 && c.inflight <= cliff {
			atOrBelow++
		}
	}
	if c.inflight < cliff-1 || c.inflight > cliff {
		t.Fatalf("did not converge: final inflight %d, cliff %d", c.inflight, cliff)
	}
	// After the transient, the controller must sit at/below the cliff for
	// the overwhelming majority of ticks (re-probe excursions are single
	// ticks every ctrlProbeTicks).
	if frac := float64(atOrBelow) / float64(ticks-100); frac < 0.9 {
		t.Fatalf("spent only %.0f%% of steady-state ticks at/below the cliff", frac*100)
	}
	// Hysteresis: consecutive decreases must be separated by at least the
	// cooldown (no halving spiral).
	for i := 1; i < len(decreaseTicks); i++ {
		if d := decreaseTicks[i] - decreaseTicks[i-1]; d <= ctrlCooldown {
			t.Fatalf("decreases %d ticks apart, want > cooldown %d", d, ctrlCooldown)
		}
	}
}

// TestControllerHysteresisBandHolds: a rate between the thresholds
// changes nothing, however long it persists.
func TestControllerHysteresisBandHolds(t *testing.T) {
	c := newShardCtrl(4, 8)
	for i := 0; i < 100; i++ {
		dIn := c.step(ctrlObs{abortRate: 0.05, txs: 1000, batches: 10})
		if dIn != 0 {
			t.Fatalf("tick %d: inflight moved (d=%d) inside the hysteresis band", i, dIn)
		}
	}
	if c.inflight != 4 {
		t.Fatalf("inflight drifted to %d", c.inflight)
	}
}

// TestControllerWALClampHolds: a WAL shard (cap 1) never pipelines, no
// matter how calm the trace looks.
func TestControllerWALClampHolds(t *testing.T) {
	c := newShardCtrl(1, 1)
	for i := 0; i < 200; i++ {
		c.step(ctrlObs{abortRate: 0.0, txs: 1000, batches: 10})
		if c.inflight != 1 {
			t.Fatalf("tick %d: WAL-clamped shard walked to inflight %d", i, c.inflight)
		}
	}
}

// TestControllerReprobesAfterPhaseShift: a cliff learned in a write
// phase must not cap a later read phase forever — the periodic re-probe
// climbs back out.
func TestControllerReprobesAfterPhaseShift(t *testing.T) {
	c := newShardCtrl(1, 8)
	writeHot := cliffTrace(2)
	// Phase 1: learn the write-phase cliff at 2.
	for i := 0; i < 100; i++ {
		c.step(writeHot(c.inflight))
	}
	if c.inflight > 2 {
		t.Fatalf("phase 1 did not converge below the cliff: inflight %d", c.inflight)
	}
	// Phase 2: the workload turns read-heavy (no cliff at all). The
	// re-probe must eventually walk back to the cap.
	calm := ctrlObs{abortRate: 0.0, txs: 1000, batches: 10}
	for i := 0; i < 400; i++ {
		c.step(calm)
	}
	if c.inflight != c.inflightCap {
		t.Fatalf("never re-probed after the phase shift: inflight %d, cap %d", c.inflight, c.inflightCap)
	}
}

// TestControllerFirstActiveTickIsBaseline: the counters a tick samples
// run from boot, so the tick that finds the controller switched on (a
// fresh shardCtrl, as controllerLoop builds on the off → on edge) only
// records them — a write-hot history from before the switch must not
// halve a walk that never saw it — and the walk proper starts with the
// next tick's delta.
func TestControllerFirstActiveTickIsBaseline(t *testing.T) {
	// Since boot: 100k transactions, a third of them aborted.
	boot := ctrlSample{begun: 100_000, aborted: 33_000, batches: 5_000}
	c := newShardCtrl(4, 8)
	if d := c.tick(boot); d != 0 || c.inflight != 4 || c.cooldown != 0 {
		t.Fatalf("first active tick stepped on the since-boot delta: d=%d inflight=%d cooldown=%d", d, c.inflight, c.cooldown)
	}
	// One calm interval later the walk climbs: the delta is the interval's.
	calm := ctrlSample{begun: boot.begun + 1000, aborted: boot.aborted + 1, batches: boot.batches + 10}
	if d := c.tick(calm); d != 1 || c.inflight != 5 {
		t.Fatalf("second tick: d=%d inflight=%d, want +1 to 5", d, c.inflight)
	}
	// A violent interval halves it, judged on that interval alone.
	hot := ctrlSample{begun: calm.begun + 1000, aborted: calm.aborted + 300, batches: calm.batches + 10}
	if d := c.tick(hot); d != -3 || c.inflight != 2 {
		t.Fatalf("third tick: d=%d inflight=%d, want -3 to 2", d, c.inflight)
	}
	// Off and on again is a new walk: baseline first, nothing learned.
	c = newShardCtrl(c.inflight, 8)
	if d := c.tick(ctrlSample{begun: hot.begun + 50_000, aborted: hot.aborted + 25_000, batches: hot.batches + 900}); d != 0 {
		t.Fatalf("re-activated walk stepped on the gap it slept through: d=%d", d)
	}
	if c.ceiling != 8 || c.cooldown != 0 {
		t.Fatalf("re-activated walk kept state: ceiling=%d cooldown=%d", c.ceiling, c.cooldown)
	}
}

// TestControllerIgnoresNoiseTicks: a tick with almost no transactions
// must not trigger a decrease, whatever its measured rate.
func TestControllerIgnoresNoiseTicks(t *testing.T) {
	c := newShardCtrl(4, 8)
	c.step(ctrlObs{abortRate: 1.0, txs: ctrlMinObsTx - 1, batches: 2})
	if c.inflight != 4 {
		t.Fatalf("noise tick moved inflight to %d", c.inflight)
	}
}
