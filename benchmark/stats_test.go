package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := medianInt64([]int64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("medianInt64 = %v, want 2.5", got)
	}
}

// ascending returns 1..n.
func ascending(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

// The highest percentile reported is the highest one with at least ten
// samples beyond it: p99 needs more than 1000 samples, p99.9 more than
// 10000.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{100, 0.99, 99, false},    // 1 beyond
		{1000, 0.99, 990, true},   // exactly 10 beyond
		{999, 0.99, 990, false},   // 9 beyond
		{1000, 0.999, 999, false}, // 1 beyond
		{10000, 0.999, 9990, true},
		{20, 1.0, 20, false},
	} {
		got, ok := percentile(ascending(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %d, %v; want %d, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1,2,4,8,16) = %v, want %v", got, want)
	}
}

func TestWorseningFollowsTheMetricsDirection(t *testing.T) {
	higher := metricDef{Better: "higher"}
	lower := metricDef{Better: "lower"}
	if got := worsening(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90: worsening %v, want 0.10", got)
	}
	if got := worsening(lower, 100, 90); got >= 0 {
		t.Errorf("latency 100 -> 90 counted as worse: %v", got)
	}
	if got := worsening(lower, 100, 103); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("allocs 100 -> 103: worsening %v, want 0.03", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "core", Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "stmlib", Name: "map_get", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "stmlib", Name: "map_get", Start: 50, End: 60},
		{ID: 4, Layer: "core", Name: "root", Start: 200, End: 220},
	}
	self := selfTimes(spans)
	if got := self["core.root"]; len(got) != 2 || got[0] != 20 || got[1] != 60 {
		t.Errorf("core.root self times = %v, want [20 60]", got)
	}
	if got := self["stmlib.map_get"]; len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("stmlib.map_get self times = %v, want [10 30]", got)
	}
}

// One phase's timing renders as ops over wall time, the median latency
// and CPU time per op; a p99 needs ten samples beyond it.
func TestTimedMetrics(t *testing.T) {
	m := make(map[string]float64)
	timedMetrics(m, phase{wall: 300, cpu: 400, lat: []int64{9, 5, 6, 5}})
	if want := 4 / 300e-9; math.Abs(m["e2e.throughput_ops_s"]-want) > 1e-3 {
		t.Errorf("throughput %v, want %v", m["e2e.throughput_ops_s"], want)
	}
	if m["e2e.p50_ms"] != 5.5e-6 || m["e2e.cpu_us_per_op"] != 0.1 || m["client.p99_ms"] != 0 || m["client.max_ms"] != 9e-6 {
		t.Errorf("p50 %v ms, cpu %v us/op, p99 %v, max %v; want 5.5e-06, 0.1, 0 (too few samples for a p99) and 9e-06",
			m["e2e.p50_ms"], m["e2e.cpu_us_per_op"], m["client.p99_ms"], m["client.max_ms"])
	}
}
