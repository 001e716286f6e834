package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Set(-3)
	if got := g.Load(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 99, 100, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=10 owns {5,10}; le=100 owns {11,99,100}; le=1000 owns {500}; +Inf owns {5000}.
	want := []uint64{2, 3, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 5+10+11+99+100+500+5000 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 100 uniform observations in (0,40]: quantile estimates should land
	// within one bucket width of the exact value.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 20}, {0.95, 38}, {0.99, 39.6},
	} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want) > 10 {
			t.Fatalf("q%.2f = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestQuantileInfBucket(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Observe(1e9) // lands in +Inf
	if got := h.Snapshot().Quantile(0.99); got != 20 {
		t.Fatalf("+Inf-bucket quantile = %v, want last finite bound 20", got)
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram(DefBuckets)
	h.ObserveDuration(250 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 1 || math.Abs(s.Sum-250e-6) > 1e-12 {
		t.Fatalf("count=%d sum=%v, want 1/0.00025", s.Count, s.Sum)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pnstm_requests_total", "Requests.", Labels{"shard": "0"})
	c.Add(5)
	r.Counter("pnstm_requests_total", "Requests.", Labels{"shard": "1"}).Add(7)
	g := r.Gauge("pnstm_batch_fanout", "Fork bound.", Labels{"shard": "0"})
	g.Set(4)
	r.GaugeFunc("pnstm_ready", "Readiness.", nil, func() float64 { return 1 })
	h := r.Histogram("pnstm_request_latency_seconds", "Latency.", Labels{"class": "point"}, []float64{0.001, 0.1})
	h.Observe(0.0005) // 500µs → le=0.001
	h.Observe(0.05)   // 50ms → le=0.1
	h.Observe(0.2)    // 200ms → +Inf

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pnstm_requests_total counter",
		`pnstm_requests_total{shard="0"} 5`,
		`pnstm_requests_total{shard="1"} 7`,
		"# TYPE pnstm_batch_fanout gauge",
		`pnstm_batch_fanout{shard="0"} 4`,
		"pnstm_ready 1",
		"# TYPE pnstm_request_latency_seconds histogram",
		`pnstm_request_latency_seconds_bucket{class="point",le="0.001"} 1`,
		`pnstm_request_latency_seconds_bucket{class="point",le="0.1"} 2`,
		`pnstm_request_latency_seconds_bucket{class="point",le="+Inf"} 3`,
		`pnstm_request_latency_seconds_count{class="point"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE emitted once per family even with multiple series.
	if n := strings.Count(out, "# TYPE pnstm_requests_total"); n != 1 {
		t.Fatalf("TYPE header appears %d times, want 1", n)
	}
	// _sum carries the observed unit straight through: 0.0005+0.05+0.2.
	if !strings.Contains(out, `pnstm_request_latency_seconds_sum{class="point"} 0.2505`) {
		t.Fatalf("sum line missing/wrong:\n%s", out)
	}
}

func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", nil, DefBuckets)
	c := r.Counter("c", "c", nil)
	var wg sync.WaitGroup
	const perG = 10_000
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(123)
				c.Inc()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 4*perG || c.Load() != 4*perG {
		t.Fatalf("count mismatch: hist=%d counter=%d, want %d", s.Count, c.Load(), 4*perG)
	}
}

// TestHistogramBoundaryObservation pins the `le` contract: an
// observation EXACTLY equal to a bucket's upper bound lands in that
// bucket (le is inclusive, per Prometheus), deterministically, for
// every bound including the first, the last, and repeated observations.
func TestHistogramBoundaryObservation(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	h := NewHistogram(bounds)
	for _, b := range bounds {
		h.Observe(b)
		h.Observe(b) // repeatability: same value, same bucket, every time
	}
	s := h.Snapshot()
	for i := range bounds {
		if s.Counts[i] != 2 {
			t.Fatalf("bucket le=%v holds %d, want 2 (counts=%v)", bounds[i], s.Counts[i], s.Counts)
		}
	}
	if s.Counts[len(bounds)] != 0 {
		t.Fatalf("+Inf bucket holds %d, want 0 (counts=%v)", s.Counts[len(bounds)], s.Counts)
	}

	// A hair above a bound must spill to the NEXT bucket, a hair below
	// must stay — the boundary is exact, not approximate.
	h2 := NewHistogram(bounds)
	h2.Observe(math.Nextafter(0.01, 1)) // just above le=0.01 -> le=0.1
	h2.Observe(math.Nextafter(0.01, 0)) // just below le=0.01 -> le=0.01
	h2.Observe(math.Nextafter(1, 2))    // just above the last bound -> +Inf
	s2 := h2.Snapshot()
	if got := []uint64{s2.Counts[1], s2.Counts[2], s2.Counts[4]}; got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("neighbourhood observations misplaced: counts=%v", s2.Counts)
	}
}
