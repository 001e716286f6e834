// Package metrics is the server's lock-cheap instrumentation layer:
// atomic counters, read-at-scrape gauges, fixed-bucket latency
// histograms, and a registry that renders everything as Prometheus text
// exposition format (the admin listener's /metrics payload).
//
// Hot-path cost is one atomic add per observation — instruments are
// created once at server construction and held directly by the code
// they instrument; the registry only walks them at scrape time. Values
// that the server already tracks elsewhere (WAL counters, runtime
// stats, connection counts) are exported through read-at-scrape
// functions (CounterFunc/GaugeFunc) instead of being double-counted.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// DefBuckets is the default latency histogram bucket layout: upper
// bounds in SECONDS (the Prometheus convention for *_seconds series),
// exponential from 50µs to 5s. The range is matched to a networked
// group-commit store — unloaded point ops sit in the first few
// buckets, fsync-bound and cross-shard commits in the middle, and
// anything past a second is pathology the +Inf bucket catches.
var DefBuckets = []float64{
	50e-6, 100e-6, 200e-6, 400e-6, 800e-6, 1.6e-3, 3.2e-3, 6.4e-3,
	12.8e-3, 25.6e-3, 51.2e-3, 102.4e-3, 204.8e-3, 409.6e-3,
	819.2e-3, 1.6384, 5,
}

// SizeBuckets is a bucket layout for small cardinalities (batch
// occupancy): powers of two up to 1024.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Histogram is a fixed-bucket histogram. Observations are one atomic
// add into the owning bucket plus two for count/sum; buckets are
// cumulative only at render time (Prometheus `le` semantics).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implied
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, same unit as the bounds
}

// NewHistogram creates a histogram over the given ascending upper
// bounds (the implicit +Inf bucket is appended).
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation (same unit as the bucket bounds).
func (h *Histogram) Observe(v float64) {
	// Binary search beats linear scan past ~8 buckets and costs the same
	// below; bounds are small and fixed so this stays branch-predictable.
	// SearchFloat64s returns the smallest i with bounds[i] >= v, so an
	// observation EXACTLY equal to an upper bound deterministically lands
	// in that bucket — `le` is inclusive, the Prometheus contract
	// (pinned by TestHistogramBoundaryObservation).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	// Float sum via CAS: observations are per-batch/per-request scale, so
	// the loop effectively never spins more than once or twice.
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start (latency
// histograms use second-unit bounds).
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// HistSnapshot is a consistent-enough copy of a histogram's state
// (buckets are read without a global lock; under concurrent writes the
// snapshot may be mid-observation skewed by a count or two, which is
// irrelevant at scrape granularity).
type HistSnapshot struct {
	Bounds []float64 // upper bounds; +Inf implied after the last
	Counts []uint64  // per-bucket (NOT cumulative), len(Bounds)+1
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket
// counts by linear interpolation within the owning bucket — the same
// estimate Prometheus's histogram_quantile computes server-side. An
// empty histogram reports 0; a quantile landing in the +Inf bucket
// reports the last finite bound (nothing better is known).
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		frac := 1.0
		if c > 0 {
			frac = (rank - (cum - float64(c))) / float64(c)
		}
		return lo + (s.Bounds[i]-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Labels is one instrument's label set, rendered sorted by name.
type Labels map[string]string

// kind is the Prometheus metric type of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (labelset, value source) inside a family.
type series struct {
	labels string // pre-rendered `{a="x",b="y"}` or ""
	value  func() float64
	hist   *Histogram
}

// family groups series sharing a metric name.
type family struct {
	name string
	help string
	kind kind
	sers []series
}

// Registry holds the metric families and renders them. Registration
// happens at construction time (not on the hot path); WritePrometheus
// may be called concurrently with observations.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

func (r *Registry) familyFor(name, help string, k kind) *family {
	f, ok := r.index[name]
	if !ok {
		f = &family{name: name, help: help, kind: k}
		r.index[name] = f
		r.fams = append(r.fams, f)
	}
	return f
}

// renderLabels renders a label set deterministically (sorted names).
func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", n, ls[n])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, labels, func() float64 { return float64(c.Load()) })
	return c
}

// CounterFunc registers a counter whose value is read at scrape time —
// for monotone values the server already tracks (WAL appends, runtime
// commit counts).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindCounter)
	f.sers = append(f.sers, series{labels: renderLabels(labels), value: fn})
}

// GaugeFunc registers a gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindGauge)
	f.sers = append(f.sers, series{labels: renderLabels(labels), value: fn})
}

// Histogram registers and returns a histogram series over bounds.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindHistogram)
	f.sers = append(f.sers, series{labels: renderLabels(labels), hist: h})
	return h
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// labelJoin splices an extra label into a pre-rendered label block.
func labelJoin(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// WritePrometheus renders every family in text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sers {
			if f.kind != kindHistogram {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtFloat(s.value())); err != nil {
					return err
				}
				continue
			}
			snap := s.hist.Snapshot()
			var cum uint64
			for i, c := range snap.Counts {
				cum += c
				le := "+Inf"
				if i < len(snap.Bounds) {
					le = fmtFloat(snap.Bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelJoin(s.labels, fmt.Sprintf("le=%q", le)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
				f.name, s.labels, fmtFloat(snap.Sum), f.name, s.labels, snap.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
