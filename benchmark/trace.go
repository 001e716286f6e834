package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the public function it calls. Spans of one operation share
// Op; Parent is the enclosing span's ID (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// countEvent is a snapshot of the public counters on the spans' timeline.
type countEvent struct {
	T      int64             `json:"t_ns"`
	Counts map[string]uint64 `json:"counts"`
}

// tracer keeps spans in memory until the run ends. It is not safe for
// concurrent use: the wire pass gives every caller its own tracer (with a
// disjoint ID range) and merges them afterwards.
type tracer struct {
	t0    time.Time
	next  int64
	spans []span
}

func newTracer(t0 time.Time, idBase int64, capacity int) *tracer {
	return &tracer{t0: t0, next: idBase, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index in t.spans.
func (t *tracer) begin(parent, op int64, layer, name string) int {
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

func (t *tracer) id(i int) int64 { return t.spans[i].ID }

// within records a span around fn when fn runs inside a transaction body.
// A conflict unwinds the body by panic and the runtime runs it again, so
// the span is closed on the way out either way, and an attempt that did
// not return is renamed <name>_aborted: it stays in the file, and out of
// the rung's figure.
func (t *tracer) within(parent, op int64, layer, name string, fn func()) {
	i := t.begin(parent, op, layer, name)
	returned := false
	defer func() {
		t.end(i)
		if !returned {
			t.spans[i].Name += "_aborted"
		}
	}()
	fn()
	returned = true
}

// add records an already-timed span.
func (t *tracer) add(op int64, layer, name string, start, end time.Time) {
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Op: op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// selfTimes returns every span's self time (its duration minus the part
// its child spans cover), in nanoseconds, grouped by "layer.name" and
// sorted ascending.
func selfTimes(spans []span) map[string][]int64 {
	children := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]int64)
	for _, s := range spans {
		key := s.Layer + "." + s.Name
		out[key] = append(out[key], s.End-s.Start-children[s.ID])
	}
	for _, v := range out {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	return out
}

// traceFile is what a traced run writes.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Spans    []span       `json:"spans"`
	Counts   []countEvent `json:"counts"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
