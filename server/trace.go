package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pnstm"
)

// The conflict profiler (D36) turns the runtimes' flight-recorder
// streams into an operator-facing answer to "WHAT is aborting": a
// background goroutine drains every shard's trace rings on a short
// cadence, attributes each abort/escalation to a key — the victim
// request's name:key tag when the batcher stamped one, else the label
// of the object that failed validation — and folds the attributions
// into a space-saving top-K sketch. GET /debug/hotkeys serves the
// ranked table; /metrics exports it as pnstm_hotkey_aborts. The same
// goroutine owns the crisis dump (D37): when any shard's runtime takes
// the crisis token, the whole flight recorder is written to a
// timestamped JSON file in the data directory.

// profilePollInterval is the ring-drain cadence. Each per-slot ring
// holds 4096 events, so even a shard aborting 100k times a second
// stays well inside a ring between polls.
const profilePollInterval = 250 * time.Millisecond

// hotKeyCapacity is the space-saving sketch's entry budget. The sketch
// guarantees any key with true count > N/capacity (N = total
// attributed aborts) is present, which is far finer than "top handful
// of hot keys" needs.
const hotKeyCapacity = 256

// crisisDumpDebounce is the minimum gap between flight-recorder dump
// files: a livelocked shard can take the crisis token repeatedly, and
// each dump snapshots the same recent history anyway.
const crisisDumpDebounce = 5 * time.Second

// HotKey is one entry of the ranked conflict table: Count aborts and
// escalations were attributed to Key; the true count lies in
// [Count-Err, Count] (Err is the space-saving overcount bound, nonzero
// only for keys that inherited an evicted entry's count).
type HotKey struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// hotEntry is one live sketch slot.
type hotEntry struct {
	key  string
	n, e uint64
}

// spaceSaving is the Metwally et al. top-K frequency sketch: a bounded
// key table where an unseen key evicts the current minimum and
// inherits its count as an error bound. O(capacity) per eviction —
// fine off the hot path (only the profiler goroutine observes).
type spaceSaving struct {
	mu  sync.Mutex
	cap int
	m   map[string]*hotEntry
}

func newSpaceSaving(capacity int) *spaceSaving {
	return &spaceSaving{cap: capacity, m: make(map[string]*hotEntry, capacity)}
}

func (t *spaceSaving) observe(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.m[key]; e != nil {
		e.n++
		return
	}
	if len(t.m) < t.cap {
		t.m[key] = &hotEntry{key: key, n: 1}
		return
	}
	var min *hotEntry
	for _, e := range t.m {
		if min == nil || e.n < min.n {
			min = e
		}
	}
	delete(t.m, min.key)
	t.m[key] = &hotEntry{key: key, n: min.n + 1, e: min.n}
}

// top returns the n highest-count entries, count-descending (key
// ascending on ties, so the ranking is deterministic).
func (t *spaceSaving) top(n int) []HotKey {
	t.mu.Lock()
	out := make([]HotKey, 0, len(t.m))
	for _, e := range t.m {
		out = append(out, HotKey{Key: e.key, Count: e.n, Err: e.e})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// traceProfiler owns the ring cursors, the sketch and the crisis dump.
type traceProfiler struct {
	s *Server

	pollMu  sync.Mutex // serializes poll (loop tick vs on-demand HotKeys)
	cursors [][]uint64 // per shard, per ring

	sketch              *spaceSaving
	aborts, escalations atomic.Uint64 // attributed events folded so far

	crisisCh chan struct{}
	dumps    atomic.Uint64 // dump files written

	stop chan struct{}
	done chan struct{}
}

func newTraceProfiler(s *Server) *traceProfiler {
	p := &traceProfiler{
		s:        s,
		cursors:  make([][]uint64, len(s.shards)),
		sketch:   newSpaceSaving(hotKeyCapacity),
		crisisCh: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i, sh := range s.shards {
		p.cursors[i] = make([]uint64, sh.rt.TraceRings())
	}
	go p.loop()
	return p
}

func (p *traceProfiler) close() {
	close(p.stop)
	<-p.done
}

// noteCrisis is each shard runtime's crisis hook. It must not block —
// it runs on the struggling root's goroutine — so the signal collapses
// into a single pending dump.
func (p *traceProfiler) noteCrisis() {
	select {
	case p.crisisCh <- struct{}{}:
	default:
	}
}

func (p *traceProfiler) loop() {
	defer close(p.done)
	ticker := time.NewTicker(profilePollInterval)
	defer ticker.Stop()
	var lastDump time.Time
	for {
		select {
		case <-ticker.C:
			p.poll()
		case <-p.crisisCh:
			p.poll() // the events leading into the crisis belong in the dump
			if time.Since(lastDump) >= crisisDumpDebounce {
				lastDump = time.Now()
				p.dumpFlightRecorder()
			}
		case <-p.stop:
			p.poll()
			return
		}
	}
}

// poll drains every shard's conflict rings since the last poll and
// folds each abort/escalation into the sketch. Only the conflict rings:
// they carry abort/escalate/crisis events exclusively (recorded even
// under lifecycle sampling), so the steady-state poll cost scales with
// the conflict rate, not the transaction rate (D38). Attribution
// prefers the victim request's tag (the name:key the batcher stamped —
// exact per-key attribution) and falls back to the conflicting object's
// label (bucket or stripe granularity, still actionable).
func (p *traceProfiler) poll() {
	p.pollMu.Lock()
	defer p.pollMu.Unlock()
	for i, sh := range p.s.shards {
		events, cursors := sh.rt.TraceReadConflicts(p.cursors[i])
		p.cursors[i] = cursors
		for j := range events {
			ev := &events[j]
			switch ev.Kind {
			case pnstm.EvAbort:
				p.aborts.Add(1)
			case pnstm.EvEscalate:
				p.escalations.Add(1)
			default:
				continue
			}
			key := ev.Tag
			if key == "" {
				key = ev.Obj
			}
			if key == "" {
				continue
			}
			p.sketch.observe(key)
		}
	}
}

// HotKeysReport is the GET /debug/hotkeys payload.
type HotKeysReport struct {
	Tracing      bool     `json:"tracing"`
	Top          []HotKey `json:"top"`
	Aborts       uint64   `json:"attributed_aborts"`
	Escalations  uint64   `json:"attributed_escalations"`
	TraceEvents  uint64   `json:"trace_events"`
	TraceDropped uint64   `json:"trace_dropped"`
	Dumps        uint64   `json:"crisis_dumps"`
}

// HotKeys polls the rings synchronously (so the report reflects
// everything recorded before the call, not the last tick) and renders
// the ranked table.
func (s *Server) HotKeys(n int) HotKeysReport {
	s.prof.poll()
	var events, dropped uint64
	for _, sh := range s.shards {
		e, d := sh.rt.TraceStats()
		events += e
		dropped += d
	}
	return HotKeysReport{
		Tracing:      s.TracingEnabled(),
		Top:          s.prof.sketch.top(n),
		Aborts:       s.prof.aborts.Load(),
		Escalations:  s.prof.escalations.Load(),
		TraceEvents:  events,
		TraceDropped: dropped,
		Dumps:        s.prof.dumps.Load(),
	}
}

// ShardTrace is one shard's slice of a trace dump: its retained events
// in timestamp order.
type ShardTrace struct {
	Shard  int                `json:"shard"`
	Events []pnstm.TraceEvent `json:"events"`
}

// TraceWindow snapshots every shard's flight recorder and keeps the
// events of the trailing window (zero: everything retained). Serves
// GET /debug/trace?secs=N.
func (s *Server) TraceWindow(window time.Duration) []ShardTrace {
	var cut int64
	if window > 0 {
		cut = time.Now().Add(-window).UnixNano()
	}
	out := make([]ShardTrace, len(s.shards))
	for i, sh := range s.shards {
		events := sh.rt.TraceSnapshot()
		kept := events[:0]
		if events == nil {
			kept = []pnstm.TraceEvent{} // idle shard: JSON [], not null
		}
		for _, ev := range events {
			if ev.TS >= cut {
				kept = append(kept, ev)
			}
		}
		sort.Slice(kept, func(a, b int) bool { return kept[a].TS < kept[b].TS })
		out[i] = ShardTrace{Shard: sh.id, Events: kept}
	}
	return out
}

// flightDump is the crisis dump file's schema.
type flightDump struct {
	WrittenAt time.Time     `json:"written_at"`
	Reason    string        `json:"reason"`
	Shards    []ShardTrace  `json:"shards"`
	HotKeys   HotKeysReport `json:"hot_keys"`
}

// dumpFlightRecorder writes the full retained trace to a timestamped
// file in the data directory (memory-only servers skip the file; the
// evidence is still live on /debug/trace). Runs on the profiler
// goroutine only.
func (p *traceProfiler) dumpFlightRecorder() {
	s := p.s
	dir := s.cfg.Load().DataDir
	if dir == "" {
		return
	}
	dump := flightDump{
		WrittenAt: time.Now(),
		Reason:    "crisis token engaged",
		Shards:    s.TraceWindow(0),
		HotKeys:   s.HotKeys(32),
	}
	blob, err := json.MarshalIndent(&dump, "", "  ")
	if err != nil {
		s.log.Error("flight recorder dump failed to encode", "err", err)
		return
	}
	name := fmt.Sprintf("flight-%s.json", dump.WrittenAt.UTC().Format("20060102T150405.000"))
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		s.log.Error("flight recorder dump failed to write", "path", path, "err", err)
		return
	}
	p.dumps.Add(1)
	s.log.Warn("crisis: flight recorder dumped", "path", path, "shards", len(dump.Shards))
}

// TracingEnabled reports whether the shards record lifecycle events
// (the PUT /config "tracing" knob; the profiler keeps running either
// way — with tracing off the rings simply stay quiet).
func (s *Server) TracingEnabled() bool { return !s.cfg.Load().DisableTracing }
