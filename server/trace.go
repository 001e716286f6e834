package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"pnstm"
)

// Conflict X-ray, server side (D36, D37). GET /debug/hotkeys answers
// "WHAT is aborting" from the shards' conflict rings on request: each
// retained abort/escalation is attributed to a key — the victim
// request's name:key tag when the batcher stamped one, else the label
// of the object that failed validation — and the keys are ranked by
// count. Nothing is counted between requests. The crisis dump is event
// driven: when any shard's runtime takes the crisis token, the whole
// flight recorder is written to a timestamped JSON file in the data
// directory.

// crisisDumpDebounce is the minimum gap between flight-recorder dump
// files: a livelocked shard can take the crisis token repeatedly, and
// each dump snapshots the same recent history anyway.
const crisisDumpDebounce = 5 * time.Second

// HotKey is one entry of the ranked conflict table: Count of the
// retained aborts and escalations name Key.
type HotKey struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
}

// crisisDumper writes the crisis dump off the struggling root's
// goroutine.
type crisisDumper struct {
	s *Server

	last    atomic.Int64  // unix nanoseconds of the last accepted signal
	pending chan struct{} // an accepted signal not yet dumped
	dumps   atomic.Uint64 // dump files written

	stop chan struct{}
	done chan struct{}
}

func newCrisisDumper(s *Server) *crisisDumper {
	d := &crisisDumper{
		s:       s,
		pending: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go d.loop()
	return d
}

// close stops the dumper; a signal still pending is dumped first.
func (d *crisisDumper) close() {
	close(d.stop)
	<-d.done
}

// noteCrisis is each shard runtime's crisis hook. It must not block —
// it runs on the struggling root's goroutine. The debounce is decided
// here, so a refused signal never reaches the dumper goroutine; an
// accepted one collapses into a dump still pending.
func (d *crisisDumper) noteCrisis() {
	now, last := time.Now().UnixNano(), d.last.Load()
	if now-last < int64(crisisDumpDebounce) || !d.last.CompareAndSwap(last, now) {
		return
	}
	select {
	case d.pending <- struct{}{}:
	default:
	}
}

func (d *crisisDumper) loop() {
	defer close(d.done)
	for {
		select {
		case <-d.pending:
			d.dumpFlightRecorder()
		case <-d.stop:
			select {
			case <-d.pending:
				d.dumpFlightRecorder()
			default:
			}
			return
		}
	}
}

// HotKeysReport is the GET /debug/hotkeys payload. Aborts and
// Escalations count the conflict events the rings retain.
type HotKeysReport struct {
	Tracing      bool     `json:"tracing"`
	Top          []HotKey `json:"top"`
	Aborts       uint64   `json:"attributed_aborts"`
	Escalations  uint64   `json:"attributed_escalations"`
	TraceEvents  uint64   `json:"trace_events"`
	TraceDropped uint64   `json:"trace_dropped"`
	Dumps        uint64   `json:"crisis_dumps"`
}

// HotKeys ranks the n keys with the most aborts and escalations among
// those the shards' conflict rings still retain — the newest 4096 per
// worker slot per shard, not everything since boot. Counts within that
// window are exact; ties rank by key.
func (s *Server) HotKeys(n int) HotKeysReport {
	rep := HotKeysReport{Tracing: s.TracingEnabled(), Dumps: s.crisis.dumps.Load()}
	counts := make(map[string]uint64)
	for _, sh := range s.shards {
		events, dropped := sh.rt.TraceStats()
		rep.TraceEvents += events
		rep.TraceDropped += dropped
		for _, ev := range sh.rt.TraceConflicts() {
			switch ev.Kind {
			case pnstm.EvAbort:
				rep.Aborts++
			case pnstm.EvEscalate:
				rep.Escalations++
			default:
				continue
			}
			key := ev.Tag
			if key == "" {
				key = ev.Obj
			}
			if key != "" {
				counts[key]++
			}
		}
	}
	rep.Top = make([]HotKey, 0, len(counts))
	for key, count := range counts {
		rep.Top = append(rep.Top, HotKey{Key: key, Count: count})
	}
	sort.Slice(rep.Top, func(i, j int) bool {
		if rep.Top[i].Count != rep.Top[j].Count {
			return rep.Top[i].Count > rep.Top[j].Count
		}
		return rep.Top[i].Key < rep.Top[j].Key
	})
	if n > 0 && len(rep.Top) > n {
		rep.Top = rep.Top[:n]
	}
	return rep
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
// evidence is still live on /debug/trace). Runs on the dumper
// goroutine only.
func (d *crisisDumper) dumpFlightRecorder() {
	s := d.s
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
	d.dumps.Add(1)
	s.log.Warn("crisis: flight recorder dumped", "path", path, "shards", len(dump.Shards))
}

// TracingEnabled reports whether the shards record lifecycle events
// (the PUT /config "tracing" knob; with tracing off the rings simply
// stay quiet).
func (s *Server) TracingEnabled() bool { return !s.cfg.Load().DisableTracing }
