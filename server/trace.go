package server

import (
	"sort"
	"time"

	"pnstm"
)

// Conflict X-ray, server side (D36). GET /debug/hotkeys answers
// "WHAT is aborting" from the shards' conflict rings on request: each
// retained abort/escalation is attributed to a key — the victim
// request's name:key tag when the batcher stamped one, else the label
// of the object that failed validation — and the keys are ranked by
// count. Nothing is counted between requests.

// HotKey is one entry of the ranked conflict table: Count of the
// retained aborts and escalations name Key.
type HotKey struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
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
}

// HotKeys ranks the n keys with the most aborts and escalations among
// those the shards' conflict rings still retain — the newest 4096 per
// worker slot per shard, not everything since boot. Counts within that
// window are exact; ties rank by key.
func (s *Server) HotKeys(n int) HotKeysReport {
	rep := HotKeysReport{Tracing: s.TracingEnabled()}
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

// TracingEnabled reports whether the shards record lifecycle events
// (the PUT /config "tracing" knob; with tracing off the rings simply
// stay quiet).
func (s *Server) TracingEnabled() bool { return !s.cfg.Load().DisableTracing }
