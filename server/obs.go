package server

import (
	"strconv"

	"pnstm/internal/metrics"
)

// Op classes for the request latency histograms: a point op (map/queue/
// counter single op), a single-shard or read-only-fanned OpTx envelope,
// and a cross-shard ordered commit. Measured in handleConn from parse
// to delivery, so batching delay, execution and WAL fsync are all
// inside the number — what a client actually waits.
const (
	classPoint = "point"
	classTx    = "tx"
	classCross = "cross"
)

// serverObs holds every instrument the server exports. It is built
// BEFORE the shards (instrument closures read s.shards lazily, and the
// first scrape can only happen once the admin listener serves, after
// New returns), so the WAL open path and the batchers can take their
// hooks from it.
type serverObs struct {
	reg *metrics.Registry

	latency map[string]*metrics.Histogram // per op class
	fsync   []*metrics.Histogram          // per shard
	batch   []*batchObs                   // per shard, handed to newBatcher
	ctrlUp  []*metrics.Counter            // controller steps per shard
	ctrlDn  []*metrics.Counter
}

// newServerObs registers the pnstm_* metric families. s.shards may
// still be empty — every closure re-reads it at scrape time.
func newServerObs(s *Server) *serverObs {
	cfg := s.cfg.Load()
	r := metrics.NewRegistry()
	o := &serverObs{
		reg:     r,
		latency: make(map[string]*metrics.Histogram),
	}

	for _, class := range []string{classPoint, classTx, classCross} {
		o.latency[class] = r.Histogram("pnstm_request_latency_seconds",
			"Request latency from parse to response delivery, by op class.",
			metrics.Labels{"class": class}, metrics.DefBuckets)
	}

	r.GaugeFunc("pnstm_ready", "1 while the server accepts work: recovery done, not shutting down, no WAL latched.",
		nil, func() float64 {
			if s.Ready() == nil {
				return 1
			}
			return 0
		})
	r.GaugeFunc("pnstm_shards", "Engine partition count.", nil,
		func() float64 { return float64(len(s.shards)) })
	r.GaugeFunc("pnstm_conns", "Open client connections.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.conns))
	})

	// Replication watermarks (D41). Registered only on replicas; every
	// closure nil-checks s.repl (it is built after the obs plane).
	if cfg.ReplicaOf != "" {
		r.GaugeFunc("pnstm_replica", "1 while serving as a read-only replica, 0 once promoted to primary.",
			nil, func() float64 {
				if s.isReplica() {
					return 1
				}
				return 0
			})
		for i := 0; i < cfg.Shards; i++ {
			i := i
			lbl := metrics.Labels{"shard": strconv.Itoa(i)}
			sr := func() *shardRepl {
				if s.repl != nil && i < len(s.repl.shards) {
					return s.repl.shards[i]
				}
				return nil
			}
			r.GaugeFunc("pnstm_replica_applied_lsn", "Last WAL record replayed into this shard's local store.", lbl,
				func() float64 {
					if sr := sr(); sr != nil {
						sr.mu.Lock()
						defer sr.mu.Unlock()
						return float64(sr.applied)
					}
					return 0
				})
			r.GaugeFunc("pnstm_replica_head_lsn", "Primary's durable tail for this shard, as last reported.", lbl,
				func() float64 {
					if sr := sr(); sr != nil {
						sr.mu.Lock()
						defer sr.mu.Unlock()
						return float64(sr.head)
					}
					return 0
				})
			r.GaugeFunc("pnstm_replica_staleness_seconds", "Age of this shard's replication watermark (-1 until first caught up).", lbl,
				func() float64 {
					if s.repl == nil {
						return -1
					}
					st, ok := s.repl.shardStaleness(i)
					if !ok {
						return -1
					}
					return st.Seconds()
				})
			r.GaugeFunc("pnstm_replica_connected", "1 while this shard's tailing stream to the primary is live.", lbl,
				func() float64 {
					if sr := sr(); sr != nil {
						sr.mu.Lock()
						defer sr.mu.Unlock()
						if sr.connected {
							return 1
						}
					}
					return 0
				})
		}
	}

	// Conflict X-ray (D35–D37). s.prof is built after the shards, so
	// every closure nil-checks it (a scrape can only arrive later, but
	// cheap defense beats an ordering invariant).
	r.GaugeFunc("pnstm_tracing", "1 while transaction-lifecycle tracing records into the flight recorder.",
		nil, func() float64 {
			if s.TracingEnabled() {
				return 1
			}
			return 0
		})
	r.CounterSamples("pnstm_hotkey_aborts",
		"Conflict aborts and escalations attributed per key (space-saving top-K; err_bound is the possible overcount).",
		func() []metrics.Sample {
			if s.prof == nil {
				return nil
			}
			top := s.prof.sketch.top(32)
			out := make([]metrics.Sample, len(top))
			for i, hk := range top {
				out[i] = metrics.Sample{Labels: metrics.Labels{"key": hk.Key}, Value: float64(hk.Count)}
			}
			return out
		})
	r.CounterFunc("pnstm_crisis_dumps_total", "Flight-recorder dump files written on crisis engagements.", nil,
		func() float64 {
			if s.prof == nil {
				return 0
			}
			return float64(s.prof.dumps.Load())
		})

	for i := 0; i < cfg.Shards; i++ {
		i := i
		lbl := metrics.Labels{"shard": strconv.Itoa(i)}
		sh := func() *shard {
			if i < len(s.shards) {
				return s.shards[i]
			}
			return nil
		}

		r.CounterFunc("pnstm_requests_total", "Requests executed through the group-commit path.", lbl,
			func() float64 {
				if sh := sh(); sh != nil && sh.b != nil {
					_, reqs, _, _ := sh.b.stats()
					return float64(reqs)
				}
				return 0
			})
		r.CounterFunc("pnstm_batches_total", "Group commits executed.", lbl,
			func() float64 {
				if sh := sh(); sh != nil && sh.b != nil {
					batches, _, _, _ := sh.b.stats()
					return float64(batches)
				}
				return 0
			})
		r.CounterFunc("pnstm_txs_begun_total", "Runtime transactions started (retries count).", lbl,
			func() float64 {
				if sh := sh(); sh != nil {
					return float64(sh.rt.Stats().Begun)
				}
				return 0
			})
		r.CounterFunc("pnstm_crises_total", "Cross-root livelock-breaker engagements (a struggling root took the crisis token and serialized the shard until it committed).", lbl,
			func() float64 {
				if sh := sh(); sh != nil {
					return float64(sh.rt.Stats().Crises)
				}
				return 0
			})
		r.CounterFunc("pnstm_trace_events_total", "Transaction-lifecycle events recorded into the flight recorder.", lbl,
			func() float64 {
				if sh := sh(); sh != nil {
					e, _ := sh.rt.TraceStats()
					return float64(e)
				}
				return 0
			})
		r.CounterFunc("pnstm_trace_dropped_total", "Flight-recorder events overwritten before any reader drained them.", lbl,
			func() float64 {
				if sh := sh(); sh != nil {
					_, d := sh.rt.TraceStats()
					return float64(d)
				}
				return 0
			})
		r.CounterFunc("pnstm_aborts_total", "Transaction aborts, by reason: conflict (runtime retry) or rejected (guard failure).",
			metrics.Labels{"shard": strconv.Itoa(i), "reason": "conflict"},
			func() float64 {
				if sh := sh(); sh != nil {
					return float64(sh.rt.Stats().Aborted)
				}
				return 0
			})

		bo := &batchObs{
			size: r.Histogram("pnstm_batch_size", "Requests coalesced per group commit.",
				lbl, metrics.SizeBuckets),
			form: r.Histogram("pnstm_batch_form_seconds", "Time from a batch's first request to its launch.",
				lbl, metrics.DefBuckets),
			rejected: r.Counter("pnstm_aborts_total",
				"Transaction aborts, by reason: conflict (runtime retry) or rejected (guard failure).",
				metrics.Labels{"shard": strconv.Itoa(i), "reason": "rejected"}),
		}
		o.batch = append(o.batch, bo)

		o.fsync = append(o.fsync, r.Histogram("pnstm_wal_fsync_seconds",
			"WAL fsync duration per group commit (includes any configured SyncDelay floor).",
			lbl, metrics.DefBuckets))
		r.CounterFunc("pnstm_wal_appends_total", "WAL records appended.", lbl,
			func() float64 {
				if sh := sh(); sh != nil && sh.wal != nil {
					return float64(sh.wal.Stats().Appends)
				}
				return 0
			})
		r.CounterFunc("pnstm_wal_syncs_total", "WAL fsyncs issued.", lbl,
			func() float64 {
				if sh := sh(); sh != nil && sh.wal != nil {
					return float64(sh.wal.Stats().Syncs)
				}
				return 0
			})

		r.GaugeFunc("pnstm_max_inflight", "Live concurrent-group-commit bound (PUT /config or controller).", lbl,
			func() float64 {
				if sh := sh(); sh != nil && sh.b != nil {
					return float64(sh.b.pl.getLimit())
				}
				return 0
			})
		r.GaugeFunc("pnstm_batch_fanout", "Live parallel-block bound per batch.", lbl,
			func() float64 { return float64(s.cfg.Load().BatchFanout) })

		o.ctrlUp = append(o.ctrlUp, r.Counter("pnstm_controller_steps_total",
			"Adaptive controller knob adjustments, by direction.",
			metrics.Labels{"shard": strconv.Itoa(i), "direction": "up"}))
		o.ctrlDn = append(o.ctrlDn, r.Counter("pnstm_controller_steps_total",
			"Adaptive controller knob adjustments, by direction.",
			metrics.Labels{"shard": strconv.Itoa(i), "direction": "down"}))
	}
	return o
}

// LatencySummary is the OpStats rendering of one op-class histogram:
// counts plus interpolated percentiles in microseconds (the unit the
// BENCH reports and loadgen output already use).
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
}

// latencySummaries renders every op-class histogram with at least one
// observation.
func (o *serverObs) latencySummaries() map[string]LatencySummary {
	if o == nil {
		return nil
	}
	out := make(map[string]LatencySummary)
	for class, h := range o.latency {
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		out[class] = LatencySummary{
			Count: snap.Count,
			P50us: snap.Quantile(0.50) * 1e6,
			P95us: snap.Quantile(0.95) * 1e6,
			P99us: snap.Quantile(0.99) * 1e6,
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
