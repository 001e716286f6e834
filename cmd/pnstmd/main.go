// Command pnstmd serves named transactional structures (maps, queues,
// counters) over TCP with group-commit batching: concurrent in-flight
// requests coalesce into one root transaction per batch, each request
// running as a parallel nested child via Ctx.Parallel — the paper's
// fork/join mechanism as a network server. Clients compose atomic
// multi-structure operations as OpTx wire transactions (client.Txn):
// ordered sub-ops with read-your-writes and guard assertions, executed
// as one nested child whose sub-ops are nested grandchildren, forked as
// parallel per-key chains when there are 16 or more. Transactions are
// atomic across shards too: one spanning several commits through the
// ordered cross-shard protocol (each participant runs its slice in the
// same global order), and a read-only one reads one consistent cut at
// its place in that order. Every shard's runtime runs the shared-read
// conflict model (the paper's §9 extension): requests in one batch that
// only read the same map bucket never conflict with each other.
//
// Usage:
//
//	pnstmd                                  # listen on :7455, batch up to 64
//	pnstmd -addr :9000 -workers 16 -batch 128 -batchdelay 200us
//	pnstmd -shards 4                        # 4 independent commit pipelines
//	pnstmd -data-dir ./pnstm-data           # durable: WAL + snapshots, crash-safe
//	pnstmd -data-dir ./pnstm-data -shards 4 # durable AND sharded: parallel fsyncs
//	pnstmd -data-dir ./pnstm-data -fsync=false -snapshot-every 10s
//	pnstmd -admin :7456                      # Prometheus /metrics, /healthz,
//	                                         # /readyz, live /config
//	pnstmd -admin :7456 -admin-debug         # + net/http/pprof under /debug/pprof/
//	pnstmd -replica-of primary:7455 -admin :7456  # read-only replica tailing the
//	                                              # primary's WALs; POST /promote
//	                                              # to fail over
//	pnstmd -log-format json -log-level debug # structured logs for collectors
//
// With -shards N the store is split into N engine partitions by
// structure-name hash: each shard owns its own runtime, registry,
// group-commit batcher and (with -data-dir) write-ahead log under
// shard-<i>/, so commits — fsyncs included — on different shards run
// fully in parallel. The shard count is pinned in the data directory's
// manifest; reopening with a different count is refused.
//
// With -data-dir the server write-ahead-logs every group commit (one
// fsync per batch, per shard), checkpoints the whole store on the
// -snapshot-every cadence, and on boot recovers snapshot + WAL tail —
// every shard concurrently — so a restart loses nothing that was acked.
// SIGINT/SIGTERM shut down gracefully (flush + final fsync) and log
// the final stats. Drive it with cmd/pnstm-loadgen.
//
// Conflict X-ray tracing (-trace, on by default) records the lifecycle
// of 1 in 8 batches, and every abort and escalation, into per-slot
// flight-recorder rings; the admin listener ranks the retained aborts
// by key on GET /debug/hotkeys and serves the raw event window on
// GET /debug/trace?secs=N.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pnstm/server"
	"pnstm/stmlib"
)

// buildLogger renders the -log-level/-log-format flags into a slog
// logger on stderr (stdout stays free for report-style output).
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

func main() {
	var (
		addr       = flag.String("addr", ":7455", "TCP listen address")
		shards     = flag.Int("shards", 1, "independent engine partitions (each with its own runtime, batcher and WAL)")
		workers    = flag.Int("workers", 8, "runtime worker slots P per shard (1..32); every fork is at most P blocks wide")
		batch      = flag.Int("batch", 64, "max requests per group commit (1 disables grouping)")
		batchdelay = flag.Duration("batchdelay", 0, "how long a batch waits for stragglers (0: only coalesce what is already in flight)")
		buckets    = flag.Int("buckets", 64, "buckets per named map")
		stripes    = flag.Int("stripes", 8, "stripes per named counter")
		dataDir    = flag.String("data-dir", "", "durability directory (WAL + snapshots); empty: in-memory only")
		fsync      = flag.Bool("fsync", true, "fsync the WAL once per group commit (with -data-dir)")
		snapEvery  = flag.Duration("snapshot-every", time.Minute, "background checkpoint cadence (0 disables; with -data-dir)")
		walSegment = flag.Int64("wal-segment", 0, "WAL segment rotation threshold in bytes (0: default 64 MiB)")
		syncDelay  = flag.Duration("syncdelay", 0, "artificial per-fsync latency floor (benchmark hook simulating slower stable storage, same knob as pnstm-loadgen -syncdelay; with -data-dir -fsync)")
		adminAddr  = flag.String("admin", "", "HTTP admin listen address serving /metrics (Prometheus), /healthz, /readyz, GET/PUT /config, /debug/hotkeys and /debug/trace (empty: no admin listener)")
		adminDebug = flag.Bool("admin-debug", false, "additionally mount net/http/pprof under /debug/pprof/ on the admin listener")
		trace      = flag.Bool("trace", true, "conflict X-ray: record transaction-lifecycle events for /debug/hotkeys and /debug/trace (togglable live via PUT /config)")
		reapEvery  = flag.Duration("reap-interval", 5*time.Second, "TTL/lease reaper cadence: physically remove expired map/sorted-map entries and requeue overdue queue leases (0 disables; primary only — replicas replay the primary's reaps)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log record format: text or json")
		replicaOf  = flag.String("replica-of", "", "run as a read-only replica tailing the durable primary at this address (incompatible with -data-dir); POST /promote on the admin listener to fail over")
		maxStale   = flag.Duration("max-staleness", 0, "replica readiness bound: /readyz turns 503 when the replication watermark lags the primary by more than this (0: default 10s; with -replica-of)")
	)
	flag.Parse()

	log, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnstmd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(log)

	if *workers < 1 || *workers > 32 {
		log.Error("-workers must be in 1..32", "got", *workers)
		os.Exit(2)
	}
	if *batch < 1 {
		log.Error("-batch must be positive", "got", *batch)
		os.Exit(2)
	}
	if *shards < 1 || *shards > 64 {
		log.Error("-shards must be in 1..64", "got", *shards)
		os.Exit(2)
	}
	if *replicaOf != "" {
		if *dataDir != "" {
			log.Error("-replica-of and -data-dir are incompatible: a replica is in-memory (the primary owns durability)")
			os.Exit(2)
		}
	} else if *maxStale != 0 {
		log.Error("-max-staleness only applies with -replica-of")
		os.Exit(2)
	}

	s, err := server.New(server.Config{
		Addr:                *addr,
		Shards:              *shards,
		Workers:             *workers,
		MaxBatch:            *batch,
		BatchDelay:          *batchdelay,
		Registry:            stmlib.RegistryConfig{MapBuckets: *buckets, CounterStripes: *stripes},
		DataDir:             *dataDir,
		Fsync:               *fsync,
		WALSyncDelay:        *syncDelay,
		SnapshotEvery:       *snapEvery,
		WALSegmentBytes:     *walSegment,
		AdminAddr:           *adminAddr,
		AdminDebug:          *adminDebug,
		ReplicaOf:           *replicaOf,
		ReplicaMaxStaleness: *maxStale,
		ReapInterval:        *reapEvery,
		DisableTracing:      !*trace,
		Logger:              log,
	})
	if err != nil {
		log.Error("boot failed", "err", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		ws := s.WALStats()
		log.Info("recovered store", "dir", *dataDir, "shards", *shards,
			"snapshot_records", ws.SnapshotLSN, "wal_records_replayed", ws.TailLSN-ws.SnapshotLSN,
			"durable_records", ws.TailLSN)
		if ws.RepairedTail {
			log.Warn("repaired a torn WAL tail", "segments_quarantined", ws.Quarantined)
		}
	}
	if err := s.Listen(); err != nil {
		log.Error("listen failed", "err", err)
		os.Exit(1)
	}
	if *replicaOf != "" {
		log.Info("replica mode", "primary", *replicaOf,
			"max_staleness_ms", s.ReplicaStatus().MaxStalenessMs)
	}
	log.Info("listening", "addr", s.Addr().String(), "shards", *shards, "workers", *workers,
		"batch", *batch, "delay", *batchdelay, "tracing", *trace)
	if a := s.AdminAddr(); a != nil {
		log.Info("admin listening", "addr", "http://"+a.String(),
			"endpoints", "/metrics /healthz /readyz /config /debug/hotkeys /debug/trace",
			"pprof", *adminDebug)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	select {
	case <-sig:
		log.Info("shutting down")
	case err := <-serveDone:
		if err != nil {
			log.Error("serve failed", "err", err)
			s.Close()
			os.Exit(1)
		}
	}
	start := time.Now()
	s.Close()
	st := s.Stats()
	log.Info("drained", "took", time.Since(start).Round(time.Millisecond).String())
	log.Info("batching totals", "batches", st.Batches, "requests", st.Requests,
		"mean_batch", fmt.Sprintf("%.2f", st.MeanBatch), "largest", st.LargestBatch)
	log.Info("runtime totals", "begun", st.Runtime.Begun, "committed", st.Runtime.Committed,
		"aborted", st.Runtime.Aborted, "abort_ratio", fmt.Sprintf("%.4f", st.RuntimeAborts),
		"escalations", st.Runtime.Escalations, "trace_events", st.Runtime.TraceEvents)
	if st.WAL != nil {
		log.Info("wal totals", "records", st.WAL.Appends, "fsyncs", st.WAL.Syncs,
			"snapshots", st.WAL.Snapshots, "segments", st.WAL.Segments, "durable_records", st.WAL.TailLSN)
	}
	if len(st.PerShard) > 1 {
		for _, sh := range st.PerShard {
			log.Info("shard totals", "shard", sh.Shard, "batches", sh.Batches, "requests", sh.Requests,
				"mean_batch", fmt.Sprintf("%.2f", sh.MeanBatch), "abort_ratio", fmt.Sprintf("%.4f", sh.Runtime.AbortRate()))
		}
	}
}
