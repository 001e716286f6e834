// Command pnstm-loadgen drives configurable workload mixes against a
// pnstmd server and emits a machine-readable BENCH_*.json summary
// (throughput, latency percentiles, abort rate from the server's
// runtime stats) through the shared internal/bench encoder.
//
// Workloads:
//
//	readmap   read-heavy point ops on one named map (-readfrac)
//	queue     producer/consumer traffic over several named queues
//	counter   hot-counter increments with occasional parallel-nested sums
//	checkout  cross-structure orders (stock map + sold/revenue counters),
//	          with conservation invariants checked at the end
//	mixed     all of the above interleaved
//	txmix     multi-op wire transactions (client.Txn envelopes): checkout
//	          orders, atomic queue-to-queue transfers (cross-shard pairs
//	          preferred), guarded compare-and-swap bumps (aborted guards
//	          tallied as rejections), and read-only cross-structure
//	          audits that fan shards — with transfer/CAS/conservation
//	          ledgers verified
//	crossshard  guarded balance transfers between account maps on
//	          different shards — every mutating envelope rides the
//	          cross-shard ordered-commit path — with the zero-sum
//	          ledger total verified exactly at the end
//	phases    phase-shifting mix: read-heavy → write-hot on a tiny
//	          key-space → mixed, one third of -duration each — the
//	          workload the adaptive-controller A/B runs on
//	hotkey    zipfian-skewed write-heavy point traffic: a handful of
//	          keys draw most of the writes, so batch siblings conflict
//	          on them constantly — the workload the conflict profiler
//	          (/debug/hotkeys) is demonstrated on
//
// Usage:
//
//	pnstm-loadgen -addr localhost:7455 -workload readmap -duration 5s
//	pnstm-loadgen -workload mixed -concurrency 32 -conns 8 -json .
//	pnstm-loadgen -workload readmap -rate 20000          # open loop
//	pnstm-loadgen -compare -workload readmap -json .     # embedded A/B:
//	        group commit (batched) vs batch-size-1 serial execution
//	pnstm-loadgen -compare -workload txmix -fsync -syncdelay 2ms -json .
//	        # durable A/B on multi-op wire transactions: the serial
//	        # baseline fsyncs once per REQUEST, group commit once per
//	        # BATCH — the amortization the envelope path is built on
//	pnstm-loadgen -compare -persist -workload counter -json .
//	        # persistence overhead A/B: in-memory vs WAL vs WAL+fsync
//	pnstm-loadgen -compare -adaptive -workload phases -duration 9s -json .
//	        # controller A/B: adaptive AIMD MaxInflight vs
//	        # the best pinned static config on the phase-shifting mix
//	pnstm-loadgen -compare -trace-ab -workload mixed -json .
//	        # tracing-overhead A/B: the same batched workload with the
//	        # conflict X-ray off vs on, emitting tracing_overhead_ratio
//	pnstm-loadgen -compare -shards 4 -syncdelay 2ms -min-shard-speedup 1.5
//	        # shard-scaling A/B: 1-shard vs 4-shard durable server —
//	        # parallel per-shard group-commit pipelines, fsyncs included
//	pnstm-loadgen -compare -replica-ab -min-replica-speedup 1.4 -json .
//	        # replica read-pool A/B: the same pure-read workload against
//	        # the durable primary alone vs primary + 2 WAL-shipping
//	        # replicas read with ReadPreferReplica, emitting
//	        # replica_read_speedup_ratio
//	pnstm-loadgen -kill-after 3s -json .    # crash-recovery drill:
//	        hard-kill an embedded durable server mid-load, restart it on
//	        the same data dir, verify the recovered invariants
//	pnstm-loadgen -recovery-check -addr localhost:7455
//	        # after an out-of-process kill -9 + restart: verify the
//	        # recovered store's conservation invariants
//
// Every run verifies its workload's closed-form invariants against the
// final server state and exits nonzero on a violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pnstm/client"
	"pnstm/internal/bench"
	"pnstm/server"
	"pnstm/stmlib"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:7455", "pnstmd address")
		workload    = flag.String("workload", "mixed", "readmap, queue, counter, checkout, mixed, txmix, crossshard, phases, hotkey or pipeline")
		concurrency = flag.Int("concurrency", 16, "issuing goroutines")
		conns       = flag.Int("conns", 4, "pooled client connections")
		duration    = flag.Duration("duration", 5*time.Second, "measurement window")
		rate        = flag.Float64("rate", 0, "total target ops/sec (0: closed loop)")
		keys        = flag.Int("keys", 1024, "readmap key-space size")
		readFrac    = flag.Float64("readfrac", 0.9, "readmap read fraction")
		skus        = flag.Int("skus", 16, "checkout SKU count")
		stockPer    = flag.Int64("stock", 100000, "checkout initial units per SKU")
		queues      = flag.Int("queues", 4, "queue workload: distinct queues")
		seed        = flag.Int64("seed", 1, "workload seed")
		jsonDir     = flag.String("json", "", "directory to write the BENCH_*.json report into (empty: stdout summary only)")
		name        = flag.String("name", "", "report name override")

		compare      = flag.Bool("compare", false, "embedded A/B: run against two in-process servers — group commit vs batch-size-1 serial — instead of -addr")
		compareBatch = flag.Int("comparebatch", 64, "compare mode: MaxBatch of the batched server")
		workers      = flag.Int("workers", 8, "compare/crash mode: worker slots of the embedded servers")
		persist      = flag.Bool("persist", false, "with -compare: persistence-overhead A/B — in-memory vs WAL (no fsync) vs WAL (fsync per group commit)")
		fsyncCmp     = flag.Bool("fsync", false, "with -compare: run BOTH A/B servers durable with one fsync per commit — the serial baseline pays it per REQUEST, group commit per BATCH (combine with -syncdelay for a deterministic floor)")
		shards       = flag.Int("shards", 1, "with -compare: shard-scaling A/B — 1-shard vs N-shard durable server, parallel per-shard group commits; with -kill-after: shard count of the crashed server")
		syncDelay    = flag.Duration("syncdelay", 0, "compare modes: artificial per-fsync latency floor (simulates slower stable storage so the fsync/pipeline count dominates, not the box's disk)")
		minSpeedup   = flag.Float64("min-shard-speedup", 0, "shard compare: fail unless N-shard throughput ≥ this multiple of 1-shard (0: report only)")
		minCmpSpdup  = flag.Float64("min-speedup", 0, "compare mode: fail unless batched throughput ≥ this multiple of the serial baseline (0: report only)")
		adaptiveCmp  = flag.Bool("adaptive", false, "with -compare: controller A/B — adaptive AIMD tuning vs pinned static MaxInflight (run it on -workload phases)")
		minAdaptive  = flag.Float64("min-adaptive-ratio", 0, "adaptive compare: fail unless adaptive throughput ≥ this multiple of the best static config (0: report only)")
		traceCmp     = flag.Bool("trace-ab", false, "with -compare: conflict-tracing overhead A/B — the same batched workload with lifecycle tracing off vs on, emitting tracing_overhead_ratio")
		maxTraceOvh  = flag.Float64("max-trace-overhead", 0, "trace A/B: fail if untraced/traced throughput exceeds this ratio (0: report only)")
		replicaCmp   = flag.Bool("replica-ab", false, "with -compare: replica read-pool A/B — the same pure-read workload against the durable primary alone vs primary + 2 WAL-shipping replicas with ReadPreferReplica, emitting replica_read_speedup_ratio")
		minReplica   = flag.Float64("min-replica-speedup", 0, "replica A/B: fail unless the read pool delivers ≥ this multiple of the primary-only throughput (0: report only)")
		rangescanCmp = flag.Bool("rangescan-ab", false, "with -compare: parallel-subrange scan A/B — scanners vs score writers on one sorted map, registry fanout 1 vs the default, emitting rangescan_speedup_ratio")
		minRangescan = flag.Float64("min-rangescan-speedup", 0, "rangescan A/B: fail unless parallel-subrange scans deliver ≥ this multiple of the sequential-scan throughput (0: report only)")
		killAfter    = flag.Duration("kill-after", 0, "crash-recovery drill: hard-kill an embedded durable server after this long under load, restart, verify invariants")
		dataDir      = flag.String("data-dir", "", "crash mode: data directory to crash and recover on (empty: a temp dir)")
		recoveryChk  = flag.Bool("recovery-check", false, "verify a restarted pnstmd at -addr holds the recovered-store invariants (conservation, no oversell)")
	)
	flag.Parse()

	cfg := genCfg{
		workload:    *workload,
		concurrency: *concurrency,
		conns:       *conns,
		duration:    *duration,
		rate:        *rate,
		keys:        *keys,
		readFrac:    *readFrac,
		skus:        *skus,
		stockPer:    *stockPer,
		queues:      *queues,
		seed:        *seed,
	}
	if err := cfg.fillDefaults(); err != nil {
		fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
		os.Exit(2)
	}

	if *persist && !*compare {
		fmt.Fprintln(os.Stderr, "pnstm-loadgen: -persist requires -compare (the persistence A/B runs embedded servers)")
		os.Exit(2)
	}

	if *recoveryChk {
		if err := runRecoveryCheck(*addr, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *killAfter > 0 {
		if err := runCrash(cfg, *workers, *compareBatch, *shards, *dataDir, *killAfter, *jsonDir, *name); err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *adaptiveCmp && !*compare {
		fmt.Fprintln(os.Stderr, "pnstm-loadgen: -adaptive requires -compare (the controller A/B runs embedded servers)")
		os.Exit(2)
	}
	if *traceCmp && !*compare {
		fmt.Fprintln(os.Stderr, "pnstm-loadgen: -trace-ab requires -compare (the tracing A/B runs embedded servers)")
		os.Exit(2)
	}
	if *replicaCmp && !*compare {
		fmt.Fprintln(os.Stderr, "pnstm-loadgen: -replica-ab requires -compare (the replica A/B runs embedded servers)")
		os.Exit(2)
	}
	if *rangescanCmp && !*compare {
		fmt.Fprintln(os.Stderr, "pnstm-loadgen: -rangescan-ab requires -compare (the scan A/B runs embedded servers)")
		os.Exit(2)
	}
	if *compare && *rangescanCmp {
		if err := runRangeScanCompare(cfg, *workers, *compareBatch, *syncDelay, *minRangescan, *jsonDir, *name); err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *compare && *replicaCmp {
		if err := runReplicaCompare(cfg, *workers, *compareBatch, *syncDelay, *minReplica, *jsonDir, *name); err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *compare && *traceCmp {
		if err := runTraceCompare(cfg, *workers, *compareBatch, *maxTraceOvh, *jsonDir, *name); err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *compare && *adaptiveCmp {
		if err := runAdaptiveCompare(cfg, *workers, *compareBatch, *minAdaptive, *jsonDir, *name); err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *compare && *shards > 1 {
		if err := runShardCompare(cfg, *workers, *compareBatch, *shards, *syncDelay, *minSpeedup, *jsonDir, *name); err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *compare && *persist {
		if err := runPersistCompare(cfg, *workers, *compareBatch, *jsonDir, *name); err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *compare {
		if err := runCompare(cfg, *workers, *compareBatch, *fsyncCmp, *syncDelay, *minCmpSpdup, *jsonDir, *name); err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cl, err := client.Connect(client.Options{Addrs: []string{*addr}, PoolSize: cfg.conns})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
		os.Exit(1)
	}
	defer cl.Close()

	res, err := runLoad(cl, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
		os.Exit(1)
	}
	printResult(cfg, res)

	if *jsonDir != "" {
		rep := buildReport(cfg, res, *name)
		path, err := rep.WriteFile(*jsonDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnstm-loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("report: %s\n", path)
	}
	if len(res.violations) > 0 || res.errs > 0 {
		os.Exit(1)
	}
}

// printResult renders the human-readable summary.
func printResult(cfg genCfg, res *genResult) {
	fmt.Printf("%s: %d ops in %v = %.0f ops/s (%d errors, %d rejected)\n",
		cfg.workload, res.ops, res.wall.Round(time.Millisecond), res.throughput(), res.errs, res.rejected)
	lm := bench.LatencyMetrics(res.latencies)
	if len(lm) > 0 {
		fmt.Printf("latency: p50 %.0fµs  p90 %.0fµs  p99 %.0fµs  max %.0fµs\n",
			lm["latency_p50_us"], lm["latency_p90_us"], lm["latency_p99_us"], lm["latency_max_us"])
	}
	if res.statsOK {
		fmt.Printf("server: %d batches, mean batch %.2f, abort ratio %.4f\n",
			res.batchDelta, res.runtimeStat.meanBatch, res.runtimeStat.abortRatio)
	}
	if len(res.perShard) > 1 {
		for _, sh := range res.perShard {
			fmt.Printf("  shard %d: batches=%d requests=%d committed=%d abort ratio %.4f\n",
				sh.shard, sh.batches, sh.requests, sh.committed, sh.abortRatio)
		}
	}
	for _, v := range res.violations {
		fmt.Fprintf(os.Stderr, "INVARIANT VIOLATED: %s\n", v)
	}
}

// buildReport renders a run as the shared Report shape.
func buildReport(cfg genCfg, res *genResult, name string) *bench.Report {
	if name == "" {
		name = "loadgen-" + cfg.workload
	}
	metrics := map[string]float64{
		"throughput_per_sec": res.throughput(),
		"ops":                float64(res.ops),
		"errors":             float64(res.errs),
		"rejected":           float64(res.rejected),
		"wall_us":            float64(res.wall) / float64(time.Microsecond),
	}
	for k, v := range bench.LatencyMetrics(res.latencies) {
		metrics[k] = v
	}
	rep := &bench.Report{
		Name: name,
		Kind: "loadgen",
		Config: map[string]any{
			"workload":    cfg.workload,
			"concurrency": cfg.concurrency,
			"conns":       cfg.conns,
			"duration":    cfg.duration.String(),
			"rate":        cfg.rate,
			"keys":        cfg.keys,
			"readfrac":    cfg.readFrac,
			"skus":        cfg.skus,
			"stock":       cfg.stockPer,
			"queues":      cfg.queues,
			"seed":        cfg.seed,
		},
		Metrics: metrics,
	}
	if res.statsOK {
		metrics["batches"] = float64(res.batchDelta)
		metrics["mean_batch"] = res.runtimeStat.meanBatch
		metrics["abort_ratio"] = res.runtimeStat.abortRatio
		metrics["tx_committed"] = float64(res.runtimeStat.committed)
		metrics["tx_aborted"] = float64(res.runtimeStat.aborted)
		rt := res.runtimeUsed.Runtime
		rep.Stats = &rt
		// Server-side latency summaries (OpStats histogram quantiles, by
		// op class) — measured inside the server, so they exclude client
		// scheduling and the network round trip.
		for class, ls := range res.runtimeUsed.Latency {
			metrics["server_"+class+"_p50_us"] = ls.P50us
			metrics["server_"+class+"_p95_us"] = ls.P95us
			metrics["server_"+class+"_p99_us"] = ls.P99us
		}
		rep.Config["server_max_batch"] = res.runtimeUsed.MaxBatch
		rep.Config["server_workers"] = res.runtimeUsed.Workers
		rep.Config["server_serial"] = res.runtimeUsed.Serial
		rep.Config["server_shards"] = res.runtimeUsed.Shards
		if len(res.perShard) > 1 {
			for _, sh := range res.perShard {
				metrics[fmt.Sprintf("shard%d_batches", sh.shard)] = float64(sh.batches)
				metrics[fmt.Sprintf("shard%d_requests", sh.shard)] = float64(sh.requests)
				metrics[fmt.Sprintf("shard%d_abort_ratio", sh.shard)] = sh.abortRatio
			}
		}
	}
	if len(res.violations) == 0 {
		rep.Notes = append(rep.Notes, "invariants ok")
	} else {
		rep.Notes = append(rep.Notes, res.violations...)
	}
	return rep
}

// runCompare boots two in-process servers on the loopback — batch-size-1
// serial execution vs group commit — runs the same workload against
// both, and reports the comparison (the paper's serial-vs-parallel
// nesting evaluation, measured end to end through the network stack).
//
// With fsync=true both servers run durable with one fsync per commit
// (and syncDelay as an artificial stable-storage latency floor, like
// the shard A/B): the serial baseline then pays a FULL fsync per
// request while group commit pays one per BATCH — the amortization
// that makes group commit the right architecture for mutating
// multi-op transactions. Without fsync the comparison measures raw
// in-memory execution, where cheap point ops favor the serial
// baseline's zero-machinery path (the paper's own short-transaction
// observation) and read-pipelining workloads favor batching.
func runCompare(cfg genCfg, workers, maxBatch int, fsync bool, syncDelay time.Duration, minSpeedup float64, jsonDir, name string) error {
	type mode struct {
		label string
		scfg  server.Config
	}
	// Both servers share the runtime mode and structure sizing; the only
	// difference is the group-commit batching. The batched server uses
	// the shared-read conflict model (§9) — without it, read-mostly batch
	// siblings false-conflict on shared buckets; the serial server has no
	// concurrency to conflict, so the flag is irrelevant there.
	reg := stmlib.RegistryConfig{MapBuckets: 4 * cfg.keys}
	// Read-dominant traffic additionally pipelines group commits
	// (MaxInflight > 1): safe there because shared reads never conflict
	// across batches. Write-heavy workloads keep the classic
	// one-batch-at-a-time group commit — overlapping writer batches
	// would livelock on the hot keys.
	inflight := 1
	if cfg.workload == "readmap" {
		inflight = 4
	}
	modes := []mode{
		{"serial", server.Config{Workers: workers, MaxBatch: 1, Serial: true, Registry: reg}},
		{"batched", server.Config{Workers: workers, MaxBatch: maxBatch, SharedReads: true, MaxInflight: inflight, Registry: reg}},
	}
	results := make(map[string]*genResult, len(modes))
	fsyncs := make(map[string]float64, len(modes))
	for _, m := range modes {
		m.scfg.Addr = "127.0.0.1:0"
		if fsync {
			dir, err := os.MkdirTemp("", "pnstm-compare-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			m.scfg.DataDir = dir
			m.scfg.Fsync = true
			m.scfg.WALSyncDelay = syncDelay
		}
		s, err := server.New(m.scfg)
		if err != nil {
			return err
		}
		if err := s.Listen(); err != nil {
			return err
		}
		go s.Serve() //nolint:errcheck // torn down via Close below
		cl, err := client.Connect(client.Options{Addrs: []string{s.Addr().String()}, PoolSize: cfg.conns})
		if err != nil {
			s.Close()
			return err
		}
		fmt.Printf("== %s (workers=%d batch=%d serial=%v fsync=%v syncdelay=%v)\n",
			m.label, workers, m.scfg.MaxBatch, m.scfg.Serial, fsync, syncDelay)
		res, err := runLoad(cl, cfg)
		if fsync {
			fsyncs[m.label] = float64(s.WALStats().Syncs)
		}
		cl.Close()
		s.Close()
		if err != nil {
			return err
		}
		printResult(cfg, res)
		results[m.label] = res
	}

	ser, bat := results["serial"], results["batched"]
	speedup := 0.0
	if ser.throughput() > 0 {
		speedup = bat.throughput() / ser.throughput()
	}
	fmt.Printf("== group commit vs batch-size-1 serial: %.2fx throughput\n", speedup)
	if fsync {
		fmt.Printf("== fsyncs: serial %.0f, batched %.0f (group commit amortizes the commit cost)\n",
			fsyncs["serial"], fsyncs["batched"])
	}

	if jsonDir != "" {
		if name == "" {
			name = "loadgen-" + cfg.workload + "-compare"
		}
		metrics := map[string]float64{
			"serial_throughput_per_sec":  ser.throughput(),
			"batched_throughput_per_sec": bat.throughput(),
			"speedup_ratio":              speedup,
			"serial_ops":                 float64(ser.ops),
			"batched_ops":                float64(bat.ops),
			"batched_mean_batch":         bat.runtimeStat.meanBatch,
			"batched_abort_ratio":        bat.runtimeStat.abortRatio,
		}
		if fsync {
			metrics["serial_wal_fsyncs"] = fsyncs["serial"]
			metrics["batched_wal_fsyncs"] = fsyncs["batched"]
		}
		for k, v := range bench.LatencyMetrics(bat.latencies) {
			metrics["batched_"+k] = v
		}
		for k, v := range bench.LatencyMetrics(ser.latencies) {
			metrics["serial_"+k] = v
		}
		rep := &bench.Report{
			Name: name,
			Kind: "loadgen",
			Config: map[string]any{
				"workload":    cfg.workload,
				"concurrency": cfg.concurrency,
				"conns":       cfg.conns,
				"duration":    cfg.duration.String(),
				"workers":     workers,
				"max_batch":   maxBatch,
				"fsync":       fsync,
				"syncdelay":   syncDelay.String(),
				"seed":        cfg.seed,
			},
			Metrics: metrics,
		}
		for _, res := range []*genResult{ser, bat} {
			if len(res.violations) > 0 {
				rep.Notes = append(rep.Notes, res.violations...)
			}
		}
		if len(rep.Notes) == 0 {
			rep.Notes = []string{"invariants ok in both modes"}
		}
		path, err := rep.WriteFile(jsonDir)
		if err != nil {
			return err
		}
		fmt.Printf("report: %s\n", path)
	}
	if len(ser.violations) > 0 || len(bat.violations) > 0 || ser.errs > 0 || bat.errs > 0 {
		return fmt.Errorf("invariant violations or request errors (see above)")
	}
	if minSpeedup > 0 && speedup < minSpeedup {
		return fmt.Errorf("group commit regressed: batched delivers %.2fx the serial baseline, want ≥ %.2fx", speedup, minSpeedup)
	}
	return nil
}

// runPersistCompare measures what durability costs: the same batched
// workload against an in-memory server, a WAL server without fsync,
// and a WAL server with one fsync per group commit. Because the fsync
// is amortized over the whole batch — like the paper amortizes block
// dispatch — the durable mode's throughput should stay within a small
// factor of in-memory, which is the figure this report captures.
func runPersistCompare(cfg genCfg, workers, maxBatch int, jsonDir, name string) error {
	type mode struct {
		label   string
		durable bool
		fsync   bool
	}
	modes := []mode{
		{"memory", false, false},
		{"wal-nofsync", true, false},
		{"wal-fsync", true, true},
	}
	reg := stmlib.RegistryConfig{MapBuckets: 4 * cfg.keys}
	results := make(map[string]*genResult, len(modes))
	walStats := make(map[string]float64, len(modes))
	for _, m := range modes {
		scfg := server.Config{
			Addr:        "127.0.0.1:0",
			Workers:     workers,
			MaxBatch:    maxBatch,
			SharedReads: true,
			Registry:    reg,
		}
		if m.durable {
			dir, err := os.MkdirTemp("", "pnstm-persist-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			scfg.DataDir = dir
			scfg.Fsync = m.fsync
		}
		s, err := server.New(scfg)
		if err != nil {
			return err
		}
		if err := s.Listen(); err != nil {
			return err
		}
		go s.Serve() //nolint:errcheck // torn down via Close below
		cl, err := client.Connect(client.Options{Addrs: []string{s.Addr().String()}, PoolSize: cfg.conns})
		if err != nil {
			s.Close()
			return err
		}
		fmt.Printf("== %s (workers=%d batch=%d fsync=%v)\n", m.label, workers, maxBatch, m.fsync)
		res, err := runLoad(cl, cfg)
		if m.durable {
			ws := s.WALStats()
			walStats[m.label+"_wal_records"] = float64(ws.Appends)
			walStats[m.label+"_wal_fsyncs"] = float64(ws.Syncs)
		}
		cl.Close()
		s.Close()
		if err != nil {
			return err
		}
		printResult(cfg, res)
		results[m.label] = res
	}

	mem, nof, fs := results["memory"], results["wal-nofsync"], results["wal-fsync"]
	metrics := bench.PersistenceMetrics(mem.throughput(), nof.throughput(), fs.throughput())
	fmt.Printf("== persistence overhead: WAL retains %.0f%%, WAL+fsync retains %.0f%% of in-memory throughput\n",
		100*metrics["wal_retained_ratio"], 100*metrics["durable_retained_ratio"])

	if jsonDir != "" {
		if name == "" {
			name = "loadgen-" + cfg.workload + "-persist"
		}
		for k, v := range walStats {
			metrics[k] = v
		}
		for k, v := range bench.LatencyMetrics(fs.latencies) {
			metrics["fsync_"+k] = v
		}
		for k, v := range bench.LatencyMetrics(mem.latencies) {
			metrics["memory_"+k] = v
		}
		rep := &bench.Report{
			Name: name,
			Kind: "loadgen",
			Config: map[string]any{
				"workload":    cfg.workload,
				"concurrency": cfg.concurrency,
				"conns":       cfg.conns,
				"duration":    cfg.duration.String(),
				"workers":     workers,
				"max_batch":   maxBatch,
				"seed":        cfg.seed,
			},
			Metrics: metrics,
		}
		for _, m := range modes {
			if res := results[m.label]; len(res.violations) > 0 {
				rep.Notes = append(rep.Notes, res.violations...)
			}
		}
		if len(rep.Notes) == 0 {
			rep.Notes = []string{"invariants ok in all three modes"}
		}
		path, err := rep.WriteFile(jsonDir)
		if err != nil {
			return err
		}
		fmt.Printf("report: %s\n", path)
	}
	for _, m := range modes {
		res := results[m.label]
		if len(res.violations) > 0 || res.errs > 0 {
			return fmt.Errorf("invariant violations or request errors (see above)")
		}
	}
	return nil
}
