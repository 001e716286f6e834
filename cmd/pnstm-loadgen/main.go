// Command pnstm-loadgen drives configurable workload mixes against a
// pnstmd server and emits a machine-readable BENCH_*.json summary
// (throughput, latency percentiles, abort rate from the server's
// runtime stats) through the shared internal/bench encoder. Every run
// verifies its workload's closed-form invariants against the final
// server state and exits nonzero on a violation. Each invariant is
// stated once, in laws.go: live verify, the crash drill and
// -recovery-check call the same laws, and the drill's recovered store
// gets exactly the check -recovery-check runs.
//
// It runs in one of four shapes:
//
//	pnstm-loadgen -addr localhost:7455 -workload mixed -duration 5s -json .
//	        # drive a running pnstmd (-rate 20000: open loop)
//	pnstm-loadgen -ab group -workload txmix -fsync -syncdelay 2ms -gate 1.5 -json .
//	        # embedded A/B: the same workload against two or three
//	        # in-process servers, reported as a ratio and gated on it
//	pnstm-loadgen -kill-after 3s -shards 4 -json .
//	        # crash-recovery drill: hard-kill an embedded durable server
//	        # mid-load, restart it on the same data dir, run the
//	        # -recovery-check laws plus its acked-vs-attempted bounds
//	pnstm-loadgen -recovery-check -addr localhost:7455
//	        # after an out-of-process kill -9 + restart: check every law
//	        # whose provisioning record bench:meta holds
//
// The workloads (driver.go's workloads table) and the A/B modes (ab.go's
// abModes table) are listed, with every flag, by pnstm-loadgen -h.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pnstm/client"
	"pnstm/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// options is the parsed command line.
type options struct {
	abOpts // the workload config and what the embedded servers run with

	addr          string
	ab            string
	killAfter     time.Duration
	dataDir       string
	recoveryCheck bool
}

// newFlags declares the command's flags over o. The list is pinned by
// TestFlagSurface: a new flag has to argue for itself there.
func newFlags(o *options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("pnstm-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &o.cfg
	fs.StringVar(&o.addr, "addr", "localhost:7455", "pnstmd address")
	fs.StringVar(&c.workload, "workload", "mixed", workloadNames())
	fs.IntVar(&c.concurrency, "concurrency", 16, "issuing goroutines")
	fs.IntVar(&c.conns, "conns", 4, "pooled client connections")
	fs.DurationVar(&c.duration, "duration", 5*time.Second, "measurement window")
	fs.Float64Var(&c.rate, "rate", 0, "total target ops/sec (0: closed loop)")
	fs.IntVar(&c.keys, "keys", 1024, "readmap key-space size")
	fs.Float64Var(&c.readFrac, "readfrac", 0.9, "readmap read fraction")
	fs.IntVar(&c.skus, "skus", 16, "checkout SKU count")
	fs.Int64Var(&c.stockPer, "stock", 100000, "checkout initial units per SKU")
	fs.IntVar(&c.queues, "queues", 4, "queue workload: distinct queues")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.StringVar(&o.jsonDir, "json", "", "directory to write the BENCH_*.json report into (empty: stdout summary only)")
	fs.StringVar(&o.name, "name", "", "report name override")

	fs.StringVar(&o.ab, "ab", "", "embedded A/B instead of -addr: "+abNames()+" (see -h)")
	fs.Float64Var(&o.gate, "gate", 0, "with -ab: fail unless the mode's headline ratio is on the right side of this bound — a floor, or a ceiling for a cost ratio (0: report only)")
	fs.IntVar(&o.maxBatch, "comparebatch", 64, "A/B and crash modes: MaxBatch of the batching servers")
	fs.IntVar(&o.workers, "workers", 8, "A/B and crash modes: worker slots of the embedded servers")
	fs.BoolVar(&o.fsync, "fsync", false, "with -ab group: run BOTH servers durable with one fsync per commit — the serial baseline pays it per REQUEST, group commit per BATCH (combine with -syncdelay for a deterministic floor)")
	fs.IntVar(&o.shards, "shards", 1, "with -ab shards: the N of the 1-shard vs N-shard comparison; with -kill-after: shard count of the crashed server")
	fs.DurationVar(&o.syncDelay, "syncdelay", 0, "A/B modes: artificial per-fsync latency floor (simulates slower stable storage so the fsync/pipeline count dominates, not the box's disk)")
	fs.DurationVar(&o.killAfter, "kill-after", 0, "crash-recovery drill: hard-kill an embedded durable server after this long under load, restart, verify invariants")
	fs.StringVar(&o.dataDir, "data-dir", "", "crash mode: data directory to crash and recover on (empty: a temp dir)")
	fs.BoolVar(&o.recoveryCheck, "recovery-check", false, "verify a restarted pnstmd at -addr holds the recovered-store invariants (conservation, no oversell)")

	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: pnstm-loadgen [flags]   (drive -addr; or -ab MODE, -kill-after D, -recovery-check)")
		fmt.Fprintln(stderr, "\nWorkloads (-workload):")
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-11s %s\n", w.name, w.doc)
		}
		fmt.Fprintln(stderr, "\nEmbedded A/B modes (-ab; -gate judges the ratio named last):")
		for _, m := range abModes {
			fmt.Fprintf(stderr, "  %-11s %s → %s\n", m.name, m.what, m.ratios[0].key)
		}
		fmt.Fprintln(stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	return fs
}

// run is main without the exit: 2 for a command line it cannot act on, 1
// for a run that failed (load could not run, an invariant broke, a gate
// missed), 0 otherwise.
func run(args []string, stderr io.Writer) int {
	var o options
	if err := newFlags(&o, stderr).Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "pnstm-loadgen: %v\n", err)
		return 2
	}
	if err := o.cfg.fillDefaults(); err != nil {
		return usage(err)
	}
	shapes := 0
	for _, asked := range []bool{o.recoveryCheck, o.killAfter > 0, o.ab != ""} {
		if asked {
			shapes++
		}
	}
	if shapes > 1 {
		return usage(fmt.Errorf("-ab, -kill-after and -recovery-check are three different runs: give one"))
	}
	var spec *abSpec
	var err error
	if o.ab != "" {
		if spec, err = findAB(o.ab); err != nil {
			return usage(err)
		}
		if spec.prep != nil {
			if err := spec.prep(&o.abOpts); err != nil {
				return usage(err)
			}
		}
	} else if o.gate != 0 {
		return usage(fmt.Errorf("-gate judges an A/B's headline ratio: give -ab (%s)", abNames()))
	}

	switch {
	case o.recoveryCheck:
		var cl *client.Client
		if cl, err = client.Connect(client.Options{Addrs: []string{o.addr}, PoolSize: 1}); err == nil {
			err = runRecoveryCheck(cl)
			cl.Close()
		}
	case o.killAfter > 0:
		err = runCrash(&o)
	case spec != nil:
		o.boot = bootLeg
		err = runAB(spec, o.abOpts)
	default:
		err = runAgainst(&o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "pnstm-loadgen: %v\n", err)
		return 1
	}
	return 0
}

// runAgainst drives the workload against the pnstmd at -addr.
func runAgainst(o *options) error {
	cl, err := client.Connect(client.Options{Addrs: []string{o.addr}, PoolSize: o.cfg.conns})
	if err != nil {
		return err
	}
	defer cl.Close()
	res, err := runLoad(cl, o.cfg)
	if err != nil {
		return err
	}
	printResult(o.cfg, res)
	if o.jsonDir != "" {
		path, err := buildReport(o.cfg, res, o.name).WriteFile(o.jsonDir)
		if err != nil {
			return err
		}
		fmt.Printf("report: %s\n", path)
	}
	if len(res.violations) > 0 || res.errs > 0 {
		return fmt.Errorf("invariant violations or request errors (see above)")
	}
	return nil
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

// newReport is the one Report literal every mode of this command fills:
// the workload config is recorded here, the mode adds its own knobs and
// metrics.
func newReport(name string, cfg genCfg) *bench.Report {
	return &bench.Report{
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
		Metrics: make(map[string]float64),
	}
}

// addResultMetrics records one run's standard metrics under prefix ("" for
// a plain run, "<leg>_" for an A/B leg).
func addResultMetrics(metrics map[string]float64, prefix string, res *genResult) {
	metrics[prefix+"throughput_per_sec"] = res.throughput()
	metrics[prefix+"ops"] = float64(res.ops)
	metrics[prefix+"errors"] = float64(res.errs)
	metrics[prefix+"rejected"] = float64(res.rejected)
	metrics[prefix+"wall_us"] = float64(res.wall) / float64(time.Microsecond)
	for k, v := range bench.LatencyMetrics(res.latencies) {
		metrics[prefix+k] = v
	}
	for k, v := range res.extra {
		metrics[prefix+k] = v
	}
	if !res.statsOK {
		return
	}
	metrics[prefix+"batches"] = float64(res.batchDelta)
	metrics[prefix+"mean_batch"] = res.runtimeStat.meanBatch
	metrics[prefix+"abort_ratio"] = res.runtimeStat.abortRatio
	metrics[prefix+"tx_committed"] = float64(res.runtimeStat.committed)
	metrics[prefix+"tx_aborted"] = float64(res.runtimeStat.aborted)
	// Server-side latency summaries (OpStats histogram quantiles, by op
	// class) — measured inside the server, so they exclude client
	// scheduling and the network round trip.
	for class, ls := range res.runtimeUsed.Latency {
		metrics[prefix+"server_"+class+"_p50_us"] = ls.P50us
		metrics[prefix+"server_"+class+"_p95_us"] = ls.P95us
		metrics[prefix+"server_"+class+"_p99_us"] = ls.P99us
	}
	if len(res.perShard) > 1 {
		for _, sh := range res.perShard {
			metrics[fmt.Sprintf("%sshard%d_batches", prefix, sh.shard)] = float64(sh.batches)
			metrics[fmt.Sprintf("%sshard%d_requests", prefix, sh.shard)] = float64(sh.requests)
			metrics[fmt.Sprintf("%sshard%d_abort_ratio", prefix, sh.shard)] = sh.abortRatio
		}
	}
}

// buildReport renders a plain run.
func buildReport(cfg genCfg, res *genResult, name string) *bench.Report {
	if name == "" {
		name = "loadgen-" + cfg.workload
	}
	rep := newReport(name, cfg)
	addResultMetrics(rep.Metrics, "", res)
	if res.statsOK {
		rt := res.runtimeUsed.Runtime
		rep.Stats = &rt
		rep.Config["server_max_batch"] = res.runtimeUsed.MaxBatch
		rep.Config["server_workers"] = res.runtimeUsed.Workers
		rep.Config["server_serial"] = res.runtimeUsed.Serial
		rep.Config["server_shards"] = res.runtimeUsed.Shards
	}
	if len(res.violations) == 0 {
		rep.Notes = append(rep.Notes, "invariants ok")
	} else {
		rep.Notes = append(rep.Notes, res.violations...)
	}
	return rep
}
