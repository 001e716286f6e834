package main

import (
	"fmt"
	"maps"
	"os"
	"strings"
	"time"

	"pnstm/client"
	"pnstm/server"
	"pnstm/stmlib"
)

// The paper's whole evaluation (§7) is one experiment shape — the same
// program under two runtime configurations, reported as a ratio — and so
// is every embedded comparison this command runs. An A/B is therefore a
// VALUE (abSpec: legs, rounds, the ratios to report) in the abModes
// table, and runAB is the one harness that boots each leg's server,
// drives the load inside a wall-clock budget, keeps each leg's best
// round, writes the report and judges the gate.

// abSpec is one row of the -ab table.
type abSpec struct {
	name   string // the -ab value
	what   string // one line for -h
	report string // report name; %s is the workload

	// rounds alternates the legs that many times and keeps each leg's
	// best (0: once). A tight gate needs it: the run-to-run noise of one
	// pair of short legs on a shared box is far above 5%, while a real
	// cost shows up in every round.
	rounds int

	// prep pins the options the comparison depends on (nil: none), or
	// refuses a combination it cannot run. The command line is judged
	// with it — run calls it before runAB, so a refusal exits 2.
	prep func(o *abOpts) error

	legs []leg

	// ratios are the reported comparisons; ratios[0] is the headline
	// -gate judges. lower marks the headline a cost: better lower, the
	// gate a ceiling instead of a floor.
	ratios []ratio
	lower  bool
}

// ratio is num's throughput over the best den leg's.
type ratio struct {
	key string
	num string
	den []string
}

// leg is one configuration of an A/B: the label doubles as the prefix
// of the leg's metrics in the report.
type leg struct {
	label string

	// durable runs the leg on a temp data dir (a leg whose config fsyncs
	// gets one regardless).
	durable bool

	// tune edits the harness's base config (abOpts.base) into this
	// leg's (nil: the base as is).
	tune func(c *server.Config, o *abOpts)

	// load replaces runLoad against the leg's client (nil: runLoad).
	load func(env *legEnv, o *abOpts) (*genResult, error)

	// extra records what only this leg measures into res.extra/res.notes
	// while its server is still up (nil: nothing).
	extra func(env *legEnv, res *genResult)
}

// abOpts is what the command line hands an A/B.
type abOpts struct {
	cfg       genCfg
	workers   int
	maxBatch  int
	shards    int
	fsync     bool
	syncDelay time.Duration
	gate      float64 // 0: report only
	jsonDir   string
	name      string // report name override

	// boot starts one leg's server and client: bootLeg, except in the
	// harness tests, whose legs need no socket.
	boot func(scfg server.Config, tempDir bool, conns int) (*legEnv, error)

	// budget bounds one leg by wall clock (0: twice the measurement
	// window plus 20s of setup and verification).
	budget time.Duration
}

// base is the configuration every leg starts from: the shipped serving
// shape — group commit under the shared-read conflict model (§9; without
// it read-mostly batch siblings false-conflict on shared buckets) — with
// the maps sized to the key-space.
func (o *abOpts) base() server.Config {
	return server.Config{
		Addr:        "127.0.0.1:0",
		Workers:     o.workers,
		MaxBatch:    o.maxBatch,
		SharedReads: true,
		Registry:    stmlib.RegistryConfig{MapBuckets: 4 * o.cfg.keys},
	}
}

// serialBaseline turns c into the paper's baseline: serial nesting, batch
// size 1 — every request its own root transaction. (It has no
// concurrency to conflict, so the read model is irrelevant there.)
func serialBaseline(c *server.Config) {
	c.MaxBatch, c.Serial, c.SharedReads = 1, true, false
}

// fsynced makes c fsync once per commit over the -syncdelay floor, an
// artificial per-fsync latency (wal.Options.SyncDelay) that simulates
// slower stable storage deterministically — so the fsync and pipeline
// COUNT is the measured variable, not the test box's disk.
func (o *abOpts) fsynced(c *server.Config) {
	c.Fsync, c.WALSyncDelay = true, o.syncDelay
}

// config is the server.Config leg l boots under o.
func (l *leg) config(o *abOpts) server.Config {
	c := o.base()
	if l.tune != nil {
		l.tune(&c, o)
	}
	return c
}

var abModes = []abSpec{
	{
		// Batch-size-1 serial execution vs group commit: the paper's
		// serial-vs-parallel nesting evaluation, measured end to end
		// through the network stack. Without -fsync the comparison is raw
		// in-memory execution, where cheap point ops favor the serial
		// baseline's zero-machinery path (the paper's own
		// short-transaction observation) and read-pipelining workloads
		// favor batching. With -fsync both legs run durable: the serial
		// baseline then pays a FULL fsync per request while group commit
		// pays one per BATCH — the amortization that makes group commit
		// the right architecture for mutating multi-op transactions.
		name:   "group",
		what:   "group commit vs batch-size-1 serial execution (-fsync: both durable, one fsync per REQUEST vs per BATCH)",
		report: "loadgen-%s-compare",
		legs: []leg{
			{label: "serial", tune: func(c *server.Config, o *abOpts) {
				serialBaseline(c)
				if o.fsync {
					o.fsynced(c)
				}
			}},
			{label: "batched", tune: func(c *server.Config, o *abOpts) {
				// Read-dominant traffic additionally pipelines group
				// commits: safe there because shared reads never conflict
				// across batches. Write-heavy workloads keep the classic
				// one-batch-at-a-time group commit — overlapping writer
				// batches would livelock on the hot keys.
				c.MaxInflight = 1
				if o.cfg.workload == "readmap" {
					c.MaxInflight = 4
				}
				if o.fsync {
					o.fsynced(c)
				}
			}},
		},
		ratios: []ratio{{"speedup_ratio", "batched", []string{"serial"}}},
	},
	{
		// What durability costs: the same batched workload in memory, on
		// a WAL without fsync, and on a WAL with one fsync per group
		// commit. Because the fsync is amortized over the whole batch —
		// like the paper amortizes block dispatch — the durable leg should
		// stay within a small factor of in-memory.
		name:   "persist",
		what:   "persistence overhead: in-memory vs WAL vs WAL + fsync per group commit",
		report: "loadgen-%s-persist",
		legs: []leg{
			{label: "memory"},
			{label: "nofsync", durable: true},
			{label: "fsync", tune: func(c *server.Config, o *abOpts) { c.Fsync = true }},
		},
		// "Fraction of the faster mode's throughput retained": 1.0 means
		// free, 0.5 means half the throughput survives.
		ratios: []ratio{
			{"durable_retained_ratio", "fsync", []string{"memory"}},
			{"wal_retained_ratio", "nofsync", []string{"memory"}},
			{"fsync_retained_ratio", "fsync", []string{"nofsync"}},
		},
	},
	{
		// The controller A/B, meant for -workload phases, whose op mix
		// shifts read-heavy → write-hot → mixed mid-run:
		//
		//	static1   MaxInflight pinned at 1 (the conservative default:
		//	          safe everywhere, leaves read-phase pipelining on the
		//	          table)
		//	static4   MaxInflight pinned at 4 (fast while reads dominate,
		//	          digs into the write-livelock cliff when the phase
		//	          turns — it may blow the leg budget and score 0)
		//	adaptive  starts at 1 with the AIMD controller on, walking
		//	          each shard's MaxInflight from its observed abort rate
		//
		// No single static setting is right for every phase, so a working
		// controller holds adaptive / best(static) near or above 1.0 —
		// the committed BENCH_baseline.json floor CI gates it against.
		name:   "adaptive",
		what:   "adaptive AIMD MaxInflight vs the best pinned static setting (run it on -workload phases)",
		report: "loadgen-%s-adaptive",
		legs: []leg{
			{label: "static1", tune: func(c *server.Config, o *abOpts) { c.MaxInflight = 1 }},
			{label: "static4", tune: func(c *server.Config, o *abOpts) { c.MaxInflight = 4 }},
			{label: "adaptive",
				tune: func(c *server.Config, o *abOpts) { c.MaxInflight, c.Adaptive = 1, true },
				extra: func(env *legEnv, res *genResult) {
					for _, ps := range env.srv.ConfigSnapshot().PerShard {
						res.notes = append(res.notes, fmt.Sprintf("shard %d settled at inflight=%d", ps.Shard, ps.MaxInflight))
					}
				}},
		},
		ratios: []ratio{{"adaptive_speedup_ratio", "adaptive", []string{"static1", "static4"}}},
	},
	{
		// What the conflict X-ray costs: the same batched workload with
		// lifecycle tracing off and on (the default). untraced / traced is
		// 1.0 when tracing is free, 1.05 when it eats 5% — which CI gates
		// with a ceiling so the "near-zero-cost" claim stays enforced, not
		// aspirational.
		name:   "trace",
		what:   "conflict-tracing overhead: the same batched workload with lifecycle tracing off vs on",
		report: "loadgen-%s-traceab",
		rounds: 3,
		legs: []leg{
			{label: "untraced", tune: func(c *server.Config, o *abOpts) { c.DisableTracing = true }, extra: traceEvents},
			{label: "traced", extra: traceEvents},
		},
		ratios: []ratio{{"tracing_overhead_ratio", "untraced", []string{"traced"}}},
		lower:  true,
	},
	{
		// Shard scaling: a 1-shard and an N-shard durable server, both
		// fsyncing once per group commit. With one shard every group
		// commit rides ONE pipeline — batch, log record, fsync, ack, next
		// batch — so commit latency bounds throughput however many cores
		// the box has. With N shards each partition owns a private
		// runtime, batcher and WAL, so N group commits (fsyncs included)
		// run fully in parallel and throughput scales with the pipeline
		// count until the disk or the cores saturate: with -syncdelay the
		// expected ratio is ≈ min(N, concurrency/batch-formation).
		name:   "shards",
		what:   "shard scaling: 1-shard vs -shards N durable server, parallel per-shard group commits, fsyncs included",
		report: "loadgen-%s-shards",
		prep: func(o *abOpts) error {
			if o.shards < 2 {
				return fmt.Errorf("-ab shards compares 1 shard against -shards N: give N ≥ 2")
			}
			return nil
		},
		legs: []leg{
			{label: "single", tune: func(c *server.Config, o *abOpts) { c.Shards = 1; o.fsynced(c) }},
			{label: "sharded", tune: func(c *server.Config, o *abOpts) { c.Shards = o.shards; o.fsynced(c) }},
		},
		ratios: []ratio{{"shard_speedup_ratio", "sharded", []string{"single"}}},
	},
	{
		// What WAL-shipping read replicas buy: the same pure-read
		// workload, while a background write pump holds the primary's
		// durable commit pipeline busy, against just the primary and
		// against a read pool of the primary plus two caught-up replicas
		// routed with ReadPreferReplica. The primary's WAL clamps it to one
		// commit pipeline per shard (D20), so on the primary every read
		// batch that coalesces with a write pays that write batch's fsync:
		// reads are throttled to the durable group-commit cadence.
		// Replicas are in-memory and pipeline batches freely, so the pool
		// serves reads at memory speed while the same writes flow
		// primary-side (replica.go).
		name:   "replica",
		what:   "replica read pool: pure reads on the durable primary alone vs primary + 2 WAL-shipping replicas (ReadPreferReplica)",
		report: "loadgen-replica-ab",
		prep: func(o *abOpts) error {
			// A READ benchmark: replicas refuse mutations, so the measured
			// workload is pinned to the pure-read end of readmap whatever
			// -workload asked for (writes are the pump's job).
			o.cfg.workload, o.cfg.readFrac = "readmap", 1.0
			if o.syncDelay <= 0 {
				// Without a stable-storage floor the box's fsync speed
				// decides the result; 2ms is the same deterministic
				// default the CI shard and durability A/Bs pin.
				o.syncDelay = 2 * time.Millisecond
			}
			return nil
		},
		legs: []leg{
			{label: "primary", tune: func(c *server.Config, o *abOpts) { o.fsynced(c) }, load: replicaLoad(false)},
			{label: "replica", tune: func(c *server.Config, o *abOpts) { o.fsynced(c) }, load: replicaLoad(true)},
		},
		ratios: []ratio{{"replica_read_speedup_ratio", "replica", []string{"primary"}}},
	},
	{
		// What the second-generation scan architecture buys over the
		// serial baseline, with the same legs as the durable group A/B:
		// scanners and score writers share one DURABLE leaderboard, and
		// the serial leg (serial nesting, batch size 1, registry fanout 1
		// — every scan one sequential leaf walk in its own root
		// transaction, one fsync per score write) races the shipped
		// configuration (parallel-nested subrange scans via the default
		// fanout, riding group commit — one fsync per batch). Scans
		// between fsyncs queue behind the serial leg's one-at-a-time
		// pipeline; in the parallel leg they ride alongside the writes
		// they'd otherwise wait for. The measured ops are the scans
		// (pipeline.go).
		name:   "rangescan",
		what:   "parallel-subrange scans vs sequential: scanners vs score writers on one durable sorted map, registry fanout 1 vs the default",
		report: "loadgen-rangescan-ab",
		legs: []leg{
			{label: "serial", load: scanLoad, tune: func(c *server.Config, o *abOpts) {
				serialBaseline(c)
				c.Registry.Fanout = 1
				o.fsynced(c)
			}},
			// Half the traffic mutates, so the parallel leg keeps the
			// classic one-batch-at-a-time group commit (pipelined batches
			// are for pure-read traffic; overlapping writer batches
			// livelock). Shared reads keep co-batched scans from
			// false-conflicting on shared leaves.
			{label: "parallel", load: scanLoad, tune: func(c *server.Config, o *abOpts) {
				c.Registry.Fanout = stmlib.DefaultFanout
				o.fsynced(c)
			}},
		},
		ratios: []ratio{{"rangescan_speedup_ratio", "parallel", []string{"serial"}}},
	},
}

func traceEvents(env *legEnv, res *genResult) {
	res.extra["trace_events"] = float64(env.srv.Stats().Runtime.TraceEvents)
}

// findAB returns the -ab table row for name.
func findAB(name string) (*abSpec, error) {
	for i := range abModes {
		if abModes[i].name == name {
			return &abModes[i], nil
		}
	}
	return nil, fmt.Errorf("unknown -ab mode %q (want %s)", name, abNames())
}

// abNames lists the table's mode names.
func abNames() string {
	names := make([]string, len(abModes))
	for i, m := range abModes {
		names[i] = m.name
	}
	return strings.Join(names, ", ")
}

// legEnv is one booted leg: its embedded server, a client to it, and the
// temp data dir to remove afterwards. The zero value (no server) is what
// the harness tests boot.
type legEnv struct {
	srv *server.Server
	cl  *client.Client
	tmp string
}

// bootLeg is the one place this command starts an embedded server: on a
// fresh temp data dir when tempDir is set, serving on the loopback, with
// a conns-wide client pool connected (0: no client).
func bootLeg(scfg server.Config, tempDir bool, conns int) (*legEnv, error) {
	env := &legEnv{}
	if tempDir {
		dir, err := os.MkdirTemp("", "pnstm-loadgen-")
		if err != nil {
			return nil, err
		}
		env.tmp, scfg.DataDir = dir, dir
	}
	s, err := server.New(scfg)
	if err != nil {
		env.close()
		return nil, err
	}
	env.srv = s
	if err := s.Listen(); err != nil {
		env.close()
		return nil, err
	}
	go s.Serve() //nolint:errcheck // torn down via close (or the crash drill's Kill)
	if conns > 0 {
		env.cl, err = client.Connect(client.Options{Addrs: []string{s.Addr().String()}, PoolSize: conns})
		if err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

func (e *legEnv) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.tmp != "" {
		os.RemoveAll(e.tmp)
	}
}

// runLeg boots l, drives its load inside the budget and returns the
// result. A pinned-static pipelining server CAN livelock outright on a
// write-hot phase (the PR 2 cliff — the very failure the controller
// exists to avoid), and a wedged leg never answers its in-flight ops: a
// leg that blows the budget is scored as zero throughput with a note,
// and its server abandoned un-Closed (Close would wait on the stuck
// batch; process exit reaps it).
func runLeg(l *leg, o *abOpts) (*genResult, error) {
	scfg := l.config(o)
	durable := l.durable || scfg.Fsync
	env, err := o.boot(scfg, durable, o.cfg.conns)
	if err != nil {
		return nil, err
	}
	fmt.Printf("== %s (shards=%d workers=%d batch=%d inflight=%d serial=%v adaptive=%v tracing=%v durable=%v fsync=%v syncdelay=%v)\n",
		l.label, scfg.Shards, scfg.Workers, scfg.MaxBatch, scfg.MaxInflight, scfg.Serial, scfg.Adaptive,
		!scfg.DisableTracing, durable, scfg.Fsync, scfg.WALSyncDelay)
	type legOut struct {
		res *genResult
		err error
	}
	done := make(chan legOut, 1)
	go func() {
		var res *genResult
		var err error
		if l.load != nil {
			res, err = l.load(env, o)
		} else {
			res, err = runLoad(env.cl, o.cfg)
		}
		if err == nil {
			if res.extra == nil {
				res.extra = make(map[string]float64)
			}
			if durable && env.srv != nil {
				ws := env.srv.WALStats()
				res.extra["wal_records"] = float64(ws.Appends)
				res.extra["wal_fsyncs"] = float64(ws.Syncs)
			}
			if l.extra != nil {
				l.extra(env, res)
			}
		}
		done <- legOut{res, err}
	}()
	budget := o.budget
	if budget <= 0 {
		budget = 2*o.cfg.duration + 20*time.Second
	}
	select {
	case out := <-done:
		env.close()
		if out.err != nil {
			return nil, out.err
		}
		printResult(o.cfg, out.res)
		return out.res, nil
	case <-time.After(budget):
		fmt.Printf("%s: WEDGED — no completion within %v, leg scored 0 ops/s\n", l.label, budget)
		if env.tmp != "" {
			// The abandoned server may still be appending; unlinking its
			// files under it is harmless and keeps /tmp from filling.
			os.RemoveAll(env.tmp)
		}
		if env.srv != nil {
			// Two snapshots 2s apart characterize the wedge: moving
			// begun/abort counters mean live conflict cycling; frozen
			// counters mean the pipeline is deadlocked outright.
			st0 := env.srv.Stats().Runtime
			time.Sleep(2 * time.Second)
			d := env.srv.Stats().Runtime.Sub(st0)
			fmt.Printf("%s: 2s delta begun=%d committed=%d aborted=%d escalations=%d crises=%d\n",
				l.label, d.Begun, d.Committed, d.Aborted, d.Escalations, d.Crises)
		}
		return &genResult{notes: []string{fmt.Sprintf("wedged: no completion within %v (scored 0)", budget)}}, nil
	}
}

// runAB runs spec under o (already through spec.prep): every leg, rounds times over, keeping each
// leg's best round; then the ratios, the report and the gate. A violation
// or request error in ANY leg of any round fails the run, whatever the
// ratio says.
func runAB(spec *abSpec, o abOpts) error {
	rounds := spec.rounds
	if rounds < 1 {
		rounds = 1
	}
	best := make(map[string]*genResult, len(spec.legs))
	var notes []string
	failed := false
	for round := 1; round <= rounds; round++ {
		if rounds > 1 {
			fmt.Printf("-- round %d of %d\n", round, rounds)
		}
		for i := range spec.legs {
			l := &spec.legs[i]
			res, err := runLeg(l, &o)
			if err != nil {
				return fmt.Errorf("%s: %w", l.label, err)
			}
			for _, n := range res.notes {
				fmt.Printf("   %s\n", n)
				notes = append(notes, l.label+": "+n)
			}
			for _, v := range res.violations { // printResult has shown them
				notes = append(notes, l.label+": "+v)
			}
			if len(res.violations) > 0 || res.errs > 0 {
				failed = true
			}
			if prev := best[l.label]; prev == nil || res.throughput() > prev.throughput() {
				best[l.label] = res
			}
		}
	}

	rep := newReport(strings.ReplaceAll(spec.report, "%s", o.cfg.workload), o.cfg)
	if o.name != "" {
		rep.Name = o.name
	}
	maps.Copy(rep.Config, map[string]any{
		"ab": spec.name, "workers": o.workers, "max_batch": o.maxBatch, "shards": o.shards,
		"fsync": o.fsync, "syncdelay": o.syncDelay.String(), "rounds": rounds,
	})
	for _, l := range spec.legs {
		addResultMetrics(rep.Metrics, l.label+"_", best[l.label])
	}
	for _, r := range spec.ratios {
		den, denLabel := 0.0, r.den[0]
		for _, d := range r.den {
			if tp := best[d].throughput(); tp > den {
				den, denLabel = tp, d
			}
		}
		v := 0.0
		if den > 0 {
			v = best[r.num].throughput() / den
		}
		rep.Metrics[r.key] = v
		fmt.Printf("== %s = %.3f (%s / %s)\n", r.key, v, r.num, denLabel)
		if len(r.den) > 1 {
			notes = append(notes, fmt.Sprintf("%s: best of %s is %s", r.key, strings.Join(r.den, ", "), denLabel))
		}
	}
	rep.Notes = notes
	if !failed {
		rep.Notes = append(rep.Notes, "invariants ok in every leg")
	}
	if o.jsonDir != "" {
		path, err := rep.WriteFile(o.jsonDir)
		if err != nil {
			return err
		}
		fmt.Printf("report: %s\n", path)
	}
	if failed {
		return fmt.Errorf("invariant violations or request errors (see above)")
	}
	if o.gate > 0 {
		head := spec.ratios[0]
		switch v := rep.Metrics[head.key]; {
		case spec.lower && (v <= 0 || v > o.gate):
			// A zero ratio is a leg that scored nothing, not a free lunch.
			return fmt.Errorf("%s: %s = %.3f, want > 0 and ≤ %.3f", spec.name, head.key, v, o.gate)
		case !spec.lower && v < o.gate:
			return fmt.Errorf("%s: %s = %.3f, want ≥ %.3f", spec.name, head.key, v, o.gate)
		}
	}
	return nil
}
