package main

import (
	"fmt"
	"time"

	"pnstm/client"
	"pnstm/internal/bench"
	"pnstm/server"
	"pnstm/stmlib"
)

// runAdaptiveCompare is the controller A/B: the same workload (meant to
// be -workload phases, whose op mix shifts read-heavy → write-hot →
// mixed mid-run) against three embedded in-memory servers —
//
//	static-1   MaxInflight pinned at 1 (the conservative default: safe
//	           everywhere, leaves read-phase pipelining on the table)
//	static-4   MaxInflight pinned at 4 (fast while reads dominate, digs
//	           into the write-livelock cliff when the phase turns)
//	adaptive   starts at 1 with the AIMD controller on, walking each
//	           shard's MaxInflight from its observed abort rate
//
// and reports adaptive_speedup_ratio = adaptive / best(static). On a
// phase-shifting workload no single static setting is right for every
// phase, so a working controller holds the ratio near (or above) 1.0 —
// the committed BENCH_baseline.json floor CI gates it against.
func runAdaptiveCompare(cfg genCfg, workers, maxBatch int, minRatio float64, jsonDir, name string) error {
	type mode struct {
		label    string
		inflight int
		adaptive bool
	}
	modes := []mode{
		{"static-1", 1, false},
		{"static-4", 4, false},
		{"adaptive", 1, true},
	}
	reg := stmlib.RegistryConfig{MapBuckets: 4 * cfg.keys}
	results := make(map[string]*genResult, len(modes))
	finals := make(map[string]server.ConfigView, len(modes))
	livelocked := make(map[string]bool, len(modes))
	// A pinned-static pipelining server CAN livelock outright on the
	// write-hot phase (the PR 2 cliff — the very failure the controller
	// exists to avoid), and a livelocked leg never answers its in-flight
	// ops. Bound every leg by wall clock: a leg that blows the budget is
	// scored as zero throughput and its server abandoned un-Closed (Close
	// would wait on the stuck batch; process exit reaps it).
	legBudget := 2*cfg.duration + 20*time.Second
	for _, m := range modes {
		s, err := server.New(server.Config{
			Addr:        "127.0.0.1:0",
			Workers:     workers,
			MaxBatch:    maxBatch,
			SharedReads: true,
			MaxInflight: m.inflight,
			Adaptive:    m.adaptive,
			Registry:    reg,
		})
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
		fmt.Printf("== %s (workers=%d batch=%d inflight=%d adaptive=%v)\n",
			m.label, workers, maxBatch, m.inflight, m.adaptive)
		type legOut struct {
			res *genResult
			err error
		}
		legCh := make(chan legOut, 1)
		go func() {
			r, e := runLoad(cl, cfg)
			legCh <- legOut{r, e}
		}()
		select {
		case out := <-legCh:
			finals[m.label] = s.ConfigSnapshot()
			cl.Close()
			s.Close()
			if out.err != nil {
				return out.err
			}
			printResult(cfg, out.res)
			results[m.label] = out.res
		case <-time.After(legBudget):
			finals[m.label] = s.ConfigSnapshot()
			livelocked[m.label] = true
			results[m.label] = &genResult{} // zero ops, zero throughput
			fmt.Printf("%s: LIVELOCKED — no completion within %v, leg scored 0 ops/s\n",
				m.label, legBudget)
			// Two snapshots 2s apart characterize the wedge: moving
			// begun/abort counters mean live conflict cycling; frozen
			// counters mean the pipeline is deadlocked outright.
			st0 := s.Stats().Runtime
			time.Sleep(2 * time.Second)
			d := s.Stats().Runtime.Sub(st0)
			fmt.Printf("%s: 2s delta begun=%d committed=%d aborted=%d escalations=%d crises=%d\n",
				m.label, d.Begun, d.Committed, d.Aborted, d.Escalations, d.Crises)
		}
	}

	s1, s4, ad := results["static-1"], results["static-4"], results["adaptive"]
	bestStatic := s1.throughput()
	bestLabel := "static-1"
	if s4.throughput() > bestStatic {
		bestStatic, bestLabel = s4.throughput(), "static-4"
	}
	ratio := 0.0
	if bestStatic > 0 {
		ratio = ad.throughput() / bestStatic
	}
	fmt.Printf("== adaptive vs best static (%s): %.2fx throughput\n", bestLabel, ratio)
	for _, ps := range finals["adaptive"].PerShard {
		fmt.Printf("   adaptive shard %d settled at inflight=%d\n", ps.Shard, ps.MaxInflight)
	}

	if jsonDir != "" {
		if name == "" {
			name = "loadgen-" + cfg.workload + "-adaptive"
		}
		metrics := map[string]float64{
			"static1_throughput_per_sec":     s1.throughput(),
			"static4_throughput_per_sec":     s4.throughput(),
			"adaptive_throughput_per_sec":    ad.throughput(),
			"best_static_throughput_per_sec": bestStatic,
			"adaptive_speedup_ratio":         ratio,
			"static1_abort_ratio":            s1.runtimeStat.abortRatio,
			"static4_abort_ratio":            s4.runtimeStat.abortRatio,
			"adaptive_abort_ratio":           ad.runtimeStat.abortRatio,
		}
		for k, v := range bench.LatencyMetrics(ad.latencies) {
			metrics["adaptive_"+k] = v
		}
		for k, v := range bench.LatencyMetrics(s1.latencies) {
			metrics["static1_"+k] = v
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
		rep.Notes = append(rep.Notes, fmt.Sprintf("best static: %s", bestLabel))
		for _, m := range modes {
			if livelocked[m.label] {
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s livelocked (scored 0)", m.label))
			}
		}
		for _, ps := range finals["adaptive"].PerShard {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"adaptive shard %d final inflight=%d", ps.Shard, ps.MaxInflight))
		}
		for _, res := range []*genResult{s1, s4, ad} {
			if len(res.violations) > 0 {
				rep.Notes = append(rep.Notes, res.violations...)
			}
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
	if minRatio > 0 && ratio < minRatio {
		return fmt.Errorf("adaptive controller regressed: %.2fx the best static config (%s), want ≥ %.2fx",
			ratio, bestLabel, minRatio)
	}
	return nil
}
