// Command benchmark is the repo's benchmark: one command runs one
// workload from one seed, checks that the outputs are correct, and prints
// every metric by name with its unit; the last line of standard output is
// the result as one JSON object. See README.md in this directory.
//
//	bash benchmark/run.sh --workload point-mem --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --workload txn-durable --seed 1 --seconds 24 --trace 1
//	bash benchmark/repeat.sh 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	outDir   string
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var opts options
	var repeat int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: core-nest, point-mem, txn-durable or scan-mem")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the generated op stream")
	flag.IntVar(&opts.seconds, "seconds", runSeconds, "the driver's run length; scales the frozen op counts, which are sized for the default")
	flag.IntVar(&opts.trace, "trace", 0, "1: also run the rung pass and the traced wire pass, report the per-layer metrics and write the span file")
	flag.BoolVar(&opts.smoke, "smoke", false, "one repetition of 60 ops per caller (tests)")
	flag.IntVar(&repeat, "repeat", 0, "K >= 5: run two interleaved sets of K runs of every workload and compare their medians against the bounds")
	flag.Parse()
	opts.outDir = filepath.Join("benchmark", "out")

	switch {
	case repeat > 0:
		ok, err := repeatCheck(repeat, opts.seconds, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		res, err := run(opts, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run executes one workload and prints the human-readable table followed
// by the result line.
func run(opts options, out io.Writer) (result, error) {
	w, ok := findWorkload(opts.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want core-nest, point-mem, txn-durable or scan-mem)", opts.workload)
	}
	if opts.seconds < 1 {
		return result{}, fmt.Errorf("--seconds must be at least 1")
	}
	// Go before 1.25 ignores a container's CPU quota; pin to the CPUs the
	// box reports so that every run schedules the same way.
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := readEnv()
	if env.Loadavg1m > 1 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: load average %.2f > 1 at start; timings will be noisy\n", env.Loadavg1m)
	}

	sz := sizesFor(w, opts.seconds, opts.smoke)
	d := newDataset(opts.seed)
	warm := genLanes(w.Name, opts.seed, warmLaneBase, sz.lanes, sz.warm)
	measured := genLanes(w.Name, opts.seed, 0, sz.lanes, sz.measured)
	fmt.Fprintf(out, "# pnstm benchmark: workload=%s seed=%d seconds=%d trace=%d\n", w.Name, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(out, "# env: go=%s nproc=%d gomaxprocs=%d kernel=%s datadir_fs=%s loadavg_1m=%.2f calib_ms=%.2f\n",
		env.GoVersion, env.NProc, runtime.GOMAXPROCS(0), env.Kernel, env.TmpFS, env.Loadavg1m, env.CalibMs)
	fmt.Fprintf(out, "# work: callers=%d connections=%d measured_ops=%d warmup_ops=%d (per repetition, fixed counts)\n",
		sz.lanes, sz.poolSize, sz.measured, sz.warm)

	nreps := reps
	if opts.smoke {
		nreps = 1
	}
	// head is how many ops the traced wire pass replays: the first traceOps
	// of the stream, or the first quarter of a repetition where that is
	// fewer (the driver's time cap). The untraced repetitions note when
	// they had completed as many.
	head := max(min(sz.measured/4, traceOps)/sz.lanes, 1) * sz.lanes

	var res result
	var perRep []map[string]float64
	var throughput, headWall []float64
	for r := 0; r < nreps; r++ {
		rep, err := runRepetition(w, d, sz, warm, measured, head, nil)
		if err != nil {
			return result{}, err
		}
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		perRep = append(perRep, rep.metrics)
		throughput = append(throughput, rep.metrics["e2e.throughput_ops_s"])
		headWall = append(headWall, rep.headWall.Seconds())
		fmt.Fprintf(out, "# repetition %d: %.1f ops/s, p50 %.4f ms, cpu %.2f us/op, %.2f allocs/op, set-up %.3f s, failed %d\n", r+1,
			throughput[r], rep.metrics["e2e.p50_ms"], rep.metrics["e2e.cpu_us_per_op"], rep.metrics["allocs_per_op"],
			rep.metrics["setup_s"], rep.failed)
	}
	// Every metric is the median of the repetitions.
	m := medianByKey(perRep)
	if req := m["server.req_p50_us"]; req > 0 {
		m["client.wire_residual_us"] = m["e2e.p50_ms"]*1e3 - req
	}
	sort.Float64s(throughput)
	m["bench.rep_spread"] = ratio(throughput[nreps-1]-throughput[0], median(throughput))
	m["bench.calib_ms"] = env.CalibMs
	m["env.loadavg_1m"] = env.Loadavg1m
	m["env.nproc"] = float64(env.NProc)

	if opts.trace != 0 {
		path := filepath.Join(opts.outDir, "trace-"+w.Name+".json")
		rep, tm, err := tracedRun(w, d, sz, opts.seed, warm, measured, head, median(headWall), path)
		if err != nil {
			return result{}, err
		}
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		for k, v := range tm {
			m[k] = v
		}
		m["server.batcher_residual_us"] = batcherResidual(w, m)
		fmt.Fprintf(out, "# traced run: spans written to %s\n", path)
	}
	m["peak_rss_mb"] = peakRSSMB()
	m["bench.failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	m["ok_frac"] = 1 - m["bench.failed_frac"]
	res.Correct = res.Failed == 0

	res.Metrics = make(map[string]metricValue)
	fmt.Fprintf(out, "end-to-end (%d repetitions; attempted %d, failed %d):\n", nreps, res.Attempted, res.Failed)
	for _, def := range endToEnd {
		fmt.Fprintf(out, "  %-32s %16.6g %s\n", def.Name, m[def.Name], def.Unit)
		if opts.trace == 0 {
			res.Metrics[def.Name] = metricValue{m[def.Name], def.Unit}
		}
	}
	fmt.Fprintln(out, "per-layer (0: not exercised by this workload, or measured only with --trace 1):")
	for _, def := range perLayer {
		fmt.Fprintf(out, "  %-32s %16.6g %s\n", def.Name, m[def.Name], def.Unit)
		if opts.trace != 0 {
			res.Metrics[def.Name] = metricValue{m[def.Name], def.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// tracedRun is the --trace 1 part of a run: the rung pass (each layer's
// public calls alone, single goroutine), then the wire pass (the workload
// itself, a span around every client call and the public counters sampled
// on the same timeline). It returns the traced repetition and the
// per-layer metrics only it can measure.
func tracedRun(w workloadDef, d *dataset, sz sizes, seed int64, warm, measured [][]op, head int, untracedHeadS float64,
	path string) (repetition, map[string]float64, error) {
	t0 := time.Now()
	rungs := newTracer(t0, 0, 1<<16)
	ops := &ladderOp{}
	m := make(map[string]float64)
	merge := func(part map[string]float64, err error) error {
		for k, v := range part {
			m[k] = v
		}
		return err
	}
	if err := merge(coreLadder(rungs, ops, sz.rungs)); err != nil {
		return repetition{}, nil, err
	}
	if err := merge(stmlibLadder(rungs, ops, d, seed, sz.rungs)); err != nil {
		return repetition{}, nil, err
	}
	var unloaded repetition
	var unloadedTr *tracer
	if w.Wire {
		sample := measured[0][:min(ladderOps, len(measured[0]))]
		if err := merge(codecLadder(rungs, ops, d, sample)); err != nil {
			return repetition{}, nil, err
		}
		// Unloaded round trips: one caller on one connection, so no batch
		// forms and nothing queues.
		unloadedTr = newTracer(t0, 1<<40, len(sample))
		var err error
		unloaded, err = runRepetition(w, d, sizes{lanes: 1, poolSize: 1}, warm[:1], [][]op{sample}, 0,
			&wireTrace{t0: t0, tracers: []*tracer{unloadedTr}})
		if err != nil {
			return repetition{}, nil, fmt.Errorf("unloaded round trips: %w", err)
		}
		for i := range unloadedTr.spans {
			unloadedTr.spans[i].Name = "unloaded"
		}
	}

	// The wire pass replays the first head ops of the stream and is
	// compared with the time the untraced repetitions took to complete as
	// many (their median).
	perLane := head / sz.lanes
	lanes := make([][]op, len(measured))
	wt := &wireTrace{t0: t0, tracers: make([]*tracer, len(measured))}
	for l := range measured {
		lanes[l] = measured[l][:perLane]
		wt.tracers[l] = newTracer(t0, int64(l+2)<<40, perLane)
	}
	wt.afterFinish = func(dir string) error { return merge(walLadder(rungs, ops, dir)) }
	rep, err := runRepetition(w, d, sz, warm, lanes, head, wt)
	if err != nil {
		return repetition{}, nil, fmt.Errorf("traced wire pass: %w", err)
	}
	m["bench.trace_overhead_frac"] = 1 - ratio(untracedHeadS, rep.headWall.Seconds())
	rep.attempted += unloaded.attempted
	rep.failed += unloaded.failed

	spans := append([]span(nil), rungs.spans...)
	if unloadedTr != nil {
		spans = append(spans, unloadedTr.spans...)
	}
	for _, tr := range wt.tracers {
		spans = append(spans, tr.spans...)
	}
	for k, v := range ladderTimings(spans) {
		m[k] = v
	}
	return rep, m, writeTrace(path, traceFile{Workload: w.Name, Seed: seed, Spans: spans, Counts: wt.counts})
}

// batcherResidual is the server-side median request latency minus the
// ladder's figure for the structure calls the request makes and, on a
// durable server, one fsynced log append: what queueing, batching, the
// nested-child machinery and the reply path add. It is a difference of
// medians taken in different runs, so read it as an estimate.
func batcherResidual(w workloadDef, m map[string]float64) float64 {
	var libNs float64
	for rung, calls := range w.LibCalls {
		libNs += calls * m[rung]
	}
	return m["server.req_p50_us"] - libNs/1e3 - m["wal.append_fsync_us"]
}
