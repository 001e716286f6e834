package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// The repeat check answers one question: do two sets of runs of the same
// code agree within the benchmark's own bounds? If they do not, no later
// change can be judged by this benchmark.

// quartileSpread is the distance between the first and third quartile as a
// share of the median, the quartiles as Python's statistics.quantiles(n=4)
// gives them (exclusive method).
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return 0
	}
	q := func(i int) float64 { // i-th quartile, exclusive method
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// worsening is how far b is on the worse side of a, as a share of a.
func worsening(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// demoted is the time metrics the issue wanted end-to-end. The repeat
// check prints their rows against the issue's 10% without judging them, so
// that whoever wants to claim a speed-up sees what this box resolves today.
var demoted = []metricDef{
	{"e2e.throughput_ops_s", "ops/s", "higher", 0.10},
	{"e2e.p50_ms", "ms", "lower", 0.10},
	{"e2e.cpu_us_per_op", "us", "lower", 0.10},
}

// repeatCheck runs two interleaved sets (A, B) of k runs of every
// workload, each run its own process and its own seed, and prints per
// workload and end-to-end metric both medians, how much worse the worse
// set's median is, each set's quartile spread, and the bound. It reports
// false when a difference exceeds its bound, or a spread other than
// setup_s's does. The demoted metrics' rows are printed and not judged.
func repeatCheck(k, seconds int, out io.Writer) (bool, error) {
	if k < 5 {
		return false, fmt.Errorf("-repeat needs K >= 5, got %d", k)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	env := readEnv()
	fmt.Fprintf(out, "# Repeatability of the benchmark on one checkout\n\n")
	fmt.Fprintf(out, "Two interleaved sets (A, B) of %d runs per workload, `--seconds %d`, every run its own process and seed\n", k, seconds)
	fmt.Fprintf(out, "(A: seeds 1..%d, B: seeds %d..%d). `diff` is how far the worse set's median lies on the worse side of the\n", k, 101, 100+k)
	fmt.Fprintf(out, "other's; `iqr` is (Q3-Q1)/median of a set. A row fails when `diff` or an `iqr` exceeds the bound\n")
	fmt.Fprintf(out, "(`setup_s` is judged on `diff` alone). The `e2e.*` rows are the demoted time metrics against the issue's 10%%:\n")
	fmt.Fprintf(out, "printed, not judged (`over` where they exceed it).\n\n")
	fmt.Fprintf(out, "Environment: %s, nproc %d, kernel %s, data-dir filesystem %s, load average %.2f at start, calibration loop %.1f ms. %s.\n\n",
		env.GoVersion, env.NProc, env.Kernel, env.TmpFS, env.Loadavg1m, env.CalibMs, time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintln(out, "| workload | metric | unit | median A | median B | diff | iqr A | iqr B | bound | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|")

	allOK := true
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			for set := 0; set < 2; set++ {
				seed := int64(1 + i + 100*set)
				res, err := runChild(self, w.Name, seed, seconds)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				for name, v := range res {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		for i, def := range append(append([]metricDef(nil), endToEnd...), demoted...) {
			a, b := sets[0][def.Name], sets[1][def.Name]
			ma, mb := median(a), median(b)
			diff := max(worsening(def, ma, mb), worsening(def, mb, ma))
			sa, sb := quartileSpread(a), quartileSpread(b)
			ok := diff <= def.Bound && (def.Name == "setup_s" || (sa <= def.Bound && sb <= def.Bound))
			verdict := "ok"
			switch {
			case !ok && i < len(endToEnd):
				verdict, allOK = "FAIL", false
			case !ok:
				verdict = "over"
			case i >= len(endToEnd):
				verdict = "within"
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %.3g%% | %s |\n",
				w.Name, def.Name, def.Unit, ma, mb, 100*diff, 100*sa, 100*sb, 100*def.Bound, verdict)
		}
	}
	if allOK {
		fmt.Fprintf(out, "\nEvery workload x end-to-end metric repeats within its bound.\n")
	} else {
		fmt.Fprintf(out, "\nAt least one row exceeds its bound: the benchmark cannot resolve changes of that size on this box.\n")
	}
	return allOK, nil
}

// runChild runs one workload in a fresh process (peak_rss_mb is a process
// high-water mark) and returns the end-to-end metrics of its result line
// plus the demoted ones, read from the table it prints above that line.
func runChild(self, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	m := make(map[string]float64)
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	for _, line := range lines {
		f := bytes.Fields(line)
		for _, def := range demoted {
			if len(f) == 3 && string(f[0]) == def.Name {
				if m[def.Name], err = strconv.ParseFloat(string(f[1]), 64); err != nil {
					return nil, fmt.Errorf("table row %q: %w", line, err)
				}
			}
		}
	}
	return m, nil
}
