package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pnstm"
)

// Report is a machine-readable benchmark summary. Every benchmark
// front end in the repo — cmd/pnstm-bench -json and cmd/pnstm-loadgen —
// funnels through this one encoder so that BENCH_*.json files are
// uniform and a perf trajectory can be assembled by globbing them.
type Report struct {
	// Name identifies the run ("workload-map", "loadgen-readmap", …) and
	// becomes part of the filename.
	Name string `json:"name"`

	// Kind groups reports of the same shape: "workload", "figure",
	// "loadgen".
	Kind string `json:"kind"`

	// Time is the wall-clock time of the run, stamped by WriteFile.
	Time string `json:"time"`

	// Config records the knobs the run was launched with.
	Config map[string]any `json:"config,omitempty"`

	// Metrics holds the scalar results: throughput, latency percentiles,
	// speedups, abort rates. Keys carry their unit as a suffix
	// ("_per_sec", "_us", "_ratio").
	Metrics map[string]float64 `json:"metrics"`

	// Stats is the runtime counter delta covering the measured interval,
	// when the front end has one.
	Stats *pnstm.Stats `json:"stats,omitempty"`

	// Notes carries free-form context lines (invariant checks, caveats).
	Notes []string `json:"notes,omitempty"`
}

// WriteFile stamps the report and writes it to dir as
// BENCH_<sanitized-name>.json, returning the full path. An existing file
// of the same name is overwritten (the trajectory is one file per run
// name per checkout, collected by CI as artifacts).
func (r *Report) WriteFile(dir string) (string, error) {
	if r.Name == "" {
		return "", fmt.Errorf("bench: report needs a name")
	}
	r.Time = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: encode report: %w", err)
	}
	data = append(data, '\n')
	path := filepath.Join(dir, "BENCH_"+sanitizeName(r.Name)+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("bench: write report: %w", err)
	}
	return path, nil
}

// sanitizeName maps a run name onto the filename-safe alphabet.
func sanitizeName(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// LatencyMetrics reduces a latency sample set to the standard percentile
// metrics (microseconds): latency_p50_us, _p90_us, _p99_us, _max_us and
// latency_mean_us, plus latency_p99_ms — the same p99 in milliseconds,
// the key latency CEILINGS gate on (pnstm-benchgate -metric-ceiling).
// samples is sorted in place. Empty input yields an empty map.
func LatencyMetrics(samples []time.Duration) map[string]float64 {
	out := make(map[string]float64)
	if len(samples) == 0 {
		return out
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	out["latency_mean_us"] = us(sum / time.Duration(len(samples)))
	out["latency_p50_us"] = us(percentile(samples, 0.50))
	out["latency_p90_us"] = us(percentile(samples, 0.90))
	out["latency_p99_us"] = us(percentile(samples, 0.99))
	out["latency_p99_ms"] = out["latency_p99_us"] / 1000
	out["latency_max_us"] = us(samples[len(samples)-1])
	return out
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// StatsMetrics folds a runtime counter delta into metric form, keeping
// the headline counters and the derived abort rate.
func StatsMetrics(st pnstm.Stats) map[string]float64 {
	return map[string]float64{
		"tx_begun":       float64(st.Begun),
		"tx_committed":   float64(st.Committed),
		"tx_aborted":     float64(st.Aborted),
		"tx_conflicts":   float64(st.Conflicts),
		"tx_escalations": float64(st.Escalations),
		"abort_ratio":    st.AbortRate(),
	}
}

// WorkloadReport renders one CompareStructure outcome as a Report.
func WorkloadReport(cfg StructureConfig, ser, par StructureResult) *Report {
	stats := par.Stats
	metrics := map[string]float64{
		"serial_ops_per_sec":   ser.OpsPerSec(),
		"parallel_ops_per_sec": par.OpsPerSec(),
		"speedup_ratio":        safeRatio(float64(ser.Wall), float64(par.Wall)),
		"ops":                  float64(par.Ops),
		"serial_wall_us":       float64(ser.Wall) / float64(time.Microsecond),
		"parallel_wall_us":     float64(par.Wall) / float64(time.Microsecond),
	}
	for k, v := range StatsMetrics(par.Stats) {
		metrics[k] = v
	}
	return &Report{
		Name: "workload-" + cfg.Workload,
		Kind: "workload",
		Config: map[string]any{
			"workload": cfg.Workload,
			"workers":  cfg.Workers,
			"rounds":   cfg.Rounds,
			"children": cfg.Children,
			"span":     cfg.Span,
			"buckets":  cfg.Buckets,
			"seed":     cfg.Seed,
		},
		Metrics: metrics,
		Stats:   &stats,
	}
}

// FigureReport flattens a reproduced figure grid into a Report: one
// metric per valid (N, D) cell, keyed n<N>_d<D>.
func FigureReport(f *Figure, figNum int) *Report {
	metrics := make(map[string]float64)
	for _, row := range f.Grid {
		for _, cell := range row {
			if !cell.Valid {
				continue
			}
			metrics[fmt.Sprintf("n%d_d%d", cell.Leaves, cell.Depth)] = cell.Value
		}
	}
	return &Report{
		Name: fmt.Sprintf("figure-%d", figNum),
		Kind: "figure",
		Config: map[string]any{
			"objects":   f.Config.Objects,
			"think_max": f.Config.ThinkMax.String(),
			"workers":   f.Config.Workers,
			"repeats":   f.Config.Repeats,
			"seed":      f.Config.Seed,
		},
		Metrics: metrics,
	}
}

// safeRatio returns a/b, or 0 when b is 0.
func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
