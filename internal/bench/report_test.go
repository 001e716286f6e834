package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pnstm"
)

func TestReportWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := pnstm.Stats{Begun: 10, Committed: 8, Aborted: 2}
	r := &Report{
		Name:    "unit test/report",
		Kind:    "workload",
		Config:  map[string]any{"workers": 4},
		Metrics: map[string]float64{"ops_per_sec": 123.5},
		Stats:   &st,
		Notes:   []string{"invariant ok"},
	}
	path, err := r.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_unit-test-report.json"); path != want {
		t.Errorf("path = %q want %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != r.Name || back.Kind != "workload" {
		t.Errorf("round trip lost identity: %+v", back)
	}
	if back.Metrics["ops_per_sec"] != 123.5 {
		t.Errorf("metrics = %v", back.Metrics)
	}
	if back.Stats == nil || back.Stats.Aborted != 2 {
		t.Errorf("stats = %+v", back.Stats)
	}
	if back.Time == "" {
		t.Error("missing timestamp")
	}
}

func TestReportNeedsName(t *testing.T) {
	if _, err := (&Report{}).WriteFile(t.TempDir()); err == nil {
		t.Fatal("expected error for nameless report")
	}
}

func TestLatencyMetrics(t *testing.T) {
	if got := LatencyMetrics(nil); len(got) != 0 {
		t.Errorf("empty input → %v", got)
	}
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(100-i) * time.Microsecond // reversed: forces the sort
	}
	m := LatencyMetrics(samples)
	checks := map[string]float64{
		"latency_p50_us":  50,
		"latency_p90_us":  90,
		"latency_p99_us":  99,
		"latency_max_us":  100,
		"latency_mean_us": 50, // mean of 1..100 is 50.5, integer-truncated by the Duration divide
	}
	for k, want := range checks {
		got, ok := m[k]
		if !ok {
			t.Errorf("missing %s", k)
			continue
		}
		if got < want-1.5 || got > want+1.5 {
			t.Errorf("%s = %v want ≈%v", k, got, want)
		}
	}
}

func TestStatsMetricsAbortRatio(t *testing.T) {
	m := StatsMetrics(pnstm.Stats{Begun: 20, Aborted: 5})
	if m["abort_ratio"] != 0.25 {
		t.Errorf("abort_ratio = %v want 0.25", m["abort_ratio"])
	}
	if StatsMetrics(pnstm.Stats{})["abort_ratio"] != 0 {
		t.Error("zero stats should have zero abort ratio")
	}
}

func TestWorkloadReportShape(t *testing.T) {
	cfg := StructureConfig{Workload: "map", Workers: 4, Rounds: 2, Children: 2, Span: 8}
	ser := StructureResult{Wall: 2 * time.Millisecond, Ops: 100}
	par := StructureResult{Wall: time.Millisecond, Ops: 100, Stats: pnstm.Stats{Begun: 4, Committed: 4}}
	r := WorkloadReport(cfg, ser, par)
	if r.Name != "workload-map" || r.Kind != "workload" {
		t.Errorf("identity: %+v", r)
	}
	if got := r.Metrics["speedup_ratio"]; got != 2 {
		t.Errorf("speedup = %v want 2", got)
	}
	if r.Metrics["parallel_ops_per_sec"] == 0 || r.Stats == nil {
		t.Errorf("incomplete report: %+v", r)
	}
}
