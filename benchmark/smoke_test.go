package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// runSmoke runs one workload at the -smoke size and decodes the result
// line, failing the test when the run itself reports a wrong answer.
func runSmoke(t *testing.T, workload string, trace int) (result, string) {
	t.Helper()
	var out bytes.Buffer
	outDir := t.TempDir()
	res, err := run(options{workload: workload, seed: 5, seconds: 1, trace: trace, smoke: true, outDir: outDir}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 64 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last result
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("%s: last line of output is not the result object: %v", workload, err)
	}
	if !reflect.DeepEqual(last, res) {
		t.Fatalf("%s: result line differs from the returned result", workload)
	}
	return res, outDir
}

// Untraced, the result line carries exactly the end-to-end metrics, every
// one of them non-zero.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		res, _ := runSmoke(t, w.Name, 0)
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics in the result line, want the %d end-to-end ones", w.Name, len(res.Metrics), len(endToEnd))
		}
		for _, def := range endToEnd {
			mv, ok := res.Metrics[def.Name]
			if !ok || mv.Unit != def.Unit || !(mv.Value > 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w.Name, def.Name, mv, ok, def.Unit)
			}
		}
	}
}

// Traced, the result line carries exactly the per-layer metrics, the layer
// a workload bypasses reads 0, and the span file holds every layer's spans.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		res, outDir := runSmoke(t, w.Name, 1)
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics in the result line, want the %d per-layer ones", w.Name, len(res.Metrics), len(perLayer))
		}
		v := func(name string) float64 {
			mv, ok := res.Metrics[name]
			if !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, name)
			}
			return mv.Value
		}
		for _, def := range perLayer {
			if v(def.Name); res.Metrics[def.Name].Unit != def.Unit {
				t.Errorf("%s: %s has unit %q, want %q", w.Name, def.Name, res.Metrics[def.Name].Unit, def.Unit)
			}
		}
		for _, name := range []string{"core.begun_per_op", "core.root_empty_ns", "core.fork_join_ns", "core.store_ns",
			"stmlib.map_get_ns", "stmlib.sorted_scan_ns", "stmlib.map_put_allocs", "bench.calib_ms", "env.nproc"} {
			if !(v(name) > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, v(name))
			}
		}
		wire := w.Wire
		for _, name := range []string{"server.mean_batch", "server.req_p50_us", "server.codec_req_parse_ns",
			"server.frame_bytes_resp", "client.rtt_unloaded_us"} {
			if got := v(name); wire != (got > 0) {
				t.Errorf("%s: %s = %v, want > 0 exactly on the wire workloads", w.Name, name, got)
			}
		}
		for _, name := range []string{"wal.appends_per_kop", "wal.syncs_per_kop", "wal.bytes_per_op", "wal.write_amp",
			"wal.append_nosync_us", "wal.append_fsync_us", "wal.replay_rec_s", "server.recover_s"} {
			if got := v(name); w.Durable != (got > 0) {
				t.Errorf("%s: %s = %v, want > 0 exactly on the durable workload", w.Name, name, got)
			}
		}

		raw, err := os.ReadFile(filepath.Join(outDir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatalf("%s: span file: %v", w.Name, err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("%s: span file: %v", w.Name, err)
		}
		layers := make(map[string]int)
		ids := make(map[int64]bool)
		for _, s := range tf.Spans {
			layers[s.Layer]++
			if ids[s.ID] || s.End < s.Start {
				t.Fatalf("%s: span %+v: duplicate id or negative duration", w.Name, s)
			}
			ids[s.ID] = true
		}
		for _, s := range tf.Spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Fatalf("%s: span %d names a parent %d that is not in the file", w.Name, s.ID, s.Parent)
			}
		}
		want := []string{"core", "stmlib", "client"}
		if wire {
			want = append(want, "server")
		}
		if w.Durable {
			want = append(want, "wal")
		}
		for _, l := range want {
			if layers[l] == 0 {
				t.Errorf("%s: span file has no %s spans (layers: %v)", w.Name, l, layers)
			}
		}
	}
}

// BENCHMARK.json is maintained by hand; the driver and the program must
// agree on the run length and on every name, unit, direction and bound.
func TestManifestNamesTheProgramsMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var got struct {
		RunSeconds int   `json:"run_seconds"`
		Workloads  []row `json:"workloads"`
		EndToEnd   []row `json:"end_to_end"`
		PerLayer   []row `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the frozen op counts are sized for %d", got.RunSeconds, runSeconds)
	}
	var names []row
	for _, w := range workloads {
		names = append(names, row{Name: w.Name, Why: w.Why})
	}
	same := func(list string, got, want []row) {
		if len(got) != len(want) {
			t.Errorf("%s: %d rows in BENCHMARK.json, %d in the program", list, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v in BENCHMARK.json, %+v in the program", list, i, got[i], want[i])
			}
		}
	}
	same("workloads", got.Workloads, names)
	rows := func(defs []metricDef) (out []row) {
		for _, d := range defs {
			out = append(out, row{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
		}
		return out
	}
	same("end_to_end", got.EndToEnd, rows(endToEnd))
	same("per_layer", got.PerLayer, rows(perLayer))
}
