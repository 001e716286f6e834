package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pnstm/internal/bench"
	"pnstm/server"
	"pnstm/stmlib"
)

// fakeLeg is a leg that needs no server: its load answers ops/s figures
// from the list, one per round (the last repeats).
func fakeLeg(label string, opsPerSec ...int64) leg {
	calls := 0
	return leg{label: label, load: func(*legEnv, *abOpts) (*genResult, error) {
		ops := opsPerSec[min(calls, len(opsPerSec)-1)]
		calls++
		return &genResult{ops: ops, wall: time.Second}, nil
	}}
}

// fakeOpts are options whose boot opens no socket.
func fakeOpts(t *testing.T, gate float64) abOpts {
	return abOpts{
		cfg:     testCfg(t, "counter"),
		gate:    gate,
		jsonDir: t.TempDir(),
		boot:    func(server.Config, bool, int) (*legEnv, error) { return &legEnv{}, nil },
	}
}

func readReport(t *testing.T, dir, file string) *bench.Report {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestABRatioAndGate: the headline is num over den, and -gate is a floor
// for a better-higher spec and a ceiling for a better-lower one.
func TestABRatioAndGate(t *testing.T) {
	spec := func(lower bool) *abSpec {
		return &abSpec{
			name: "t", report: "loadgen-%s-t", lower: lower,
			legs:   []leg{fakeLeg("a", 100), fakeLeg("b", 200)},
			ratios: []ratio{{"b_over_a_ratio", "b", []string{"a"}}, {"a_over_b_ratio", "a", []string{"b"}}},
		}
	}
	for _, tc := range []struct {
		lower bool
		gate  float64
		pass  bool
	}{
		{false, 0, true}, {false, 1.5, true}, {false, 2.0, true}, {false, 2.5, false},
		{true, 0, true}, {true, 2.5, true}, {true, 2.0, true}, {true, 1.5, false},
	} {
		o := fakeOpts(t, tc.gate)
		err := runAB(spec(tc.lower), o)
		if (err == nil) != tc.pass {
			t.Errorf("lower=%v gate=%v: err=%v, want pass=%v", tc.lower, tc.gate, err, tc.pass)
		}
		m := readReport(t, o.jsonDir, "BENCH_loadgen-counter-t.json").Metrics
		if m["b_over_a_ratio"] != 2 || m["a_over_b_ratio"] != 0.5 {
			t.Errorf("ratios = %v / %v, want 2 / 0.5", m["b_over_a_ratio"], m["a_over_b_ratio"])
		}
		if m["a_throughput_per_sec"] != 100 || m["b_ops"] != 200 {
			t.Errorf("leg metrics missing or wrong: %v", m)
		}
	}
}

// TestABBestOfRounds: every leg runs once per round, in alternation, each
// leg's best round is the one reported, and the denominator of a ratio
// over several legs is the best of them.
func TestABBestOfRounds(t *testing.T) {
	var order []string
	logged := func(l leg) leg {
		inner := l.load
		l.load = func(e *legEnv, o *abOpts) (*genResult, error) {
			order = append(order, l.label)
			return inner(e, o)
		}
		return l
	}
	spec := &abSpec{
		name: "t", report: "loadgen-%s-t", rounds: 3,
		legs:   []leg{logged(fakeLeg("x", 100, 300, 200)), logged(fakeLeg("y", 50, 40, 60)), logged(fakeLeg("z", 10))},
		ratios: []ratio{{"x_over_best_ratio", "x", []string{"z", "y"}}},
	}
	o := fakeOpts(t, 0)
	if err := runAB(spec, o); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "xyzxyzxyz" {
		t.Errorf("leg order %q, want the legs alternating xyzxyzxyz", got)
	}
	rep := readReport(t, o.jsonDir, "BENCH_loadgen-counter-t.json")
	if m := rep.Metrics; m["x_throughput_per_sec"] != 300 || m["y_throughput_per_sec"] != 60 || m["x_over_best_ratio"] != 5 {
		t.Errorf("best-of-rounds: x=%v y=%v ratio=%v, want 300, 60, 5", m["x_throughput_per_sec"], m["y_throughput_per_sec"], m["x_over_best_ratio"])
	}
	if notes := strings.Join(rep.Notes, "\n"); !strings.Contains(notes, "best of z, y is y") {
		t.Errorf("notes %q do not name the denominator that won", notes)
	}
}

// TestABWedgedLeg: a leg that overruns its budget is scored zero and
// noted, its data dir removed, the run carries on instead of hanging, and
// no gate — floor or ceiling — passes on a ratio with a dead leg in it.
func TestABWedgedLeg(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	wedged := leg{label: "stuck", load: func(*legEnv, *abOpts) (*genResult, error) {
		<-release
		return &genResult{}, nil
	}}
	for _, tc := range []struct {
		name  string
		legs  []leg
		lower bool
	}{
		{"numerator, floor", []leg{fakeLeg("ok", 100), wedged}, false},
		{"numerator, ceiling", []leg{fakeLeg("ok", 100), wedged}, true},
		{"denominator, ceiling", []leg{wedged, fakeLeg("ok", 100)}, true},
	} {
		spec := &abSpec{
			name: "t", report: "loadgen-%s-t", lower: tc.lower, legs: tc.legs,
			ratios: []ratio{{"r_ratio", tc.legs[1].label, []string{tc.legs[0].label}}},
		}
		o := fakeOpts(t, 0)
		o.budget = 20 * time.Millisecond
		dataDirs := t.TempDir()
		o.boot = func(server.Config, bool, int) (*legEnv, error) {
			dir, err := os.MkdirTemp(dataDirs, "leg-")
			return &legEnv{tmp: dir}, err
		}
		start := time.Now()
		if err := runAB(spec, o); err != nil {
			t.Errorf("%s: ungated run with a wedged leg failed: %v", tc.name, err)
		}
		if time.Since(start) > 5*time.Second {
			t.Errorf("%s: the harness waited on the wedged leg", tc.name)
		}
		rep := readReport(t, o.jsonDir, "BENCH_loadgen-counter-t.json")
		if rep.Metrics["stuck_throughput_per_sec"] != 0 || rep.Metrics["r_ratio"] != 0 {
			t.Errorf("%s: wedged leg scored %v, ratio %v; want 0, 0", tc.name, rep.Metrics["stuck_throughput_per_sec"], rep.Metrics["r_ratio"])
		}
		if notes := strings.Join(rep.Notes, "\n"); !strings.Contains(notes, "stuck: wedged") {
			t.Errorf("%s: notes %q do not report the wedge", tc.name, notes)
		}
		if left, _ := os.ReadDir(dataDirs); len(left) > 0 {
			t.Errorf("%s: %d leg data dirs left behind, the abandoned leg's among them", tc.name, len(left))
		}
		o.gate = 1.0
		if err := runAB(spec, o); err == nil {
			t.Errorf("%s: gate passed on a ratio with a wedged leg", tc.name)
		}
	}
}

// TestABViolationFailsRun: an invariant violation or a request error in
// any leg — of any round, not just the best — fails the run even when
// the gate passes, and lands in the report's notes.
func TestABViolationFailsRun(t *testing.T) {
	for _, bad := range []*genResult{
		{ops: 1, wall: time.Second, violations: []string{"ledger total off by one"}},
		{ops: 1, wall: time.Second, errs: 3},
	} {
		calls := 0
		flaky := leg{label: "flaky", load: func(*legEnv, *abOpts) (*genResult, error) {
			calls++
			if calls == 1 {
				return bad, nil // the slowest round, so never the best
			}
			return &genResult{ops: 500, wall: time.Second}, nil
		}}
		spec := &abSpec{
			name: "t", report: "loadgen-%s-t", rounds: 2,
			legs:   []leg{fakeLeg("base", 100), flaky},
			ratios: []ratio{{"r_ratio", "flaky", []string{"base"}}},
		}
		o := fakeOpts(t, 2.0)
		if err := runAB(spec, o); err == nil {
			t.Fatal("a violating leg did not fail the run")
		}
		rep := readReport(t, o.jsonDir, "BENCH_loadgen-counter-t.json")
		if rep.Metrics["r_ratio"] != 5 {
			t.Errorf("ratio = %v, want 5 (the gate itself passes)", rep.Metrics["r_ratio"])
		}
		notes := strings.Join(rep.Notes, "\n")
		if strings.Contains(notes, "invariants ok") {
			t.Errorf("notes %q claim the invariants held", notes)
		}
		if len(bad.violations) > 0 && !strings.Contains(notes, "flaky: "+bad.violations[0]) {
			t.Errorf("notes %q do not carry the violation", notes)
		}
	}
}

// abGolden pins, per mode, what CI and BENCH_baseline.json depend on (the
// report file name and the headline key pnstm-benchgate reads) and the
// server.Config every leg boots, field for field, under goldenOpts.
var abGolden = []struct {
	mode, workload string
	fsync          bool // -fsync, which only the group mode reads
	file, headline string
	lower          bool
	legs           map[string]server.Config
}{
	{"group", "readmap", false, "BENCH_loadgen-readmap-compare.json", "speedup_ratio", false, map[string]server.Config{
		"serial":  {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 1, Serial: true, Registry: goldenReg},
		"batched": {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg},
	}},
	{"group", "txmix", true, "BENCH_loadgen-txmix-compare.json", "speedup_ratio", false, map[string]server.Config{
		"serial":  {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 1, Serial: true, Registry: goldenReg, Fsync: true, WALSyncDelay: 2 * time.Millisecond},
		"batched": {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg, Fsync: true, WALSyncDelay: 2 * time.Millisecond},
	}},
	{"persist", "counter", false, "BENCH_loadgen-counter-persist.json", "durable_retained_ratio", false, map[string]server.Config{
		"memory":  {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg},
		"nofsync": {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg},
		"fsync":   {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg, Fsync: true},
	}},
	{"trace", "mixed", false, "BENCH_loadgen-mixed-traceab.json", "tracing_overhead_ratio", true, map[string]server.Config{
		"untraced": {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg, DisableTracing: true},
		"traced":   {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg},
	}},
	{"shards", "queue", false, "BENCH_loadgen-queue-shards.json", "shard_speedup_ratio", false, map[string]server.Config{
		"single":  {Addr: "127.0.0.1:0", Shards: 1, Workers: 8, MaxBatch: 64, Registry: goldenReg, Fsync: true, WALSyncDelay: 2 * time.Millisecond},
		"sharded": {Addr: "127.0.0.1:0", Shards: 4, Workers: 8, MaxBatch: 64, Registry: goldenReg, Fsync: true, WALSyncDelay: 2 * time.Millisecond},
	}},
	{"replica", "mixed", false, "BENCH_loadgen-replica-ab.json", "replica_read_speedup_ratio", false, map[string]server.Config{
		"primary": {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg, Fsync: true, WALSyncDelay: 2 * time.Millisecond},
		"replica": {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg, Fsync: true, WALSyncDelay: 2 * time.Millisecond},
	}},
	{"rangescan", "mixed", false, "BENCH_loadgen-rangescan-ab.json", "rangescan_speedup_ratio", false, map[string]server.Config{
		"serial":   {Addr: "127.0.0.1:0", Workers: 1, MaxBatch: 1, Serial: true, Registry: goldenReg, Fsync: true, WALSyncDelay: 2 * time.Millisecond},
		"parallel": {Addr: "127.0.0.1:0", Workers: 8, MaxBatch: 64, Registry: goldenReg, Fsync: true, WALSyncDelay: 2 * time.Millisecond},
	}},
}

var goldenReg = stmlib.RegistryConfig{MapBuckets: 128}

func goldenOpts(t *testing.T, workload string, fsync bool) abOpts {
	cfg := testCfg(t, workload)
	cfg.keys, cfg.duration = 32, 100*time.Millisecond
	return abOpts{cfg: cfg, workers: 8, maxBatch: 64, shards: 4, fsync: fsync, syncDelay: 2 * time.Millisecond, boot: bootLeg}
}

// TestABGolden runs every mode of the table end to end (embedded servers,
// 100 ms legs) and checks it against abGolden; then that the table and
// the golden list cover each other, and that every ratio
// BENCH_baseline.json holds a floor or ceiling for is still produced.
func TestABGolden(t *testing.T) {
	produced := make(map[string]bool)
	for _, m := range abModes {
		for _, r := range m.ratios {
			produced[r.key] = true
		}
	}
	pinned := make(map[string]bool)
	for _, g := range abGolden {
		pinned[g.mode] = true
	}
	for _, m := range abModes {
		if !pinned[m.name] {
			t.Errorf("mode %q is in the table but not pinned here", m.name)
		}
	}
	for _, g := range abGolden {
		t.Run(g.mode+"-"+g.workload, func(t *testing.T) {
			t.Parallel()
			spec, err := findAB(g.mode)
			if err != nil {
				t.Fatal(err)
			}
			if spec.ratios[0].key != g.headline || spec.lower != g.lower {
				t.Errorf("headline %s (lower=%v), want %s (lower=%v)", spec.ratios[0].key, spec.lower, g.headline, g.lower)
			}
			o := goldenOpts(t, g.workload, g.fsync)
			if spec.prep != nil {
				if err := spec.prep(&o); err != nil {
					t.Fatal(err)
				}
			}
			if len(spec.legs) != len(g.legs) {
				t.Errorf("%d legs, want %d", len(spec.legs), len(g.legs))
			}
			for i := range spec.legs {
				l := &spec.legs[i]
				if got, want := l.config(&o), g.legs[l.label]; !reflect.DeepEqual(got, want) {
					t.Errorf("leg %q boots\n %+v\nwant\n %+v", l.label, got, want)
				}
			}
			o.jsonDir = t.TempDir()
			if err := runAB(spec, o); err != nil {
				t.Fatal(err)
			}
			rep := readReport(t, o.jsonDir, g.file)
			if _, ok := rep.Metrics[g.headline]; !ok {
				t.Errorf("%s has no %s", g.file, g.headline)
			}
			for _, l := range spec.legs {
				if rep.Metrics[l.label+"_ops"] == 0 {
					t.Errorf("leg %q completed no ops", l.label)
				}
			}
		})
	}

	var baseline bench.Report
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	for key := range baseline.Metrics {
		if !strings.HasSuffix(key, "_ratio") {
			continue
		}
		// CI gates a per-workload floor as -metric speedup_ratio=txmix_speedup_ratio.
		ok := produced[key]
		for _, w := range workloads {
			ok = ok || produced[strings.TrimPrefix(key, w.name+"_")]
		}
		if !ok {
			t.Errorf("BENCH_baseline.json gates %q, which no -ab mode produces", key)
		}
	}
}

// TestFlagSurface is the flag census (the TestConfigSurface pattern): a
// flag added or removed has to change this list, and argue for it.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"ab", "addr", "comparebatch", "concurrency", "conns", "data-dir", "duration", "fsync",
		"gate", "json", "keys", "kill-after", "name", "queues", "rate", "readfrac",
		"recovery-check", "seed", "shards", "skus", "stock", "syncdelay", "workers", "workload",
	}
	var got []string
	newFlags(&options{}, os.Stderr).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags\n %v\nwant\n %v", got, want)
	}
}

// TestCommandLineRefusals: what the flag fold made impossible stays
// impossible — an unknown or retired mode, a gate with nothing to judge,
// a retired workload and each of the twelve retired flags exit 2, the
// mode refusals listing the modes.
func TestCommandLineRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-ab", "nope"},
		{"-ab", "adaptive"}, // retired with the controller it tuned
		{"-gate", "1.2"},
	} {
		var stderr strings.Builder
		if code := run(args, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		for _, m := range abModes {
			if !strings.Contains(stderr.String(), m.name) {
				t.Errorf("%v: stderr %q does not list mode %q", args, stderr.String(), m.name)
			}
		}
	}
	for _, retired := range []string{
		"-compare", "-persist", "-adaptive", "-trace-ab", "-replica-ab", "-rangescan-ab",
		"-min-speedup=1", "-min-shard-speedup=1", "-min-adaptive-ratio=1",
		"-max-trace-overhead=1", "-min-replica-speedup=1", "-min-rangescan-speedup=1",
	} {
		var stderr strings.Builder
		if code := run([]string{retired}, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (flag retired, no alias)", retired, code)
		}
	}
	var stderr strings.Builder
	if code := run([]string{"-ab", "shards", "-shards", "1"}, &stderr); code != 2 {
		t.Errorf("-ab shards with one shard on both sides: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-workload", "phases"}, &stderr); code != 2 || !strings.Contains(stderr.String(), "phases") {
		t.Errorf("-workload phases (retired): exit %d, stderr %q; want 2 naming it", code, stderr.String())
	}
}
