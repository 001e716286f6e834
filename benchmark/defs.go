package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median by which an end-to-end
// metric may worsen before a change counts as a regression (per-layer
// metrics carry none).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees and this box can resolve,
// the same names on every workload (README.md, "End-to-end metrics",
// argues each line).
//
// Throughput, median latency and CPU time per op are not here: same-code
// runs on this shared 2-vCPU box spread by 7 to 25% in them, and the issue
// demotes what cannot hold a 10% bound; they are the e2e.* per-layer
// metrics. setup_s is as noisy, but the manifest must have it, so it takes
// the widest bound the manifest allows. allocs_per_op is 5%, not the
// issue's 3%, because core-nest's aborts, and so its allocations, depend
// on timing (spread 1.5 to 3.1%). ok_frac is 1 - failed_frac: bounds are
// shares of the parent's median and a metric must never read 0, so the
// issue's "failed_frac, +0.001 absolute, expected 0" is carried as its
// complement, whose relative bound of 0.001 is the same absolute one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"ok_frac", "fraction", "higher", 0.001},
}

// perLayer lists every from-outside layer metric. All of them are
// printed on every workload; one that the workload does not exercise
// (wal.* on a memory-only server, server.* on core-nest) reads 0.
var perLayer = []metricDef{
	// The end-to-end time metrics, demoted: measured at the caller over
	// the measured phase, median of the repetitions like everything else.
	{Name: "e2e.throughput_ops_s", Unit: "ops/s", Better: "higher"},
	{Name: "e2e.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.cpu_us_per_op", Unit: "us", Better: "lower"},

	// internal/core + internal/epoch: pnstm.Stats deltas over the
	// measured phase, then the ladder rungs.
	{Name: "core.begun_per_op", Unit: "count", Better: "lower"},
	{Name: "core.abort_ratio", Unit: "fraction", Better: "lower"},
	{Name: "core.conflicts_per_op", Unit: "count", Better: "lower"},
	{Name: "core.spin_save_ratio", Unit: "fraction", Better: "higher"},
	{Name: "core.escalations_per_op", Unit: "count", Better: "lower"},
	{Name: "core.crises", Unit: "count", Better: "lower"},
	{Name: "core.serialized_fork_ratio", Unit: "fraction", Better: "lower"},
	{Name: "core.inline_children_per_op", Unit: "count", Better: "lower"},
	{Name: "core.slot_yields_per_op", Unit: "count", Better: "lower"},
	{Name: "core.help_publishes_per_op", Unit: "count", Better: "lower"},
	{Name: "core.peak_parents", Unit: "count", Better: "lower"},
	{Name: "core.root_empty_ns", Unit: "ns", Better: "lower"},
	{Name: "core.fork_join_ns", Unit: "ns", Better: "lower"},
	{Name: "core.atomic_nested_ns", Unit: "ns", Better: "lower"},
	{Name: "core.store_ns", Unit: "ns", Better: "lower"},
	{Name: "core.load_ns", Unit: "ns", Better: "lower"},
	{Name: "core.root_allocs", Unit: "count", Better: "lower"},

	// stmlib: one root transaction per call on a Registry sized as the
	// server sizes it.
	{Name: "stmlib.map_get_ns", Unit: "ns", Better: "lower"},
	{Name: "stmlib.map_get_allocs", Unit: "count", Better: "lower"},
	{Name: "stmlib.map_put_ns", Unit: "ns", Better: "lower"},
	{Name: "stmlib.map_put_allocs", Unit: "count", Better: "lower"},
	{Name: "stmlib.map_add_ns", Unit: "ns", Better: "lower"},
	{Name: "stmlib.map_add_allocs", Unit: "count", Better: "lower"},
	{Name: "stmlib.counter_add_ns", Unit: "ns", Better: "lower"},
	{Name: "stmlib.counter_add_allocs", Unit: "count", Better: "lower"},
	{Name: "stmlib.sorted_put_ns", Unit: "ns", Better: "lower"},
	{Name: "stmlib.sorted_put_allocs", Unit: "count", Better: "lower"},
	{Name: "stmlib.sorted_scan_ns", Unit: "ns", Better: "lower"},
	{Name: "stmlib.sorted_scan_allocs", Unit: "count", Better: "lower"},

	// server: batcher, protocol codec, persist.
	{Name: "server.mean_batch", Unit: "count", Better: "higher"},
	{Name: "server.largest_batch", Unit: "count", Better: "higher"},
	{Name: "server.batches_per_kop", Unit: "count", Better: "lower"},
	{Name: "server.req_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.req_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.runtime_abort_ratio", Unit: "fraction", Better: "lower"},
	{Name: "server.recover_s", Unit: "s", Better: "lower"},
	{Name: "server.codec_req_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "server.codec_req_parse_ns", Unit: "ns", Better: "lower"},
	{Name: "server.codec_resp_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "server.codec_resp_parse_ns", Unit: "ns", Better: "lower"},
	{Name: "server.codec_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.frame_bytes_req", Unit: "B", Better: "lower"},
	{Name: "server.frame_bytes_resp", Unit: "B", Better: "lower"},
	{Name: "server.batcher_residual_us", Unit: "us", Better: "lower"},

	// internal/wal.
	{Name: "wal.appends_per_kop", Unit: "count", Better: "lower"},
	{Name: "wal.syncs_per_kop", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "wal.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.replay_rec_s", Unit: "1/s", Better: "higher"},

	// client.
	{Name: "client.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.p999_ms", Unit: "ms", Better: "lower"},
	{Name: "client.max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.rtt_unloaded_us", Unit: "us", Better: "lower"},
	{Name: "client.wire_residual_us", Unit: "us", Better: "lower"},

	// process and harness.
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "bench.drift_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.rep_spread", Unit: "fraction", Better: "lower"},
	{Name: "bench.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "bench.failed_frac", Unit: "fraction", Better: "lower"},
	{Name: "env.loadavg_1m", Unit: "count", Better: "lower"},
	{Name: "env.nproc", Unit: "count", Better: "higher"},
}

// runSeconds is BENCHMARK.json's run_seconds, the --seconds the driver
// passes: the measured time one run is sized for, reps repetitions of
// runSeconds/reps seconds each.
const (
	runSeconds = 24
	reps       = 3
	callers    = 16 // closed-loop caller goroutines on the wire workloads
)

// workloadDef names one workload. N is the frozen calibration: the ops
// one repetition measures at --seconds runSeconds, a fixed count and never
// a duration (README.md, "Frozen sizes"); another --seconds scales it
// linearly.
type workloadDef struct {
	Name    string
	Why     string
	N       int
	Wire    bool   // a server driven over loopback (core-nest: a bare runtime)
	Durable bool   // the server has a data directory and fsyncs
	Class   string // the server-side latency class the ops land in
	// LibCalls is the stmlib ladder rungs one request executes, with how
	// many of each (a mix's shares), for server.batcher_residual_us.
	LibCalls map[string]float64
}

var workloads = []workloadDef{
	{
		Name: "core-nest",
		Why:  "paper sec. 7 synthetic, no server: all time in internal/core + epoch; a wire or WAL change must not move it",
		N:    4800,
	},
	{
		Name:     "point-mem",
		Why:      "tiny 90/10 get/put ops on a memory server: client, codec, batcher and the shared-read path dominate",
		N:        360_000,
		Wire:     true,
		Class:    "point",
		LibCalls: map[string]float64{"stmlib.map_get_ns": 0.9, "stmlib.map_put_ns": 0.1},
	},
	{
		Name:     "txn-durable",
		Why:      "4-op transfer envelopes with real fsync: WAL, persist codec and group commit dominate; writes beside point-mem's reads",
		N:        52_000,
		Wire:     true,
		Durable:  true,
		Class:    "tx",
		LibCalls: map[string]float64{"stmlib.map_get_ns": 1, "stmlib.map_add_ns": 2, "stmlib.counter_add_ns": 1},
	},
	{
		Name:     "scan-mem",
		Why:      "70/30 range scans/puts on a sorted map: stmlib and nested fork/join dominate, replies are ~5 KB not ~80 B",
		N:        64_000,
		Wire:     true,
		Class:    "tx",
		LibCalls: map[string]float64{"stmlib.sorted_scan_ns": 0.7, "stmlib.sorted_put_ns": 0.3},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
