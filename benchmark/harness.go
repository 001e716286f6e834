package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sizes is how much work one repetition does. Everything is a count.
type sizes struct {
	lanes    int // closed-loop callers (1 on core-nest)
	poolSize int // client connections
	measured int // measured ops, a multiple of lanes
	warm     int // warm-up ops (10% of measured), a multiple of lanes
	rungs    int // calls per ladder rung in the traced run
}

// sizesFor turns --seconds into fixed op counts: the workload's frozen N
// at the contract's run length, scaled linearly for another --seconds.
func sizesFor(w workloadDef, seconds int, smoke bool) sizes {
	sz := sizes{lanes: callers, poolSize: runtime.NumCPU(), rungs: 2000}
	if !w.Wire {
		sz.lanes, sz.poolSize = 1, 0
	}
	n := w.N * seconds / runSeconds
	if smoke {
		n, sz.rungs = 64*sz.lanes, 50
	}
	perLane := max(n/sz.lanes, 10)
	sz.measured = perLane * sz.lanes
	sz.warm = perLane / 10 * sz.lanes
	return sz
}

// phase is one driven stretch of operations and what the harness saw.
type phase struct {
	wall, cpu time.Duration
	failed    int64
	lat       []int64         // per-op latency in ns, in completion order
	marks     []time.Duration // time from the start to the at[i]-th completion
	mem       runtime.MemStats
	memEnd    runtime.MemStats
}

// runPhase drives every lane's ops through st from one goroutine per lane,
// each a closed loop: the next op is sent when the previous one returned.
// Latencies land in lat (one slot per op); marks[i] is when the at[i]-th
// op completed. With tracers non-nil (one per lane) every call is also
// recorded as a client span.
func runPhase(st store, lanes [][]op, lat []int64, at []int64, tracers []*tracer) phase {
	perLane := len(lanes[0])
	total := perLane * len(lanes)
	p := phase{lat: lat[:total], marks: make([]time.Duration, len(at))}
	failed := make([]int64, len(lanes))
	var done atomic.Int64
	var wg sync.WaitGroup
	runtime.ReadMemStats(&p.mem)
	cpu0 := cpuTime()
	start := time.Now()
	for l := range lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			var bad int64
			for i, o := range lanes[l] {
				t0 := time.Now()
				ok := st.do(l, o)
				t1 := time.Now()
				n := done.Add(1)
				p.lat[n-1] = int64(t1.Sub(t0))
				for k, a := range at {
					if n == a {
						p.marks[k] = t1.Sub(start)
					}
				}
				if !ok {
					bad++
				}
				if tracers != nil {
					tracers[l].add(int64(l*perLane+i), "client", opName(o.Kind), t0, t1)
				}
			}
			failed[l] = bad
		}(l)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&p.memEnd)
	for _, f := range failed {
		p.failed += f
	}
	return p
}

// timedMetrics renders one measured phase as the time metrics seen at the
// caller. It sorts p.lat.
func timedMetrics(m map[string]float64, p phase) {
	n := float64(len(p.lat))
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	m["e2e.throughput_ops_s"] = n / p.wall.Seconds()
	m["e2e.p50_ms"] = medianInt64(p.lat) / 1e6
	m["e2e.cpu_us_per_op"] = float64(p.cpu) / 1e3 / n
	m["client.p99_ms"], m["client.p999_ms"] = 0, 0
	if v, ok := percentile(p.lat, 0.99); ok {
		m["client.p99_ms"] = float64(v) / 1e6
	}
	if v, ok := percentile(p.lat, 0.999); ok {
		m["client.p999_ms"] = float64(v) / 1e6
	}
	m["client.max_ms"] = float64(p.lat[len(p.lat)-1]) / 1e6
	m["client.samples"] = n
}

// repetition is what one repetition measured: every metric it can know
// alone (by name), and what the result line and the traced run need.
type repetition struct {
	metrics   map[string]float64
	headWall  time.Duration // time the first `head` measured ops took
	attempted int64
	failed    int64
}

// traceOps bounds the traced wire pass, which replays at most the first
// traceOps ops of the stream.
const traceOps = 20000

func newStore(w workloadDef, d *dataset, sz sizes) (store, error) {
	if !w.Wire {
		return newCoreStore()
	}
	return newWireStore(w, d, sz.lanes, sz.poolSize)
}

// wireTrace is what the traced wire pass records: a client span per call
// (one tracer per lane) and the public counters every sampleEvery, all on
// one timeline.
type wireTrace struct {
	t0      time.Time
	tracers []*tracer
	counts  []countEvent
	// afterFinish, when set, runs after the end-of-repetition checks and
	// before the data directory is removed (the wal ladder reads the log).
	afterFinish func(dataDir string) error
}

const sampleEvery = 100 * time.Millisecond

// sample appends counter snapshots until stop closes.
func (wt *wireTrace) sample(st store, stop <-chan struct{}) {
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			wt.counts = append(wt.counts, countEvent{T: int64(time.Since(wt.t0)), Counts: st.counters().counts()})
		}
	}
}

// runRepetition builds a fresh store, preloads and warms it (all of that
// is the repetition's set-up time), measures the fixed op count, then
// checks and tears down. head is the op count whose completion time the
// traced run compares itself with. wt is nil on an untraced repetition.
func runRepetition(w workloadDef, d *dataset, sz sizes, warm, measured [][]op, head int, wt *wireTrace) (repetition, error) {
	runtime.GC()
	debug.FreeOSMemory()
	total := len(measured) * len(measured[0])
	lat := make([]int64, max(total, len(warm)*len(warm[0])))

	t0 := time.Now()
	st, err := newStore(w, d, sz)
	if err != nil {
		return repetition{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer st.cleanup()
	wp := runPhase(st, warm, lat, nil, nil)
	setup := time.Since(t0)

	// Marks: the first and the last fifth of the ops (drift), and head.
	fifth := max(total/5, 1)
	at := []int64{int64(fifth), int64(total - fifth), int64(head)}
	before := st.counters()
	var p phase
	if wt == nil {
		p = runPhase(st, measured, lat, at, nil)
	} else {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			wt.sample(st, stop)
		}()
		p = runPhase(st, measured, lat, at, wt.tracers)
		close(stop)
		<-done
	}
	after := st.counters()

	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	checkFailed, extra, err := st.finish()
	if err != nil {
		return repetition{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	if dir := st.dataDir(); dir != "" && wt != nil && wt.afterFinish != nil {
		if err := wt.afterFinish(dir); err != nil {
			return repetition{}, err
		}
	}

	m := extra
	if m == nil {
		m = make(map[string]float64)
	}
	rep := repetition{
		metrics:   m,
		headWall:  p.marks[2],
		attempted: int64(len(p.lat) + len(wp.lat)),
		failed:    p.failed + wp.failed + checkFailed,
	}
	n := float64(total)
	m["setup_s"] = setup.Seconds()
	timedMetrics(m, p)
	// Throughput of the last fifth of the ops over the first fifth's: below
	// 1 when the store slows down as it ages.
	m["bench.drift_ratio"] = ratio(float64(p.marks[0]), float64(p.wall-p.marks[1]))
	m["allocs_per_op"] = float64(p.memEnd.Mallocs-p.mem.Mallocs) / n
	m["go.gc_cycles"] = float64(p.memEnd.NumGC - p.mem.NumGC)
	m["go.gc_pause_ms"] = float64(p.memEnd.PauseTotalNs-p.mem.PauseTotalNs) / 1e6
	m["go.heap_live_mb"] = float64(live.HeapAlloc) / (1 << 20)
	m["go.alloc_bytes_per_op"] = float64(p.memEnd.TotalAlloc-p.mem.TotalAlloc) / n
	layerCounts(m, before, after, n, userBytes(measured))
	return rep, nil
}

// layerCounts derives the count-based layer metrics from two snapshots of
// the public counters around the measured phase.
func layerCounts(m map[string]float64, before, after counters, n, userBytes float64) {
	rt := after.rt.Sub(before.rt)
	f := func(v uint64) float64 { return float64(v) }
	m["core.begun_per_op"] = f(rt.Begun) / n
	m["core.abort_ratio"] = ratio(f(rt.Aborted), f(rt.Begun))
	m["core.conflicts_per_op"] = f(rt.Conflicts) / n
	m["core.spin_save_ratio"] = ratio(f(rt.SpinSaves), f(rt.Conflicts))
	m["core.escalations_per_op"] = f(rt.Escalations) / n
	m["core.crises"] = f(rt.Crises)
	m["core.serialized_fork_ratio"] = ratio(f(rt.SerializedFork),
		f(rt.Dispatches+rt.BorrowDispatch+rt.InlineChildren+rt.SerializedFork))
	m["core.inline_children_per_op"] = f(rt.InlineChildren) / n
	m["core.slot_yields_per_op"] = f(rt.SlotYields) / n
	m["core.help_publishes_per_op"] = f(rt.HelpPublishes) / n
	m["core.peak_parents"] = f(rt.PeakParents)

	batches, requests := f(after.batches-before.batches), f(after.requests-before.requests)
	m["server.mean_batch"] = ratio(requests, batches)
	m["server.largest_batch"] = f(after.largestBatch)
	m["server.batches_per_kop"] = batches / n * 1000

	walBytes := f(after.walBytes - before.walBytes)
	m["wal.appends_per_kop"] = f(after.walAppends-before.walAppends) / n * 1000
	m["wal.syncs_per_kop"] = f(after.walSyncs-before.walSyncs) / n * 1000
	m["wal.bytes_per_op"] = walBytes / n
	m["wal.write_amp"] = ratio(walBytes, userBytes)
}

// userBytes is the payload a user handed the store in the mutating ops of
// a stream: key and value bytes, 8 bytes per integer delta. Structure
// names and framing are the system's, not the user's.
func userBytes(lanes [][]op) float64 {
	var total int
	for _, ops := range lanes {
		for _, o := range ops {
			switch o.Kind {
			case opPut, opSortedPut:
				total += keyNameLen + valueLen
			case opTransfer:
				total += 2*(acctNameLen+8) + 8
			}
		}
	}
	return float64(total)
}
