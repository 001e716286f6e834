package server

import (
	"bytes"
	"fmt"
	"testing"

	"pnstm"
	"pnstm/internal/alloctest"
	"pnstm/internal/wal"
	"pnstm/stmlib"
)

// execHarness is the rung between stmlib and the loopback wire: a shard's
// runtime, registry and batch run with no loop, no socket and no reply
// route, so one run is exactly one batch root executing its requests
// through the real executor. With durable set the shard and its run hold
// a WAL, so every request that can mutate rides the commit-ticket wrapper
// transaction the way it does on a durable shard; nothing is appended
// unless the caller asks (logBatch).
type execHarness struct {
	b *shard
	r *batchRun
}

func newExecHarness(tb testing.TB, durable bool, tune ...func(*pnstm.Config)) *execHarness {
	tb.Helper()
	cfg := pnstm.Config{Workers: 8, SharedReads: true}
	for _, f := range tune {
		f(&cfg)
	}
	rt, err := pnstm.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	b := &shard{rt: rt, reg: stmlib.NewRegistry(stmlib.RegistryConfig{})}
	if durable {
		wl, err := wal.Open(wal.Options{Dir: tb.TempDir()})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { wl.Close() })
		b.wal = wl
	}
	r := newBatchRun(b.reg, b.wal)
	return &execHarness{b: b, r: r}
}

// run executes ps as one batch root, envelopes in result slots carved
// the way runBatch carves them, and leaves each response in its pending.
func (h *execHarness) run(tb testing.TB, ps ...*pending) {
	h.r.batch = append(h.r.batch[:0], ps...)
	h.r.carveResults()
	h.r.seq.Store(0)
	if err := h.b.rt.Run(h.r.root); err != nil {
		tb.Fatal(err)
	}
}

// do runs one request alone and returns its response.
func (h *execHarness) do(tb testing.TB, req Request) Response {
	p := &pending{req: req}
	h.run(tb, p)
	return p.resp
}

func txReq(ops ...TxOp) Request { return Request{Op: OpTx, Tx: &Tx{Ops: ops}} }

// execWorkloads are the request shapes the executor ceilings and
// benchmarks share, each prepared against h and returned as a pending to
// run over and over: the benchmark's point read and write, txn-durable's
// transfer envelope, scan-mem's limit-64 scan and the preload's 64-op
// put envelope (one map, 64 keys: the planner forks it into 8 chains).
func execWorkloads(tb testing.TB, h *execHarness) map[string]*pending {
	val := bytes.Repeat([]byte{0x5a}, 64)
	key := func(i int) string { return fmt.Sprintf("k%07d", i) }
	for base := 0; base < 1024; base += 64 {
		ops := make([]TxOp, 64)
		for i := range ops {
			ops[i] = TxOp{Op: OpSortedPut, Name: "lb", Key: key(base + i), Value: val}
		}
		if resp := h.do(tb, txReq(ops...)); resp.Status != StatusOK {
			tb.Fatalf("preload: %+v", resp)
		}
	}
	// The benchmark's occupancy: 4,096 accounts and 16,384 keys over the
	// default 64 buckets, 64 and 256 entries per bucket, so a write pays
	// for copying a full bucket.
	preloadMap := func(name string, n int, key func(int) string, v []byte) {
		for base := 0; base < n; base += 64 {
			ops := make([]TxOp, 64)
			for i := range ops {
				ops[i] = TxOp{Op: OpMapPut, Name: name, Key: key(base + i), Value: v}
			}
			if resp := h.do(tb, txReq(ops...)); resp.Status != StatusOK {
				tb.Fatalf("preload %s: %+v", name, resp)
			}
		}
	}
	preloadMap("acct", 4096, func(i int) string { return fmt.Sprintf("a%04d", i) }, EncodeInt64(1<<40))
	preloadMap("kv", 16384, func(i int) string { return fmt.Sprintf("key-%06d", i) }, val)
	// Every stripe of the counter starts past the runtime's preallocated
	// small integers: a boxed stripe value is then a heap object per add.
	adds := make([]TxOp, 64)
	for i := range adds {
		adds[i] = TxOp{Op: OpCounterAdd, Name: "transfers", Delta: 1 << 20}
	}
	if resp := h.do(tb, txReq(adds...)); resp.Status != StatusOK {
		tb.Fatalf("preload: %+v", resp)
	}
	puts := make([]TxOp, 64)
	for i := range puts {
		puts[i] = TxOp{Op: OpMapPut, Name: "bulk", Key: key(i), Value: val}
	}
	reqs := map[string]Request{
		"MapGet":     {Op: OpMapGet, Name: "kv", Key: "key-000042"},
		"MapPut":     {Op: OpMapPut, Name: "kv", Key: "key-000042", Value: val},
		"CounterAdd": {Op: OpCounterAdd, Name: "transfers", Delta: 1},
		"Transfer4": txReq(
			TxOp{Op: OpAssertGE, Name: "acct", Key: "a0001", Delta: 1},
			TxOp{Op: OpMapAdd, Name: "acct", Key: "a0001", Delta: -1},
			TxOp{Op: OpMapAdd, Name: "acct", Key: "a0002", Delta: 1},
			TxOp{Op: OpCounterAdd, Name: "transfers", Delta: 1}),
		"RangeScan64": txReq(TxOp{Op: OpRangeScan, Name: "lb", Key: key(400), Value: []byte(key(656)), Delta: 64}),
		"Put64":       txReq(puts...),
	}
	out := make(map[string]*pending, len(reqs))
	for name, req := range reqs {
		out[name] = &pending{req: req}
	}
	return out
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestExecutorAllocCeilings pins the heap objects of one request through
// the executor inside one batch root — Runtime.Run and the batch root's
// own objects included, the wire, the batcher's loop and the WAL append
// (TestLogBatchAllocCeiling) excluded — on a memory shard and on a
// durable-shaped one (the ticket wrapper). The table, the by-value exec
// and the one envelope executor were refactored under these rows and must
// not give an object back. The counter rows need the counter past 255 per
// stripe, as execWorkloads preloads it, to see a boxed integer at all; the
// map write rows need full buckets, as it preloads them, to see the
// bucket copy at its real size.
func TestExecutorAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("exact ceilings; the race detector adds objects of its own")
	}
	ceilings := []struct {
		name            string
		memory, durable float64
	}{
		// As read, every run, with pooled fork frames and reused descriptors
		// (D53), each root published before the next, and blocks run on
		// recycled workers (D2): before those, every row read one more per
		// dispatched block (its goroutine's closure), two more per root
		// (Run's channel) and one more per fork and per root (its frame).
		// A bucket's slice travels unboxed in its variable (D52) and a
		// counter add runs no closure: the first older pair of each write
		// row is what it read while the slice header was boxed and the
		// stripe's increment was an Update closure. Every nested descriptor
		// comes off its context's spare list, which the pooled frame carries
		// from root to root: the next older pair is what a row read while
		// only one descriptor was kept. An envelope of up to 16 ops takes its
		// result slots from the run's slab (batchRun.carveResults); Put64's
		// 64 get a list of their own.
		{"MapGet", 0, 0},      // 1, 1
		{"MapPut", 1, 1},      // 2, 2; 3, 4; 9, 10 while a bucket was a Go map rebuilt per write (D57)
		{"CounterAdd", 0, 0},  // 1, 1; 2, 3; one more while a stripe's int64 was boxed (D52)
		{"Transfer4", 4, 4},   // 5, 5 while an envelope's results were a list of their own; 8, 8; 10, 11; 18, 19 with Go-map buckets: two writes
		{"RangeScan64", 2, 2}, // 3, 3 likewise; 6, 6; 15, 15 while its first wave forked (D49)
		{"Put64", 79, 79},     // 143, 143; 143, 144; 152, 153 with a nested transaction per chain; 136, 137 while it ran as one chain
	}
	// Read exactly, a row is its whole objects plus up to 0.08 more: an
	// undo chunk, a grown stack or a frame remade after a collection
	// emptied the pools, on a few of the 200 runs (alloctest.Slack).
	for _, durable := range []bool{false, true} {
		h := newExecHarness(t, durable)
		work := execWorkloads(t, h)
		for _, c := range ceilings {
			p, ceiling, shape := work[c.name], c.memory, "memory"
			if durable {
				ceiling, shape = c.durable, "durable"
			}
			h.run(t, p) // warm: structures, pools, the run's batch slice
			got := alloctest.Exact(200, func() {
				// Publish the previous root first. A write that meets its
				// entry unpublished spins out, aborts and backs off, and the
				// backoff's first sleep allocates the goroutine's timer: one
				// more object on some runs, depending on whether the
				// publisher got there in between.
				h.b.rt.Publisher().Drain()
				h.run(t, p)
			})
			if p.resp.Status != StatusOK {
				t.Fatalf("%s/%s: %+v", shape, c.name, p.resp)
			}
			t.Logf("%s/%s: %.3f allocs/op", shape, c.name, got)
			if got > ceiling+alloctest.Slack {
				t.Errorf("%s/%s: %.3f allocs/op, ceiling %.0f and %.2f slack", shape, c.name, got, ceiling, alloctest.Slack)
			}
		}
	}
}

// BenchmarkExecutorPoint is the executor rung's point read: the body of
// TestExecutorAllocCeilings' MapGet on a memory shard.
func BenchmarkExecutorPoint(b *testing.B) {
	h := newExecHarness(b, false)
	p := execWorkloads(b, h)["MapGet"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.run(b, p)
	}
	if !p.resp.Found {
		b.Fatalf("MapGet = %+v", p.resp)
	}
}

// BenchmarkExecutorEnvelope4 is the executor rung's transfer envelope on
// a durable-shaped shard: the body of the Transfer4 ceiling.
func BenchmarkExecutorEnvelope4(b *testing.B) {
	h := newExecHarness(b, true)
	p := execWorkloads(b, h)["Transfer4"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.run(b, p)
	}
	if p.resp.Status != StatusOK {
		b.Fatalf("transfer = %+v", p.resp)
	}
}
