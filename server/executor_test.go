package server

import (
	"bytes"
	"fmt"
	"testing"

	"pnstm"
	"pnstm/internal/wal"
	"pnstm/stmlib"
)

// execHarness is the rung between stmlib and the loopback wire: a shard's
// runtime, registry and batcher with no loop, no socket and no reply
// route, so one run is exactly one batch root executing its requests
// through the real executor. With durable set the batcher holds a WAL, so
// every request that can mutate rides the commit-ticket wrapper
// transaction the way it does on a durable shard; nothing is appended
// unless the caller asks (logBatch).
type execHarness struct {
	b *batcher
	r *batchRun
}

func newExecHarness(tb testing.TB, durable bool) *execHarness {
	tb.Helper()
	rt, err := pnstm.New(pnstm.Config{Workers: 8, SharedReads: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	b := &batcher{rt: rt, reg: stmlib.NewRegistry(stmlib.RegistryConfig{})}
	if durable {
		wl, err := wal.Open(wal.Options{Dir: tb.TempDir()})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { wl.Close() })
		b.wal = wl
	}
	r := b.newRun()
	r.cfg = &Config{MaxBatch: 64, BatchFanout: 8}
	return &execHarness{b: b, r: r}
}

// run executes ps as one batch root and leaves each response in its
// pending.
func (h *execHarness) run(tb testing.TB, ps ...*pending) {
	h.r.batch = append(h.r.batch[:0], ps...)
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
// put envelope (the fan-out path's size, one structure).
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
	for _, acct := range []string{"a", "b"} {
		if resp := h.do(tb, Request{Op: OpMapPut, Name: "acct", Key: acct, Value: EncodeInt64(1 << 40)}); resp.Status != StatusOK {
			tb.Fatalf("preload: %+v", resp)
		}
	}
	if resp := h.do(tb, Request{Op: OpMapPut, Name: "kv", Key: "key-000042", Value: val}); resp.Status != StatusOK {
		tb.Fatalf("preload: %+v", resp)
	}
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
			TxOp{Op: OpAssertGE, Name: "acct", Key: "a", Delta: 1},
			TxOp{Op: OpMapAdd, Name: "acct", Key: "a", Delta: -1},
			TxOp{Op: OpMapAdd, Name: "acct", Key: "b", Delta: 1},
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
// stripe, as execWorkloads preloads it, to see a boxed integer at all.
func TestExecutorAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("exact ceilings; the race detector adds objects of its own")
	}
	ceilings := []struct {
		name            string
		memory, durable float64
	}{
		// As read, every run, with the fork frame and reused descriptors
		// (D53) and each root published before the next.
		{"MapGet", 5, 5},
		{"MapPut", 7, 8},
		{"CounterAdd", 6, 7}, // one more while a stripe's int64 was boxed (D52)
		{"Transfer4", 14, 15},
		{"RangeScan64", 24, 24},
		{"Put64", 136, 137},
	}
	for _, durable := range []bool{false, true} {
		h := newExecHarness(t, durable)
		work := execWorkloads(t, h)
		for _, c := range ceilings {
			p, ceiling, shape := work[c.name], c.memory, "memory"
			if durable {
				ceiling, shape = c.durable, "durable"
			}
			h.run(t, p) // warm: structures, pools, the run's batch slice
			got := testing.AllocsPerRun(200, func() {
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
			t.Logf("%s/%s: %.0f allocs/op", shape, c.name, got)
			if got > ceiling {
				t.Errorf("%s/%s: %.0f allocs/op, ceiling %.0f", shape, c.name, got, ceiling)
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
