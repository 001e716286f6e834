package server_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pnstm/client"
	"pnstm/internal/alloctest"
	"pnstm/server"
)

// loopbackMapGet boots a memory server in pnstmd's default configuration
// (shared reads, tracing on) behind an in-process listener, stores one
// 64-byte value and returns a client with one connection to it plus the
// key — the whole request path of a point read: client → wire → batcher
// → core → client.
func loopbackMapGet(tb testing.TB) (cl *client.Client, key string, want []byte) {
	tb.Helper()
	s := startServer(tb, server.Config{})
	cl = dial(tb, s, 1)
	key, want = "key-000042", bytes.Repeat([]byte{0x5a}, 64)
	if err := cl.MapPut("kv", key, want); err != nil {
		tb.Fatal(err)
	}
	return cl, key, want
}

// BenchmarkLoopbackMapGet is the layer ladder's "loopback wire" rung: one
// caller, one connection, so every batch holds one request and allocs/op
// is the whole path's heap cost with nothing amortised.
func BenchmarkLoopbackMapGet(b *testing.B) {
	cl, key, want := loopbackMapGet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, found, err := cl.MapGet("kv", key)
		if err != nil || !found || !bytes.Equal(v, want) {
			b.Fatalf("MapGet = %q, %v, %v", v, found, err)
		}
	}
}

// loopbackRangeScan is loopbackMapGet's server with a sorted map of 4096
// keys holding 64-byte values, preloaded in ascending key order like the
// benchmark's scan-mem (so every leaf holds 32 entries), and the bounds
// of a 256-key span in the middle of it.
func loopbackRangeScan(tb testing.TB) (cl *client.Client, lo, hi string) {
	tb.Helper()
	s := startServer(tb, server.Config{})
	cl = dial(tb, s, 1)
	key := func(i int) string { return fmt.Sprintf("k%07d", i) }
	val := bytes.Repeat([]byte{0x5a}, 64)
	for base := 0; base < 4096; base += 64 {
		tx := cl.Txn()
		for i := base; i < base+64; i++ {
			tx.SortedPut("lb", key(i), val)
		}
		if _, err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	return cl, key(2000), key(2256)
}

// BenchmarkLoopbackRangeScan is the loopback rung for a big reply: one
// caller, one connection, a limit-64 scan of a 256-key span answered
// with 64 entries (~5 KB). allocs/op is what a limited scan costs across
// sorted map, server encode, wire and client decode (D49).
func BenchmarkLoopbackRangeScan(b *testing.B) {
	cl, lo, hi := loopbackRangeScan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		es, err := cl.RangeScan("lb", lo, hi, 64)
		if err != nil || len(es) != 64 || es[0].Key != lo || len(es[63].Value) != 64 {
			b.Fatalf("RangeScan = %d entries, %v", len(es), err)
		}
	}
}

// checkLoopbackCeiling reads f exactly over runs calls and fails the test
// when it costs more than ceiling (raced under -race) plus
// alloctest.Slack: the reply and result slabs' refills are a few
// hundredths of an object per call. Under -race the pools drop some of
// what is put back, so each row names its own race-build ceiling.
func checkLoopbackCeiling(t *testing.T, what string, runs int, ceiling, raced float64, f func()) {
	t.Helper()
	if server.RaceEnabled() {
		ceiling = raced
	}
	got := alloctest.Exact(runs, f)
	t.Logf("loopback %s: %.3f allocs/op", what, got)
	if got > ceiling+alloctest.Slack {
		t.Errorf("loopback %s: %.3f allocs/op, ceiling %.0f and %.2f slack", what, got, ceiling, alloctest.Slack)
	}
}

// TestLoopbackMapGetAllocCeiling bounds the heap objects of one MapGet
// across every layer it crosses, client and server together, with nothing
// amortised (one caller: every batch is one request, so the batch root's
// and Runtime.Run's objects are all charged to it). The parent of the
// allocation-lean request path measured 41 here; a regression in any
// layer — a closure per request, a boxed key, a frame per read — shows up
// as a step of one or more.
func TestLoopbackMapGetAllocCeiling(t *testing.T) {
	// Reads 0.01–0.02, 2.1–2.6 raced (floored, 1 with a ceiling of 8 while
	// AllocsPerRun read it; 3 before borrowed keys and slab-carved values,
	// 5 before recycled pendings and by-value replies, 6 before pooled
	// fork frames, 9 while each dispatch started a goroutine).
	cl, key, want := loopbackMapGet(t)
	checkLoopbackCeiling(t, "MapGet", 500, 0, 3, func() {
		v, found, err := cl.MapGet("kv", key)
		if err != nil || !found || !bytes.Equal(v, want) {
			t.Fatalf("MapGet = %q, %v, %v", v, found, err)
		}
	})
}

// TestLoopbackRangeScanAllocCeiling is the same bound for a limit-64
// scan answered with 64 entries: the sorted map's one first-wave child
// keeps views of the leaves it read, the server encodes them into its
// batch's scan slab, and the client copies the payload off the wire and
// decodes it in place into one entry list. The parent of the scan limit
// pushdown (D49) measured 272 here, most of it entries collected and
// thrown away and a string and a slice per entry on the client.
func TestLoopbackRangeScanAllocCeiling(t *testing.T) {
	// Reads 2.12–2.17, 5.1–5.3 raced. It read 5.12–5.19 (8.0–9.1 raced)
	// while the scan copied its entries, the server allocated each
	// encoding and the client copied the keys into a string of their own;
	// 10.18 exactly (13 floored, with a ceiling of 20) while the call
	// built a Txn, its TxResults and a copy of hi and both sides made the
	// results list; 21 while the first wave forked a child per leaf, 24
	// before borrowed keys and slab-carved values, 28 before recycled
	// pendings and by-value replies, 31 before pooled fork frames, 37
	// while each dispatch started a goroutine.
	cl, lo, hi := loopbackRangeScan(t)
	checkLoopbackCeiling(t, "RangeScan", 200, 2, 6, func() {
		es, err := cl.RangeScan("lb", lo, hi, 64)
		if err != nil || len(es) != 64 || es[0].Key != lo {
			t.Fatalf("RangeScan = %d entries, %v", len(es), err)
		}
	})
}

// TestLoopbackSortedPutAllocCeiling bounds a one-op sorted-map write, the
// other half of scan-mem's traffic: the call builds no Txn and no results
// of its own, and neither side makes a results list. What is left is the
// server's copies of the key and value and the leaf the write replaces.
func TestLoopbackSortedPutAllocCeiling(t *testing.T) {
	// Reads 3.02–3.04, 5.6–6.0 raced; 7.00 (9.7 raced) through a Txn.
	cl, lo, _ := loopbackRangeScan(t)
	val := bytes.Repeat([]byte{0x5b}, 64)
	checkLoopbackCeiling(t, "SortedPut", 500, 3, 7, func() {
		if err := cl.SortedPut("lb", lo, val); err != nil {
			t.Fatalf("SortedPut: %v", err)
		}
	})
}

// TestLoopbackTxnAllocCeiling bounds a 3-op envelope built with Txn: the
// builder holds its first four ops and the TxResults Commit returns, so
// the client pays one object for it.
func TestLoopbackTxnAllocCeiling(t *testing.T) {
	// Reads 4.11–4.13, 7.4–7.8 raced; 7.06 (10.6 raced) while the builder
	// made its op list and Commit its TxResults, and both sides made the
	// results list.
	cl, key, _ := loopbackMapGet(t)
	checkLoopbackCeiling(t, "3-op Txn", 500, 4, 9, func() {
		res, err := cl.Txn().
			MapGet("kv", key).
			MapAddInt("acct", "a0001", 1).
			CounterAdd("transfers", 1).
			Commit()
		if err != nil || res.Len() != 3 || !res.Found(0) {
			t.Fatalf("Txn = %v", err)
		}
	})
}

// TestLoopbackLeaseAckAllocCeiling bounds a successful one-op lease ack:
// the call builds no Txn and tests the reply for a rejection without
// taking an address, so the client pays nothing beyond the envelope and
// the objects are the server's. The ack copies the one bucket of the
// lease table its id hashes to.
func TestLoopbackLeaseAckAllocCeiling(t *testing.T) {
	// Reads 4.07, 7.6–7.7 raced; 7.14–7.17 (10.4–10.6 raced) while every
	// lease op copied the queue's whole lease table, 8.11 while the call
	// passed the address of its error variable to errors.As, which moved
	// it to the heap on every call.
	const runs = 500
	cl, _, _ := loopbackMapGet(t)
	ids := make([]uint64, 0, runs+1) // Exact makes one warm-up call
	for range runs + 1 {
		if err := cl.QueuePush("jobs", []byte("job")); err != nil {
			t.Fatal(err)
		}
		id, _, ok, err := cl.LeaseConsume("jobs", time.Now().Add(time.Hour).UnixNano())
		if err != nil || !ok {
			t.Fatalf("LeaseConsume = %v, %v", ok, err)
		}
		ids = append(ids, id)
	}
	checkLoopbackCeiling(t, "LeaseAck", runs, 4, 8, func() {
		id := ids[0]
		ids = ids[1:]
		if ok, err := cl.LeaseAck("jobs", id); err != nil || !ok {
			t.Fatalf("LeaseAck(%d) = %v, %v", id, ok, err)
		}
	})
}

// TestLoopbackScanValuesNotPinned runs 300 limit-64 scans, each answered
// with a ~5 KB value, and checks that the live heap does not keep them: a
// result slot carved from a slab on either side holds its value until the
// slab is collected, so the last holder of a delivered result — the
// server's connection writer once it has encoded the reply, the client
// call once it has read the reply — lets go of the slot's value. Kept, two
// slabs' worth of scan values (1.3 MB) would stay live.
func TestLoopbackScanValuesNotPinned(t *testing.T) {
	cl, lo, hi := loopbackRangeScan(t)
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	scan := func() {
		es, err := cl.RangeScan("lb", lo, hi, 64)
		if err != nil || len(es) != 64 {
			t.Fatalf("RangeScan = %d entries, %v", len(es), err)
		}
	}
	scan()
	before := live()
	for range 300 {
		scan()
	}
	grown := int64(live()) - int64(before)
	t.Logf("live heap grew by %d bytes over 300 scans", grown)
	if grown > 128<<10 { // reads 4–16 KB; 475–480 KB with the values kept
		t.Errorf("live heap grew by %d bytes over 300 scans of ~5 KB each: delivered scan values are kept", grown)
	}
}
