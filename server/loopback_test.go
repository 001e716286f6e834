package server_test

import (
	"bytes"
	"fmt"
	"testing"

	"pnstm/client"
	"pnstm/server"
)

// loopbackMapGet boots a memory server in pnstmd's default configuration
// (shared reads, tracing on) behind an in-process listener, stores one
// 64-byte value and returns a client with one connection to it plus the
// key — the whole request path of a point read: client → wire → batcher
// → core → client.
func loopbackMapGet(tb testing.TB) (cl *client.Client, key string, want []byte) {
	tb.Helper()
	s := startServer(tb, server.Config{SharedReads: true})
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
	s := startServer(tb, server.Config{SharedReads: true})
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

// TestLoopbackMapGetAllocCeiling bounds the heap objects of one MapGet
// across every layer it crosses, client and server together, with nothing
// amortised (one caller: every batch is one request, so the batch root's
// and Runtime.Run's objects are all charged to it). The parent of the
// allocation-lean request path measured 41 here; a regression in any
// layer — a closure per request, a boxed key, a frame per read — shows up
// as a step of one or more.
func TestLoopbackMapGetAllocCeiling(t *testing.T) {
	const ceiling = 10 // reads 5; 6 before pooled fork frames, 9 while each dispatch started a goroutine
	cl, key, want := loopbackMapGet(t)
	got := testing.AllocsPerRun(500, func() {
		v, found, err := cl.MapGet("kv", key)
		if err != nil || !found || !bytes.Equal(v, want) {
			t.Fatalf("MapGet = %q, %v, %v", v, found, err)
		}
	})
	if got > ceiling {
		t.Errorf("loopback MapGet: %.0f allocs/op, ceiling %d", got, ceiling)
	}
}

// TestLoopbackRangeScanAllocCeiling is the same bound for a limit-64
// scan answered with 64 entries: the sorted map's three first-wave
// children and their exactly-sized parts, one encode buffer, the wire,
// and a decode by reference. The parent of the scan limit pushdown (D49)
// measured 272 here, most of it entries collected and thrown away and a
// string and a slice per entry on the client.
func TestLoopbackRangeScanAllocCeiling(t *testing.T) {
	const ceiling = 53 // reads 28; 31 before pooled fork frames, 37 while each dispatch started a goroutine
	cl, lo, hi := loopbackRangeScan(t)
	got := testing.AllocsPerRun(200, func() {
		es, err := cl.RangeScan("lb", lo, hi, 64)
		if err != nil || len(es) != 64 || es[0].Key != lo {
			t.Fatalf("RangeScan = %d entries, %v", len(es), err)
		}
	})
	if got > ceiling {
		t.Errorf("loopback RangeScan: %.0f allocs/op, ceiling %d", got, ceiling)
	}
}
