package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pnstm/client"
	"pnstm/server"
)

// TestTxReadYourWrites: sub-ops on the same structure execute in
// envelope order inside ONE atomic transaction, so a get observes the
// put before it, a pop the push before it, a sum the add before it —
// and none of the intermediate states ever leak to other clients.
func TestTxReadYourWrites(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, MaxBatch: 16})
	cl := dial(t, s, 1)

	tx := cl.Txn().
		MapPut("rm", "k", []byte("v1")).
		MapGet("rm", "k").
		MapAddInt("rm", "n", 5).
		MapAddInt("rm", "n", -2).
		QueuePush("rq", []byte("front")).
		QueuePop("rq").
		CounterAdd("rc", 7).
		CounterSum("rc")
	res, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Bytes(1); string(got) != "v1" || !res.Found(1) {
		t.Errorf("get after put in same tx = %q,%v want v1", got, res.Found(1))
	}
	if res.Num(2) != 5 || res.Found(2) {
		t.Errorf("first map-add = %d existed=%v, want 5,false", res.Num(2), res.Found(2))
	}
	if res.Num(3) != 3 || !res.Found(3) {
		t.Errorf("second map-add = %d existed=%v, want 3,true (read-your-writes)", res.Num(3), res.Found(3))
	}
	if got := res.Bytes(5); string(got) != "front" || !res.Found(5) {
		t.Errorf("pop after push in same tx = %q,%v want front", got, res.Found(5))
	}
	if res.Num(7) != 7 {
		t.Errorf("sum after add in same tx = %d want 7", res.Num(7))
	}
	// The envelope drained its own queue element: nothing left behind.
	if n, err := cl.QueueLen("rq"); err != nil || n != 0 {
		t.Errorf("queue after tx: len=%d err=%v, want empty", n, err)
	}
}

// TestTxGuardAbortsWholeEnvelope: a false guard rolls back EVERY write
// of the envelope — including the committed grandchildren on other
// structures — and the client sees a typed ErrTxAborted naming the
// failing op.
func TestTxGuardAbortsWholeEnvelope(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, MaxBatch: 16})
	cl := dial(t, s, 1)
	if err := cl.MapPutInt("gm", "balance", 10); err != nil {
		t.Fatal(err)
	}

	// Eight sub-ops on four structures, each its own grandchild: too few
	// to fork (that takes 16, TestPlanForkedEnvelopeFailsAtLowestIndex).
	tx := cl.Txn().
		MapPut("gm2", "x", []byte("poison")).
		QueuePush("gq", []byte("poison")).
		CounterAdd("gc", 99).
		MapAddInt("gm", "balance", -4).
		AssertGE("gm", "balance", 100). // false: whole envelope aborts
		MapPut("gm2", "y", []byte("poison")).
		QueuePush("gq", []byte("poison")).
		CounterAdd("gc", 1)
	res, err := tx.Commit()
	var aborted *client.ErrTxAborted
	if !errors.As(err, &aborted) {
		t.Fatalf("want ErrTxAborted, got %v", err)
	}
	if aborted.FailedOpIndex != 4 {
		t.Errorf("FailedOpIndex = %d want 4", aborted.FailedOpIndex)
	}
	if aborted.Reason == "" {
		t.Error("ErrTxAborted.Reason empty")
	}
	if res == nil || !res.Executed(4) {
		t.Error("failing guard's own result missing")
	}

	// Nothing committed anywhere.
	if v, ok, err := cl.MapGetInt("gm", "balance"); err != nil || !ok || v != 10 {
		t.Errorf("balance after aborted tx = %d,%v,%v want 10", v, ok, err)
	}
	for _, key := range []string{"x", "y"} {
		if _, ok, err := cl.MapGet("gm2", key); err != nil || ok {
			t.Errorf("gm2[%s] leaked from aborted tx (ok=%v err=%v)", key, ok, err)
		}
	}
	if n, err := cl.QueueLen("gq"); err != nil || n != 0 {
		t.Errorf("queue leaked %d elements from aborted tx (%v)", n, err)
	}
	if sum, err := cl.CounterSum("gc"); err != nil || sum != 0 {
		t.Errorf("counter leaked %d from aborted tx (%v)", sum, err)
	}
}

// TestTxGuardVariants covers each guard flavor pass/fail.
func TestTxGuardVariants(t *testing.T) {
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 8})
	cl := dial(t, s, 1)
	if err := cl.MapPut("vm", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cl.CounterAdd("vc", 5); err != nil {
		t.Fatal(err)
	}

	pass := [](func() *client.Txn){
		func() *client.Txn { return cl.Txn().AssertEq("vm", "k", []byte("v")) },
		func() *client.Txn { return cl.Txn().AssertEq("vm", "absent", nil) }, // nil asserts absence
		func() *client.Txn { return cl.Txn().AssertCounterEq("vc", 5) },
		func() *client.Txn { return cl.Txn().AssertCounterGE("vc", 5) },
		func() *client.Txn { return cl.Txn().MapPutInt("vm", "n", 3).AssertGE("vm", "n", 3) },
		func() *client.Txn { return cl.Txn().AssertGE("vm", "never-set", 0) }, // absent reads as 0
	}
	for i, build := range pass {
		if _, err := build().Commit(); err != nil {
			t.Errorf("pass case %d: %v", i, err)
		}
	}
	fail := [](func() *client.Txn){
		func() *client.Txn { return cl.Txn().AssertEq("vm", "k", []byte("other")) },
		func() *client.Txn { return cl.Txn().AssertEq("vm", "k", nil) }, // present, asserted absent
		func() *client.Txn { return cl.Txn().AssertCounterEq("vc", 6) },
		func() *client.Txn { return cl.Txn().AssertCounterGE("vc", 6) },
		func() *client.Txn { return cl.Txn().AssertGE("vm", "never-set", 1) },
	}
	for i, build := range fail {
		_, err := build().Commit()
		var aborted *client.ErrTxAborted
		if !errors.As(err, &aborted) {
			t.Errorf("fail case %d: want ErrTxAborted, got %v", i, err)
		}
	}
}

// namesOnDistinctShards finds structure names living on different
// shards (and a pair on the SAME shard) of an n-shard server.
func namesOnDistinctShards(t *testing.T, prefix string, n int) (a, b, sameAsA string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		sh := shardOfName(name, n)
		switch {
		case a == "":
			a = name
		case sh != shardOfName(a, n) && b == "":
			b = name
		case sh == shardOfName(a, n) && name != a && sameAsA == "":
			sameAsA = name
		}
		if a != "" && b != "" && sameAsA != "" {
			return a, b, sameAsA
		}
	}
	t.Fatal("could not find names on distinct shards")
	return
}

// TestTxCrossShardRules: a mutating envelope spanning shards commits
// atomically through the ordered-commit path (D29) — no StatusCrossShard
// — and its guards judge global state; the same envelope confined to
// one shard rides that shard's pipeline; a read-only envelope spanning
// shards answers through the same ordered path.
func TestTxCrossShardRules(t *testing.T) {
	const shards = 4
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 8, Shards: shards})
	cl := dial(t, s, 1)
	mapA, mapB, mapA2 := namesOnDistinctShards(t, "xm", shards)

	// Mutating + two pinned shards → ordered cross-shard commit: both
	// writes land, atomically.
	if _, err := cl.Txn().
		MapPut(mapA, "ck", []byte("va")).
		MapPut(mapB, "ck", []byte("vb")).
		Commit(); err != nil {
		t.Fatalf("cross-shard mutating tx: %v", err)
	}
	for m, want := range map[string]string{mapA: "va", mapB: "vb"} {
		if v, ok, err := cl.MapGet(m, "ck"); err != nil || !ok || string(v) != want {
			t.Errorf("after cross-shard tx, %s[ck] = %q,%v,%v want %q", m, v, ok, err, want)
		}
	}

	// A failing guard on one shard aborts the WHOLE envelope: the write
	// on the other shard rolls back too.
	_, err := cl.Txn().
		MapPut(mapA, "rk", []byte("x")).
		AssertGE(mapB, "absent", 1). // absent reads as 0 → fails
		Commit()
	var aborted *client.ErrTxAborted
	if !errors.As(err, &aborted) {
		t.Fatalf("want ErrTxAborted, got %v", err)
	}
	if aborted.FailedOpIndex != 1 {
		t.Errorf("FailedOpIndex = %d want 1", aborted.FailedOpIndex)
	}
	if _, ok, _ := cl.MapGet(mapA, "rk"); ok {
		t.Errorf("aborted cross-shard tx left a write on %s", mapA)
	}

	// Same shard: commits, counters ride along (D24 partials).
	if _, err := cl.Txn().
		MapPut(mapA, "k", []byte("v")).
		MapPut(mapA2, "k", []byte("w")).
		CounterAdd("xc", 3).
		Commit(); err != nil {
		t.Fatalf("single-shard mutating tx: %v", err)
	}
	if sum, err := cl.CounterSum("xc"); err != nil || sum != 3 {
		t.Errorf("counter after single-shard tx = %d,%v want 3", sum, err)
	}

	// Read-only across shards: each result from its home shard.
	res, err := cl.Txn().
		MapGet(mapA, "k").
		MapGet(mapB, "k").
		MapLen(mapA2).
		CounterSum("xc").
		Commit()
	if err != nil {
		t.Fatalf("read-only fan: %v", err)
	}
	if string(res.Bytes(0)) != "v" || !res.Found(0) {
		t.Errorf("fan get A = %q,%v", res.Bytes(0), res.Found(0))
	}
	if res.Found(1) {
		t.Errorf("fan get B found a value that was never written")
	}
	if res.Num(2) != 1 {
		t.Errorf("fan len = %d want 1", res.Num(2))
	}
	if res.Num(3) != 3 {
		t.Errorf("fan counter sum = %d want 3", res.Num(3))
	}
}

// TestTxFannedCounterReadsAreGlobal: checkouts credit counter partials
// on their stock map's shard, so a read-only cross-shard envelope must sum
// partials across ALL shards — and its counter guards must judge that
// global total, not any one partial.
func TestTxFannedCounterReadsAreGlobal(t *testing.T) {
	const shards = 4
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 8, Shards: shards})
	cl := dial(t, s, 1)
	mapA, mapB, _ := namesOnDistinctShards(t, "fm", shards)

	// Two mutating envelopes on different shards, both crediting the
	// same counter: the total lives as two partials.
	for _, m := range []string{mapA, mapB} {
		if err := cl.MapPutInt(m, "sku", 10); err != nil {
			t.Fatal(err)
		}
		if ok, _, err := cl.Checkout(m, server.Checkout{
			Sold:  "fsold",
			Lines: []server.CheckoutLine{{SKU: "sku", Qty: 4}},
		}); err != nil || !ok {
			t.Fatalf("checkout on %s: ok=%v err=%v", m, ok, err)
		}
	}
	if sum, err := cl.CounterSum("fsold"); err != nil || sum != 8 {
		t.Fatalf("top-level sum = %d,%v want 8", sum, err)
	}

	// Read-only cross-shard envelope: the sum is the global 8, and a guard
	// requiring ≥ 8 holds even though no single shard holds 8.
	res, err := cl.Txn().
		MapGet(mapA, "sku").
		MapGet(mapB, "sku").
		CounterSum("fsold").
		AssertCounterGE("fsold", 8).
		Commit()
	if err != nil {
		t.Fatalf("cross-shard envelope: %v", err)
	}
	if res.Num(2) != 8 {
		t.Errorf("cross-shard counter sum = %d want 8 (global total)", res.Num(2))
	}
	// And a guard above the total fails with the right index.
	_, err = cl.Txn().
		MapGet(mapA, "sku").
		AssertCounterGE("fsold", 9).
		MapGet(mapB, "sku").
		Commit()
	var aborted *client.ErrTxAborted
	if !errors.As(err, &aborted) || aborted.FailedOpIndex != 1 {
		t.Fatalf("cross-shard guard: want ErrTxAborted at op 1, got %v", err)
	}

	// A pinned MAP guard failing inside a read-only cross-shard envelope
	// must also come back as a typed abort — with the failing index in
	// envelope order — not as a generic server error.
	_, err = cl.Txn().
		MapGet(mapA, "sku").
		MapGet(mapB, "sku").
		AssertGE(mapB, "sku", 999). // false on mapB's home shard
		Commit()
	aborted = nil
	if !errors.As(err, &aborted) {
		t.Fatalf("cross-shard map guard: want ErrTxAborted, got %v", err)
	}
	if aborted.FailedOpIndex != 2 {
		t.Errorf("cross-shard map guard FailedOpIndex = %d want 2", aborted.FailedOpIndex)
	}
	// And the lowest index wins when a map guard and a counter guard
	// both fail: the counter guard sits earlier in the envelope.
	_, err = cl.Txn().
		AssertCounterGE("fsold", 9). // false on the merged total (8)
		MapGet(mapA, "sku").
		AssertGE(mapB, "sku", 999). // also false, later index
		Commit()
	aborted = nil
	if !errors.As(err, &aborted) || aborted.FailedOpIndex != 0 {
		t.Fatalf("mixed cross-shard guards: want ErrTxAborted at op 0, got %v (idx %v)", err, aborted)
	}
}

// TestCheckoutWireAliasOracle was the OpCheckout migration oracle (wire
// alias vs client envelope). The alias is gone; what stays is its client
// leg: an order script through client.Checkout — one order rejected —
// lands on the expected stock and counters, and a crash-recovery replay
// of the logged envelopes recovers the identical image.
func TestCheckoutWireAliasOracle(t *testing.T) {
	script := [][]server.CheckoutLine{
		{{SKU: "anvil", Qty: 2}, {SKU: "cog", Qty: 1}},
		{{SKU: "anvil", Qty: 3}},
		{{SKU: "cog", Qty: 50}}, // rejected: short stock
		{{SKU: "cog", Qty: 2}},
	}
	wantOK := []bool{true, true, false, true}
	dir := t.TempDir()
	s := startServer(t, persistCfg(dir))
	cl := dial(t, s, 1)
	for _, sku := range []string{"anvil", "cog"} {
		if err := cl.MapPutInt("stock", sku, 10); err != nil {
			t.Fatal(err)
		}
	}
	for i, lines := range script {
		ok, _, err := cl.Checkout("stock", server.Checkout{Sold: "sold", Revenue: "rev", Cents: 100, Lines: lines})
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK[i] {
			t.Fatalf("order %d: ok=%v want %v", i, ok, wantOK[i])
		}
	}
	for sku, want := range map[string]int64{"anvil": 5, "cog": 7} {
		if got, _, err := cl.MapGetInt("stock", sku); err != nil || got != want {
			t.Errorf("stock[%s] = %d, %v; want %d", sku, got, err, want)
		}
	}
	if sold, err := cl.CounterSum("sold"); err != nil || sold != 8 {
		t.Errorf("sold = %d, %v; want 8", sold, err)
	}
	live, _, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	s.Kill()

	recovered, _, err := startServer(t, persistCfg(dir)).Export()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recovered, live) {
		t.Errorf("recovered image diverged:\n  recovered %+v\n  live      %+v", recovered, live)
	}
}

// TestOversizeStackedReplyRollsTheEnvelopeBack: results that fit a frame
// one by one can outgrow it together. Such an envelope must fail before
// it commits — its writes invisible and unlogged, the caller told the
// size and the limit — and must not cost the connection it shares.
func TestOversizeStackedReplyRollsTheEnvelopeBack(t *testing.T) {
	s := startServer(t, persistCfg(t.TempDir()))
	cl := dial(t, s, 1) // one connection: a dropped frame would take every call with it
	if err := cl.MapPut("blobs", "big", make([]byte, 6<<20)); err != nil {
		t.Fatal(err)
	}
	logged := s.WALStats().Appends

	for _, leadingPut := range []bool{false, true} {
		tx := cl.Txn()
		if leadingPut {
			tx.MapPut("blobs", "marker", []byte("x")).CounterAdd("puts", 1)
		}
		tx.MapGet("blobs", "big").MapGet("blobs", "big").MapGet("blobs", "big")
		pinged := make(chan error, 1)
		go func() { pinged <- cl.Ping() }()
		_, err := tx.Commit()
		if err == nil {
			t.Fatalf("leadingPut=%v: three 6 MiB results in one reply returned no error", leadingPut)
		}
		size := 3*(6<<20) + 14*tx.At() // a result is 14 bytes plus its value
		for _, want := range []string{fmt.Sprint(size), fmt.Sprint(server.MaxFrame - 64<<10), "reply limit"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("leadingPut=%v: error %q does not mention %q", leadingPut, err, want)
			}
		}
		if err := <-pinged; err != nil {
			t.Errorf("leadingPut=%v: a call sharing the connection failed: %v", leadingPut, err)
		}
	}
	if _, found, err := cl.MapGet("blobs", "marker"); err != nil || found {
		t.Errorf("the refused envelope's put is visible: found=%v err=%v", found, err)
	}
	if n, err := cl.CounterSum("puts"); err != nil || n != 0 {
		t.Errorf("the refused envelope's counter add is visible: %d, %v", n, err)
	}
	if got := s.WALStats().Appends; got != logged {
		t.Errorf("the refused envelopes logged %d records", got-logged)
	}
	// Two of them still fit.
	res, err := cl.Txn().MapGet("blobs", "big").MapGet("blobs", "big").Commit()
	if err != nil || len(res.Bytes(0)) != 6<<20 || len(res.Bytes(1)) != 6<<20 {
		t.Errorf("two 6 MiB results: %v", err)
	}
}

// TestOversizeMergedReplyIsRefused: on a sharded server an envelope's
// reply is assembled from per-shard parts, each of which passed the size
// check on its own shard. Two scans just over half the limit fit one by
// one and not together: the read-only fan must answer with the size
// error, and the cross-shard commit must roll every slice back — its
// write invisible, nothing logged — instead of either sending a frame
// the client would drop the connection over.
func TestOversizeMergedReplyIsRefused(t *testing.T) {
	cfg := persistCfg(t.TempDir())
	cfg.Shards = 2
	s := startServer(t, cfg)
	cl := dial(t, s, 1) // one connection: a dropped frame would take every call with it
	a, b, _ := namesOnDistinctShards(t, "wide_", 2)
	half := make([]byte, 4<<20) // two per map: each scan returns 8 MiB, the limit is 16 MiB - 64 KiB
	for _, name := range []string{a, b} {
		for _, key := range []string{"k1", "k2"} {
			if _, err := cl.Txn().SortedPut(name, key, half).Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tail := s.WALStats().TailLSN

	for _, mutating := range []bool{false, true} {
		tx := cl.Txn().RangeScan(a, "", "", 0).RangeScan(b, "", "", 0)
		if mutating {
			tx.MapPut(a+"_marker", "k", []byte("x")) // a write on two pinned shards: the ordered-commit path
		}
		pinged := make(chan error, 1)
		go func() { pinged <- cl.Ping() }()
		_, err := tx.Commit()
		if err == nil {
			t.Fatalf("mutating=%v: two 8 MiB scans in one reply returned no error", mutating)
		}
		for _, want := range []string{fmt.Sprint(server.MaxFrame - 64<<10), "reply limit"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("mutating=%v: error %q does not mention %q", mutating, err, want)
			}
		}
		if err := <-pinged; err != nil {
			t.Errorf("mutating=%v: a call sharing the connection failed: %v", mutating, err)
		}
	}
	if _, found, err := cl.MapGet(a+"_marker", "k"); err != nil || found {
		t.Errorf("the refused cross-shard envelope's put is visible: found=%v err=%v", found, err)
	}
	if got := s.WALStats().TailLSN; got != tail {
		t.Errorf("the refused envelopes moved the WAL tail from %d to %d", tail, got)
	}
	// One of the scans still fits, on the same connection.
	res, err := cl.Txn().RangeScan(a, "", "", 0).Commit()
	if err != nil || res.Num(0) != 2 {
		t.Errorf("one 8 MiB scan: %v", err)
	}
}

// TestTxGuardFailureLeavesZeroWALResidue: an envelope aborted by its
// guard must append NOTHING to the log — proven not just by counters
// but by a hard kill and replay: the recovered store holds exactly the
// committed history, with no trace of the rejected envelopes.
func TestTxGuardFailureLeavesZeroWALResidue(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, persistCfg(dir))
	cl := dial(t, s, 1)

	if err := cl.MapPutInt("wm", "slot", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Txn().
		MapAddInt("wm", "slot", 4).
		QueuePush("wq", []byte("keep")).
		CounterAdd("wc", 2).
		Commit(); err != nil {
		t.Fatal(err)
	}
	base := s.WALStats()

	// Mutating-shaped envelopes (writes present → they take the
	// commit-ticket path) that all abort on a guard.
	for i := 0; i < 20; i++ {
		_, err := cl.Txn().
			MapAddInt("wm", "slot", 100).
			QueuePush("wq", []byte("poison")).
			AssertGE("wm", "slot", 1000). // false
			CounterAdd("wc", 100).
			Commit()
		var aborted *client.ErrTxAborted
		if !errors.As(err, &aborted) {
			t.Fatalf("iteration %d: want ErrTxAborted, got %v", i, err)
		}
	}
	ws := s.WALStats()
	if ws.Appends != base.Appends || ws.Syncs != base.Syncs {
		t.Errorf("rejected envelopes reached the wal: appends %d->%d syncs %d->%d",
			base.Appends, ws.Appends, base.Syncs, ws.Syncs)
	}

	// Crash (no graceful flush) and replay: only the committed history
	// comes back.
	s.Kill()
	s2 := startServer(t, persistCfg(dir))
	cl2 := dial(t, s2, 1)
	if v, ok, err := cl2.MapGetInt("wm", "slot"); err != nil || !ok || v != 5 {
		t.Errorf("recovered slot = %d,%v,%v want 5", v, ok, err)
	}
	if n, err := cl2.QueueLen("wq"); err != nil || n != 1 {
		t.Errorf("recovered queue len = %d,%v want 1 (no poison)", n, err)
	}
	if v, ok, err := cl2.QueuePop("wq"); err != nil || !ok || !bytes.Equal(v, []byte("keep")) {
		t.Errorf("recovered queue front = %q,%v,%v want keep", v, ok, err)
	}
	if sum, err := cl2.CounterSum("wc"); err != nil || sum != 2 {
		t.Errorf("recovered counter = %d,%v want 2", sum, err)
	}
}

// TestTxMutatingEnvelopeSurvivesCrashRecovery: a multi-structure
// envelope is ONE WAL entry riding its batch's record; after a hard
// kill, replay reapplies it atomically (all sub-ops or none).
func TestTxMutatingEnvelopeSurvivesCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, persistCfg(dir))
	cl := dial(t, s, 1)

	const n = 25
	for i := 0; i < n; i++ {
		if _, err := cl.Txn().
			MapAddInt("cm", "applied", 1).
			QueuePush("cq", server.EncodeInt64(int64(i))).
			CounterAdd("cc", 3).
			Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.Kill()

	s2 := startServer(t, persistCfg(dir))
	cl2 := dial(t, s2, 1)
	applied, ok, err := cl2.MapGetInt("cm", "applied")
	if err != nil || !ok {
		t.Fatalf("applied: %v %v", ok, err)
	}
	if applied != n {
		t.Errorf("recovered applied = %d want %d (every acked envelope must replay)", applied, n)
	}
	if qn, err := cl2.QueueLen("cq"); err != nil || qn != applied {
		t.Errorf("queue len %d != applied %d: envelope atomicity broken on replay", qn, applied)
	}
	if sum, err := cl2.CounterSum("cc"); err != nil || sum != 3*applied {
		t.Errorf("counter %d != 3×applied %d: envelope atomicity broken on replay", sum, 3*applied)
	}
	// FIFO of the envelope pushes survived too.
	for i := int64(0); i < applied; i++ {
		raw, ok, err := cl2.QueuePop("cq")
		if err != nil || !ok {
			t.Fatalf("pop %d: %v %v", i, ok, err)
		}
		if v, _ := server.DecodeInt64(raw); v != i {
			t.Fatalf("pop %d = %d: FIFO broken after replay", i, v)
		}
	}
}

// TestTxEmptyAndInvalid: degenerate envelopes.
func TestTxEmptyAndInvalid(t *testing.T) {
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 8})
	cl := dial(t, s, 1)

	res, err := cl.Txn().Commit()
	if err != nil || res.Len() != 0 {
		t.Errorf("empty tx: %v, %d results", err, res.Len())
	}
	// Builder-level misuse is deferred to Commit.
	if _, err := cl.Txn().AssertEq("m", "", []byte("v")).Commit(); err == nil {
		t.Error("keyless AssertEq accepted")
	}
	// Guard against a non-integer value: the envelope errors (StatusErr),
	// it does not half-commit.
	if err := cl.MapPut("im", "s", []byte("not-an-int")); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Txn().
		CounterAdd("ic", 1).
		AssertGE("im", "s", 0).
		Commit()
	if err == nil {
		t.Fatal("malformed guard target accepted")
	}
	var aborted *client.ErrTxAborted
	if errors.As(err, &aborted) {
		t.Fatalf("malformed value is StatusErr, not a guard rejection: %v", err)
	}
	if sum, _ := cl.CounterSum("ic"); sum != 0 {
		t.Errorf("errored envelope leaked counter add: %d", sum)
	}
}
