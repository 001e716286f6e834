package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnstm/client"
	"pnstm/server"
)

// These are the cross-shard ordered-commit (D29–D31) torture tests: a
// randomized transfer oracle, abort residue checks, a counter guard
// judging global state, graceful-restart replay and a hard-kill
// atomicity drill. The GSN-level on-disk assertions (relative replay
// order, incomplete-record reconciliation) live in
// crossshard_internal_test.go, which can open the logs directly.

// TestCrossShardTransferOracle replays a randomized mix of single-shard
// and cross-shard mutating envelopes against a sequential oracle. Each
// goroutine owns a private account universe — two maps on DIFFERENT
// shards plus one more on the first map's shard — so its local model is
// exact: a guarded transfer must commit if and only if the model says
// the source balance covers it, and every final balance must match the
// model to the cent.
func TestCrossShardTransferOracle(t *testing.T) {
	const (
		shards     = 4
		goroutines = 4
		opsPer     = 250
		keysPerMap = 4
		initial    = int64(100)
	)
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 16, Shards: shards})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			mapA, mapB, mapA2 := namesOnDistinctShards(t, fmt.Sprintf("om%d_", g), shards)
			maps := []string{mapA, mapB, mapA2}
			model := make(map[string]map[string]int64, len(maps))
			for _, m := range maps {
				model[m] = make(map[string]int64, keysPerMap)
				for k := 0; k < keysPerMap; k++ {
					key := fmt.Sprintf("k%d", k)
					if err := cl.MapPutInt(m, key, initial); err != nil {
						t.Errorf("g%d: provision %s[%s]: %v", g, m, key, err)
						return
					}
					model[m][key] = initial
				}
			}
			rng := rand.New(rand.NewSource(int64(g)*7919 + 13))
			for i := 0; i < opsPer; i++ {
				srcM := maps[rng.Intn(len(maps))]
				dstM := maps[rng.Intn(len(maps))]
				srcK := fmt.Sprintf("k%d", rng.Intn(keysPerMap))
				dstK := fmt.Sprintf("k%d", rng.Intn(keysPerMap))
				amt := int64(1 + rng.Intn(40))
				switch {
				case rng.Intn(10) == 0:
					// Single-shard deposit, interleaved with the transfers.
					if _, err := cl.Txn().MapAddInt(srcM, srcK, 5).Commit(); err != nil {
						t.Errorf("g%d op %d: deposit: %v", g, i, err)
						return
					}
					model[srcM][srcK] += 5
				default:
					// Guarded transfer; crosses shards whenever srcM and dstM
					// differ in home (mapA vs mapB), stays single-shard for
					// mapA vs mapA2 — the interleaving under test.
					_, err := cl.Txn().
						AssertGE(srcM, srcK, amt).
						MapAddInt(srcM, srcK, -amt).
						MapAddInt(dstM, dstK, amt).
						Commit()
					var aborted *client.ErrTxAborted
					switch {
					case err == nil:
						if model[srcM][srcK] < amt {
							t.Errorf("g%d op %d: transfer of %d from %s[%s]=%d committed; oracle says reject",
								g, i, amt, srcM, srcK, model[srcM][srcK])
							return
						}
						model[srcM][srcK] -= amt
						model[dstM][dstK] += amt
					case errors.As(err, &aborted):
						if model[srcM][srcK] >= amt {
							t.Errorf("g%d op %d: transfer of %d from %s[%s]=%d rejected; oracle says commit (%v)",
								g, i, amt, srcM, srcK, model[srcM][srcK], err)
							return
						}
						if aborted.FailedOpIndex != 0 {
							t.Errorf("g%d op %d: FailedOpIndex = %d want 0", g, i, aborted.FailedOpIndex)
							return
						}
					default:
						t.Errorf("g%d op %d: transfer: %v", g, i, err)
						return
					}
				}
			}
			// Every balance must match the oracle exactly — transfers
			// conserve by construction, so this also pins the spanning
			// ledger.
			for _, m := range maps {
				for k, want := range model[m] {
					got, ok, err := cl.MapGetInt(m, k)
					if err != nil || !ok {
						t.Errorf("g%d: read back %s[%s]: %v %v", g, m, k, ok, err)
						return
					}
					if got != want {
						t.Errorf("g%d: %s[%s] = %d, oracle says %d", g, m, k, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCrossShardAbortLeavesNoResidue: a cross-shard envelope whose
// guard fails must leave ZERO WAL residue on every shard — the logs'
// tail LSNs do not move — and a restart must reproduce exactly the
// pre-abort state.
func TestCrossShardAbortLeavesNoResidue(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	cfg := server.Config{Workers: 2, MaxBatch: 8, Shards: shards, DataDir: dir, Fsync: true}
	s := startServer(t, cfg)
	cl := dial(t, s, 1)
	mapA, mapB, _ := namesOnDistinctShards(t, "rm", shards)

	// One committed cross-shard transfer, so the logs are not empty.
	if err := cl.MapPutInt(mapA, "bal", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Txn().
		AssertGE(mapA, "bal", 10).
		MapAddInt(mapA, "bal", -10).
		MapAddInt(mapB, "bal", 10).
		Commit(); err != nil {
		t.Fatalf("seed transfer: %v", err)
	}

	tails := make(map[int]uint64)
	for _, ps := range s.Stats().PerShard {
		if ps.WAL != nil {
			tails[ps.Shard] = ps.WAL.TailLSN
		}
	}

	// Aborting envelope: the guard on mapB's shard fails, the write on
	// mapA's shard must roll back, and nothing may reach any log.
	_, err := cl.Txn().
		MapAddInt(mapA, "bal", -40).
		AssertGE(mapB, "bal", 1000).
		Commit()
	var aborted *client.ErrTxAborted
	if !errors.As(err, &aborted) {
		t.Fatalf("want ErrTxAborted, got %v", err)
	}
	for _, ps := range s.Stats().PerShard {
		if ps.WAL != nil && ps.WAL.TailLSN != tails[ps.Shard] {
			t.Errorf("shard %d tail moved %d → %d after an aborted cross-shard tx",
				ps.Shard, tails[ps.Shard], ps.WAL.TailLSN)
		}
	}
	if v, _, err := cl.MapGetInt(mapA, "bal"); err != nil || v != 40 {
		t.Fatalf("balance A after abort = %d,%v want 40", v, err)
	}

	// Restart: replay must land on the same state (no partial slice on
	// any shard, committed transfer intact).
	s.Close()
	s2 := startServer(t, cfg)
	cl2 := dial(t, s2, 1)
	if v, _, err := cl2.MapGetInt(mapA, "bal"); err != nil || v != 40 {
		t.Errorf("balance A after restart = %d,%v want 40", v, err)
	}
	if v, _, err := cl2.MapGetInt(mapB, "bal"); err != nil || v != 10 {
		t.Errorf("balance B after restart = %d,%v want 10", v, err)
	}
}

// TestCrossShardCounterGuardSpansShards: checkout credits counter
// partials on the stock map's shard, so one counter's total can live
// split across shards. A counter guard inside a MUTATING cross-shard
// envelope must judge the GLOBAL total (gathered at the sequencer), not
// whichever shard's partial it lands on — and an in-envelope CounterSum
// must answer the global total too.
func TestCrossShardCounterGuardSpansShards(t *testing.T) {
	const shards = 4
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 8, Shards: shards})
	cl := dial(t, s, 1)
	mapA, mapB, _ := namesOnDistinctShards(t, "gm", shards)

	for _, m := range []string{mapA, mapB} {
		if err := cl.MapPutInt(m, "sku", 10); err != nil {
			t.Fatal(err)
		}
		if ok, _, err := cl.Checkout(m, server.Checkout{
			Sold:  "gsold",
			Lines: []server.CheckoutLine{{SKU: "sku", Qty: 4}},
		}); err != nil || !ok {
			t.Fatalf("checkout on %s: ok=%v err=%v", m, ok, err)
		}
	}
	// gsold is now 8, split 4/4 across two shards.

	// Guard on the global total must pass, and the envelope's writes on
	// both shards must land.
	res, err := cl.Txn().
		AssertCounterGE("gsold", 8).
		CounterSum("gsold").
		MapPutInt(mapA, "audited", 1).
		MapPutInt(mapB, "audited", 1).
		Commit()
	if err != nil {
		t.Fatalf("cross-shard tx with global counter guard: %v", err)
	}
	if res.Num(1) != 8 {
		t.Errorf("in-envelope CounterSum = %d want 8 (global total)", res.Num(1))
	}
	for _, m := range []string{mapA, mapB} {
		if v, ok, _ := cl.MapGetInt(m, "audited"); !ok || v != 1 {
			t.Errorf("%s[audited] = %d,%v want 1", m, v, ok)
		}
	}

	// One more than the total: the guard must fail on the GLOBAL sum and
	// roll back the whole envelope.
	_, err = cl.Txn().
		AssertCounterGE("gsold", 9).
		MapPutInt(mapA, "ghost", 1).
		MapPutInt(mapB, "ghost", 1).
		Commit()
	var aborted *client.ErrTxAborted
	if !errors.As(err, &aborted) {
		t.Fatalf("want ErrTxAborted, got %v", err)
	}
	if aborted.FailedOpIndex != 0 {
		t.Errorf("FailedOpIndex = %d want 0", aborted.FailedOpIndex)
	}
	for _, m := range []string{mapA, mapB} {
		if _, ok, _ := cl.MapGetInt(m, "ghost"); ok {
			t.Errorf("aborted envelope left a write on %s", m)
		}
	}
}

// TestCrossShardReadOnlyEnvelopeSeesConsistentCut: a read-only envelope
// over two shards takes its position in the cross-shard order like a
// transfer does, so it reads both balances at one cut — every read sums
// to the ledger total, never a transfer's debit without its credit.
// Transfers and reads run concurrently for a fixed number of ops each.
func TestCrossShardReadOnlyEnvelopeSeesConsistentCut(t *testing.T) {
	const (
		shards       = 2
		transferrers = 4
		transfers    = 150
		readers      = 4
		reads        = 150
		total        = int64(1000)
	)
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 16, Shards: shards})
	a, b, _ := namesOnDistinctShards(t, "cut_", shards)
	if _, err := dial(t, s, 1).Txn().MapPutInt(a, "bal", total).MapPutInt(b, "bal", 0).Commit(); err != nil {
		t.Fatal(err)
	}

	var torn, done atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < transferrers; g++ {
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < transfers; i++ {
				amt := int64(1 + rng.Intn(20))
				if rng.Intn(2) == 0 {
					amt = -amt
				}
				if _, err := cl.Txn().MapAddInt(a, "bal", -amt).MapAddInt(b, "bal", amt).Commit(); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < readers; g++ {
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				res, err := cl.Txn().MapGet(a, "bal").MapGet(b, "bal").Commit()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				va, _, errA := res.Int(0)
				vb, _, errB := res.Int(1)
				if errA != nil || errB != nil {
					t.Errorf("read: %v %v", errA, errB)
					return
				}
				done.Add(1)
				if va+vb != total {
					torn.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d of %d read-only envelopes saw a torn cut (balances not summing to %d)", n, done.Load(), total)
	}
}

// TestCrossShardReadsFollowAcknowledgedWrites: read-only envelopes are
// ordered in real time against single-shard writes. One writer sets
// A.v = i, waits for the ack, then sets B.v = i, with A and B on
// different shards; readers send {A.v, B.v} envelopes meanwhile. A read
// that sees B.v = i saw a write sent after A.v = i was acknowledged, so
// it must see A.v ≥ i: B.v > A.v is an inversion. The writer's op count
// bounds the run.
func TestCrossShardReadsFollowAcknowledgedWrites(t *testing.T) {
	const (
		shards  = 2
		writes  = 1500
		readers = 4
	)
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 16, Shards: shards})
	a, b, _ := namesOnDistinctShards(t, "rt_", shards)

	var writing atomic.Bool
	writing.Store(true)
	var inverted, reads atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for writing.Load() {
				res, err := cl.Txn().MapGet(a, "v").MapGet(b, "v").Commit()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				va, _, errA := res.Int(0)
				vb, _, errB := res.Int(1)
				if errA != nil || errB != nil {
					t.Errorf("read: %v %v", errA, errB)
					return
				}
				reads.Add(1)
				if vb > va {
					inverted.Add(1)
				}
			}
		}()
	}
	cl := dial(t, s, 1)
	for i := int64(1); i <= writes; i++ {
		if err := cl.MapPutInt(a, "v", i); err != nil {
			t.Fatalf("A.v = %d: %v", i, err)
		}
		if err := cl.MapPutInt(b, "v", i); err != nil {
			t.Fatalf("B.v = %d: %v", i, err)
		}
	}
	writing.Store(false)
	wg.Wait()
	if n := inverted.Load(); n != 0 {
		t.Fatalf("%d of %d reads saw B.v > A.v, a write acknowledged on A missing beside a later one on B", n, reads.Load())
	}
}

// TestCrossShardCrashAtomicity is the kill -9 drill: cross-shard
// transfers (and single-shard traffic, so GSN records interleave with
// plain batch records in every log) run full tilt, the server dies
// mid-commit, and after recovery NO shard may hold a partial slice —
// the spanning conservation ledger (the sum of every account balance
// across all shards) must balance exactly, because a transfer either
// happened on both shards or on neither.
func TestCrossShardCrashAtomicity(t *testing.T) {
	const (
		shards  = 4
		movers  = 3
		initial = int64(1000)
	)
	dir := t.TempDir()
	cfg := server.Config{
		Shards: shards, Workers: 4, MaxBatch: 16, BatchDelay: 200 * time.Microsecond,
		DataDir: dir, Fsync: true,
	}
	s := startServer(t, cfg)

	setup := dial(t, s, 1)
	pairs := make([][2]string, movers)
	var total int64
	for g := 0; g < movers; g++ {
		a, b, _ := namesOnDistinctShards(t, fmt.Sprintf("cm%d_", g), shards)
		pairs[g] = [2]string{a, b}
		for _, m := range []string{a, b} {
			if err := setup.MapPutInt(m, "bal", initial); err != nil {
				t.Fatal(err)
			}
			total += initial
		}
	}

	var (
		stop      atomic.Bool
		committed atomic.Int64
		wg        sync.WaitGroup
	)
	for g := 0; g < movers; g++ {
		g := g
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 31))
			for !stop.Load() {
				src, dst := pairs[g][0], pairs[g][1]
				if rng.Intn(2) == 0 {
					src, dst = dst, src
				}
				amt := int64(1 + rng.Intn(5))
				_, err := cl.Txn().
					AssertGE(src, "bal", amt).
					MapAddInt(src, "bal", -amt).
					MapAddInt(dst, "bal", amt).
					Commit()
				var aborted *client.ErrTxAborted
				if err != nil && !errors.As(err, &aborted) {
					return // killed
				}
				if err == nil {
					committed.Add(1)
				}
			}
		}()
	}
	// Single-shard traffic alongside, so every log interleaves batch
	// records with GSN records.
	noise := dial(t, s, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := noise.CounterAdd("chits", 1); err != nil {
				return
			}
			if err := noise.QueuePush("cq", server.EncodeInt64(int64(i))); err != nil {
				return
			}
		}
	}()

	time.Sleep(400 * time.Millisecond)
	s.Kill() // SIGKILL across all four WALs, mid-cross-shard-commit
	stop.Store(true)
	wg.Wait()
	if committed.Load() == 0 {
		t.Fatal("no cross-shard transfer committed before the kill")
	}

	s2 := startServer(t, cfg)
	cl := dial(t, s2, 1)
	var recovered int64
	for g := 0; g < movers; g++ {
		for _, m := range pairs[g] {
			v, ok, err := cl.MapGetInt(m, "bal")
			if err != nil || !ok {
				t.Fatalf("recovered balance %s: %v %v", m, ok, err)
			}
			if v < 0 {
				t.Errorf("account %s negative after recovery: %d", m, v)
			}
			recovered += v
		}
	}
	if recovered != total {
		t.Errorf("spanning ledger broken: recovered %d, want %d — some shard applied a partial slice", recovered, total)
	}
}

// TestCrossShardCheckpointThenRestart: a checkpoint on ONE participant
// truncates its copy of a GSN record while the peer's log still holds
// its own — the snapshot watermark is what tells recovery the truncated
// copy was applied, not lost. A restart must accept the asymmetric
// layout and reproduce the exact balances.
func TestCrossShardCheckpointThenRestart(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	cfg := server.Config{Workers: 2, MaxBatch: 8, Shards: shards, DataDir: dir, Fsync: true}
	s := startServer(t, cfg)
	cl := dial(t, s, 1)
	mapA, mapB, _ := namesOnDistinctShards(t, "wm", shards)

	for _, m := range []string{mapA, mapB} {
		if err := cl.MapPutInt(m, "bal", 500); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := cl.Txn().
			AssertGE(mapA, "bal", 7).
			MapAddInt(mapA, "bal", -7).
			MapAddInt(mapB, "bal", 7).
			Commit(); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	// Checkpoint every shard: all copies of the GSN records are now
	// snapshot-covered (watermark path), logs truncated.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// More cross-shard commits AFTER the checkpoint: these live only in
	// the logs, interleaved against the snapshots' watermarks.
	for i := 0; i < 5; i++ {
		if _, err := cl.Txn().
			AssertGE(mapB, "bal", 3).
			MapAddInt(mapB, "bal", -3).
			MapAddInt(mapA, "bal", 3).
			Commit(); err != nil {
			t.Fatalf("post-checkpoint transfer %d: %v", i, err)
		}
	}
	s.Close()

	s2 := startServer(t, cfg)
	cl2 := dial(t, s2, 1)
	a, _, err := cl2.MapGetInt(mapA, "bal")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := cl2.MapGetInt(mapB, "bal")
	if err != nil {
		t.Fatal(err)
	}
	if a != 500-70+15 || b != 500+70-15 {
		t.Errorf("recovered balances A=%d B=%d, want %d/%d", a, b, 500-70+15, 500+70-15)
	}
	if a+b != 1000 {
		t.Errorf("conservation broken across checkpoint+restart: %d", a+b)
	}
}
