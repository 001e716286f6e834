package main

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pnstm/client"
	"pnstm/server"
)

// Crash-recovery mode (-kill-after): boot an embedded durable server,
// drive a write-heavy mix for the given duration, hard-kill it —
// server.Kill abandons the WAL without flushing, the in-process
// equivalent of SIGKILL — then restart on the same data directory and
// check the recovered store against what the clients saw acked:
//
//   - counter: recovered sum within [acked, attempted] adds — nothing
//     acked lost, nothing invented beyond the in-flight window
//   - queues (one per producer, sequential values): recovered contents
//     are exactly 0..n-1 in FIFO order, n within [acked, attempted]
//   - checkout: stock conservation and revenue consistency hold
//     EXACTLY in any recovered state, and units sold ≥ units acked
//   - cross-shard ledger: guarded transfers between account maps on
//     different shards run throughout; the recovered ledger total
//     equals the provisioned total EXACTLY — a kill that lands between
//     a cross-shard commit's per-shard appends must recover to the
//     whole transfer or none of it, never one shard's half
//
// The cross-process variant of the same drill — real kill -9 against a
// pnstmd -data-dir, then -recovery-check — runs in CI.

// crashTally tracks acked-vs-attempted per invariant.
type crashTally struct {
	producers     int
	ackedAdds     atomic.Int64
	attemptedAdds atomic.Int64
	ackedSold     atomic.Int64
	ackedPush     []atomic.Int64
	attemptedPush []atomic.Int64
}

// runCrash drives the crash-recovery drill; returns an error when load
// could not run or any invariant fails. With shards > 1 the drilled
// server runs that many engine partitions, each with its own WAL —
// recovery must replay every shard's log.
func runCrash(o *options) error {
	cfg, shards, dataDir, killAfter := o.cfg, o.shards, o.dataDir, o.killAfter
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "pnstm-crash-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	} else if entries, err := os.ReadDir(dataDir); err == nil && len(entries) > 0 {
		// The drill's invariants assume the run starts from nothing
		// (fresh counters, queues pushed 0..n-1, stock == stockPer);
		// recovering an earlier run's state would report them as false
		// violations.
		return fmt.Errorf("crash drill needs an empty -data-dir, but %s has %d entries", dataDir, len(entries))
	}
	scfg := server.Config{
		Addr:     "127.0.0.1:0",
		Shards:   shards,
		Workers:  o.workers,
		MaxBatch: o.maxBatch,
		DataDir:  dataDir,
		Fsync:    true,
	}
	env, err := bootLeg(scfg, false, cfg.conns)
	if err != nil {
		return err
	}
	defer env.close() // after the Kill below: only the client is left to close
	cl := env.cl

	for i := 0; i < cfg.skus; i++ {
		if err := cl.MapPutInt(stockName, skuName(i), cfg.stockPer); err != nil {
			return fmt.Errorf("crash setup: %w", err)
		}
	}
	for i := 0; i < acctMaps; i++ {
		for j := 0; j < acctPerMap; j++ {
			if err := cl.MapPutInt(acctMapName(i), acctKeyName(j), acctInitial); err != nil {
				return fmt.Errorf("crash setup ledger: %w", err)
			}
		}
	}

	producers := cfg.concurrency / 2
	if producers < 1 {
		producers = 1
	}
	buyers := cfg.concurrency - producers
	if buyers < 1 {
		buyers = 1
	}
	tally := &crashTally{
		producers:     producers,
		ackedPush:     make([]atomic.Int64, producers),
		attemptedPush: make([]atomic.Int64, producers),
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tally.attemptedPush[g].Add(1)
				if err := cl.QueuePush(crashQueueName(g), server.EncodeInt64(int64(i))); err != nil {
					return // killed
				}
				tally.ackedPush[g].Add(1)
				tally.attemptedAdds.Add(2)
				if err := cl.CounterAdd(counterName, 2); err != nil {
					return
				}
				tally.ackedAdds.Add(2)
			}
		}()
	}
	for g := 0; g < buyers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(g)*7919))
			for !stop.Load() {
				qty := int64(1 + rng.Intn(3))
				ok, _, err := cl.Checkout(stockName, server.Checkout{
					Sold: soldName, Revenue: revenueName, Cents: qty * 100,
					Lines: []server.CheckoutLine{{SKU: skuName(rng.Intn(cfg.skus)), Qty: qty}},
				})
				if err != nil {
					return // killed
				}
				if ok {
					tally.ackedSold.Add(qty)
				}
			}
		}()
	}

	// Cross-shard movers: guarded transfers between account maps on
	// (with shards > 1) different shards, running right through the
	// kill. No tally needed — transfers are zero-sum, so the recovered
	// ledger total is exact whatever subset of them survived.
	var movedAcks atomic.Int64
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 104729 + int64(g)))
			for !stop.Load() {
				src := rng.Intn(acctMaps)
				dst := acctPartnerOf(src, shards)
				srcKey := acctKeyName(rng.Intn(acctPerMap))
				amt := int64(1 + rng.Intn(5))
				_, err := cl.Txn().
					AssertGE(acctMapName(src), srcKey, amt).
					MapAddInt(acctMapName(src), srcKey, -amt).
					MapAddInt(acctMapName(dst), acctKeyName(rng.Intn(acctPerMap)), amt).
					Commit()
				var aborted *client.ErrTxAborted
				if errors.As(err, &aborted) {
					continue // a guard lost: fine, nothing moved
				}
				if err != nil {
					return // killed
				}
				movedAcks.Add(1)
			}
		}()
	}

	time.Sleep(killAfter)
	env.srv.Kill()
	stop.Store(true)
	wg.Wait()
	fmt.Printf("== killed pnstmd after %v: %d adds, %d units sold, %d cross-shard transfers acked before the crash\n",
		killAfter, tally.ackedAdds.Load(), tally.ackedSold.Load(), movedAcks.Load())
	if tally.ackedAdds.Load() == 0 && tally.ackedSold.Load() == 0 {
		return fmt.Errorf("no load was acked before the kill; raise -kill-after")
	}

	// Restart on the same directory and verify.
	env2, err := bootLeg(scfg, false, 1)
	if err != nil {
		return fmt.Errorf("restart after crash: %w", err)
	}
	defer env2.close()

	// On a sharded server WALStats sums per-shard figures, so these are
	// record totals across all logs, not single log positions.
	ws := env2.srv.WALStats()
	fmt.Printf("== recovered: %d snapshot-covered records, %d wal records, %d durable records\n",
		ws.SnapshotLSN, ws.RecoveredRecords, ws.TailLSN)

	violations, recovered := verifyCrashRecovery(env2.cl, cfg, tally)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "INVARIANT VIOLATED: %s\n", v)
	}
	if len(violations) == 0 {
		fmt.Println("== crash-recovery invariants ok (counter, queue FIFO, conservation)")
	}

	if o.jsonDir != "" {
		name := o.name
		if name == "" {
			name = "loadgen-crash-recovery"
		}
		rep := newReport(name, cfg)
		maps.Copy(rep.Config, map[string]any{
			"kill_after": killAfter.String(), "workers": o.workers, "max_batch": o.maxBatch, "shards": shards,
		})
		rep.Metrics = map[string]float64{
			"acked_adds":        float64(tally.ackedAdds.Load()),
			"recovered_counter": float64(recovered.counter),
			"acked_sold":        float64(tally.ackedSold.Load()),
			"recovered_sold":    float64(recovered.sold),
			"wal_records":       float64(ws.RecoveredRecords),
			"snapshot_lsn":      float64(ws.SnapshotLSN),
			"violations":        float64(len(violations)),
		}
		if len(violations) == 0 {
			rep.Notes = []string{"crash-recovery invariants ok"}
		} else {
			rep.Notes = violations
		}
		path, err := rep.WriteFile(o.jsonDir)
		if err != nil {
			return err
		}
		fmt.Printf("report: %s\n", path)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d crash-recovery invariant violations", len(violations))
	}
	return nil
}

func crashQueueName(g int) string { return fmt.Sprintf("bench:crashq%d", g) }

// recoveredState is what verifyCrashRecovery read back.
type recoveredState struct {
	counter int64
	sold    int64
}

// verifyCrashRecovery checks the recovered store against the tally.
func verifyCrashRecovery(cl *client.Client, cfg genCfg, tally *crashTally) ([]string, recoveredState) {
	var out []string
	var rec recoveredState
	fail := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	sum, err := cl.CounterSum(counterName)
	if err != nil {
		fail("counter sum: %v", err)
		return out, rec
	}
	rec.counter = sum
	if sum < tally.ackedAdds.Load() || sum > tally.attemptedAdds.Load() {
		fail("counter %d outside [acked %d, attempted %d]", sum, tally.ackedAdds.Load(), tally.attemptedAdds.Load())
	}

	for g := 0; g < tally.producers; g++ {
		name := crashQueueName(g)
		n, err := cl.QueueLen(name)
		if err != nil {
			fail("queue %s len: %v", name, err)
			return out, rec
		}
		if n < tally.ackedPush[g].Load() || n > tally.attemptedPush[g].Load() {
			fail("queue %s holds %d, outside [acked %d, attempted %d]",
				name, n, tally.ackedPush[g].Load(), tally.attemptedPush[g].Load())
		}
		for i := int64(0); i < n; i++ {
			raw, ok, err := cl.QueuePop(name)
			if err != nil || !ok {
				fail("queue %s pop %d: ok=%v err=%v", name, i, ok, err)
				return out, rec
			}
			if v, _ := server.DecodeInt64(raw); v != i {
				fail("queue %s pop %d = %d: FIFO prefix broken", name, i, v)
				break
			}
		}
	}

	var remaining int64
	for i := 0; i < cfg.skus; i++ {
		v, ok, err := cl.MapGetInt(stockName, skuName(i))
		if err != nil || !ok {
			fail("stock %s: ok=%v err=%v", skuName(i), ok, err)
			return out, rec
		}
		if v < 0 {
			fail("stock %s oversold after recovery: %d", skuName(i), v)
		}
		remaining += v
	}
	sold, err := cl.CounterSum(soldName)
	if err != nil {
		fail("sold sum: %v", err)
		return out, rec
	}
	rec.sold = sold
	revenue, err := cl.CounterSum(revenueName)
	if err != nil {
		fail("revenue sum: %v", err)
		return out, rec
	}
	if total, want := remaining+sold, int64(cfg.skus)*cfg.stockPer; total != want {
		fail("conservation violated: remaining %d + sold %d = %d, want %d", remaining, sold, total, want)
	}
	if revenue != sold*100 {
		fail("revenue %d inconsistent with %d units sold", revenue, sold)
	}
	if sold < tally.ackedSold.Load() {
		fail("recovered sold %d < acked sold %d: durable acks lost", sold, tally.ackedSold.Load())
	}

	// Cross-shard ledger: transfers are zero-sum, so the recovered
	// total is EXACT — a torn cross-shard commit (one shard's half
	// replayed without the other) is the only way it can drift.
	var ledger int64
	for i := 0; i < acctMaps; i++ {
		for j := 0; j < acctPerMap; j++ {
			v, ok, err := cl.MapGetInt(acctMapName(i), acctKeyName(j))
			if err != nil || !ok {
				fail("ledger %s/%s: ok=%v err=%v", acctMapName(i), acctKeyName(j), ok, err)
				return out, rec
			}
			if v < 0 {
				fail("ledger %s/%s overdrawn after recovery: %d", acctMapName(i), acctKeyName(j), v)
			}
			ledger += v
		}
	}
	if want := int64(acctMaps) * int64(acctPerMap) * acctInitial; ledger != want {
		fail("ledger total %d after recovery, want %d: a cross-shard transfer split", ledger, want)
	}
	return out, rec
}

// runRecoveryCheck (-recovery-check) connects to a freshly restarted
// pnstmd and verifies the invariants a recovered store must satisfy
// after an earlier checkout load: non-negative stock, exact
// conservation, revenue consistency. The baselines come from the
// bench:meta entries the load's setup wrote into the store itself —
// durable alongside the data — so the check needs no memory of the
// pre-crash process (CI kills pnstmd with a real SIGKILL in between)
// and stays exact however many load runs the data dir has seen.
func runRecoveryCheck(addr string, cfg genCfg) error {
	cl, err := client.Connect(client.Options{Addrs: []string{addr}, PoolSize: 1})
	if err != nil {
		return err
	}
	defer cl.Close()

	var violations []string
	fail := func(format string, args ...any) { violations = append(violations, fmt.Sprintf(format, args...)) }

	// Provisioning epoch: prefer the durable meta (exact across reuse);
	// fall back to the flags' fresh-dir assumption when absent.
	meta := func(key string, fallback int64) int64 {
		v, ok, err := cl.MapGetInt(metaName, key)
		if err != nil || !ok {
			return fallback
		}
		return v
	}
	skus := int(meta("skus", int64(cfg.skus)))
	stockTotal := meta("stock_total", int64(cfg.skus)*cfg.stockPer)
	sold0 := meta("sold0", 0)
	revenue0 := meta("revenue0", 0)

	var remaining, sold int64
	stocked := 0
	for i := 0; i < skus; i++ {
		v, ok, err := cl.MapGetInt(stockName, skuName(i))
		if err != nil {
			return fmt.Errorf("stock %s: %w", skuName(i), err)
		}
		if !ok {
			continue // this SKU never provisioned
		}
		stocked++
		if v < 0 {
			fail("stock %s oversold: %d", skuName(i), v)
		}
		remaining += v
	}
	if stocked > 0 {
		if stocked != skus {
			fail("only %d of %d SKUs survived recovery", stocked, skus)
		}
		soldAbs, err := cl.CounterSum(soldName)
		if err != nil {
			return err
		}
		revenueAbs, err := cl.CounterSum(revenueName)
		if err != nil {
			return err
		}
		var revenue int64
		sold, revenue = soldAbs-sold0, revenueAbs-revenue0
		if total := remaining + sold; total != stockTotal {
			fail("conservation violated: remaining %d + sold %d = %d, want %d", remaining, sold, total, stockTotal)
		}
		if revenue != sold*100 {
			fail("revenue %d inconsistent with %d units sold", revenue, sold)
		}
	}
	// The mixed/readmap preload is durable before the measured load
	// starts, and its puts only overwrite preloaded keys.
	if n, err := cl.MapLen(mapName); err != nil {
		return err
	} else if n != 0 && n != int64(cfg.keys) {
		fail("map %q has %d keys after recovery, want %d", mapName, n, cfg.keys)
	}

	// Cross-shard ledger, when a crossshard load provisioned one (its
	// meta records the layout durably; absent meta means no ledger ran
	// on this data dir). Transfers are zero-sum, so the total is exact.
	ledgerChecked := false
	if acctTotal, ok, err := cl.MapGetInt(metaName, "acct_total"); err != nil {
		return err
	} else if ok {
		ledgerChecked = true
		maps := int(meta("acct_maps", acctMaps))
		perMap := int(meta("acct_per_map", acctPerMap))
		var ledger int64
		for i := 0; i < maps; i++ {
			for j := 0; j < perMap; j++ {
				v, ok, err := cl.MapGetInt(acctMapName(i), acctKeyName(j))
				if err != nil {
					return fmt.Errorf("ledger %s/%s: %w", acctMapName(i), acctKeyName(j), err)
				}
				if !ok {
					fail("ledger %s/%s missing after recovery", acctMapName(i), acctKeyName(j))
					continue
				}
				if v < 0 {
					fail("ledger %s/%s overdrawn after recovery: %d", acctMapName(i), acctKeyName(j), v)
				}
				ledger += v
			}
		}
		if ledger != acctTotal {
			fail("ledger total %d after recovery, want %d: a cross-shard transfer split", ledger, acctTotal)
		}
	}

	// Pipeline state, when a pipeline load provisioned this data dir
	// (its board_players meta is the marker): lease conservation from
	// the store's own produced/done ledger, no double-counted acks, no
	// resurrected expired sessions, the permanent set intact.
	pipelineChecked := false
	if boardPlayers, ok, err := cl.MapGetInt(metaName, "board_players"); err != nil {
		return err
	} else if ok {
		pipelineChecked = true
		violations = append(violations, verifyPipelineRecovery(cl, boardPlayers, meta)...)
	}

	if stocked == 0 && !ledgerChecked && !pipelineChecked {
		return fmt.Errorf("recovery-check: no checkout stock, ledger, or pipeline state found — was a load run against this data dir?")
	}

	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "INVARIANT VIOLATED: %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d recovery invariant violations", len(violations))
	}
	if stocked > 0 {
		fmt.Printf("recovery-check ok: %d SKUs, %d remaining + %d sold = %d, revenue consistent\n",
			stocked, remaining, sold, remaining+sold)
	}
	if ledgerChecked {
		fmt.Println("recovery-check ok: cross-shard ledger total conserved exactly")
	}
	if pipelineChecked {
		fmt.Println("recovery-check ok: lease ledger conserved, no resurrected sessions")
	}
	return nil
}
