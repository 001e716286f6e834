package main

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pnstm/server"
)

// Crash-recovery mode (-kill-after): boot an embedded durable server,
// provision it through the driver's setup (the same bench:meta record a
// load against pnstmd leaves), drive a write-heavy mix for the given
// duration, hard-kill it — server.Kill abandons the WAL without
// flushing, the in-process equivalent of SIGKILL — then restart on the
// same data directory. The recovered store gets exactly the check
// -recovery-check runs (laws.go: checkout conservation, the exact
// cross-shard ledger — a kill between a cross-shard commit's per-shard
// appends must recover to the whole transfer or none of it), plus the
// laws only the drill's pre-crash tallies can bound:
//
//   - counter: recovered sum within [acked, attempted] adds — nothing
//     acked lost, nothing invented beyond the in-flight window
//   - queues (one per producer, sequential values): recovered contents
//     are exactly 0..n-1 in FIFO order, n within [acked, attempted]
//   - checkout: units sold ≥ units acked
//
// The cross-process variant of the same drill — real kill -9 against a
// pnstmd -data-dir, then -recovery-check — runs in CI.

// crashTally tracks acked-vs-attempted pushes and adds.
type crashTally struct {
	ackedAdds     atomic.Int64
	attemptedAdds atomic.Int64
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
		// The drill's tallied laws assume the run starts from nothing
		// (fresh counters, queues pushed 0..n-1); recovering an earlier
		// run's state would report them as false violations.
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
	d := &driver{cfg: cfg, wl: &workload{parts: partCheckout | partLedger}, cl: cl}
	if err := d.setup(); err != nil {
		return fmt.Errorf("crash setup: %w", err)
	}

	producers := max(cfg.concurrency/2, 1)
	buyers := max(cfg.concurrency-producers, 1)
	tally := &crashTally{
		ackedPush:     make([]atomic.Int64, producers),
		attemptedPush: make([]atomic.Int64, producers),
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	// spawn runs op on n goroutines, each with its own seeded rng, until
	// the kill stops it or an op fails (the server is gone).
	spawn := func(n int, seed int64, op func(g int, rng *rand.Rand) error) {
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(g)*7919))
				for !stop.Load() && op(g, rng) == nil {
				}
			}()
		}
	}
	spawn(producers, cfg.seed, func(g int, _ *rand.Rand) error {
		// Each push is acked before the next is sent, so the next value
		// is the count acked so far.
		next := tally.ackedPush[g].Load()
		tally.attemptedPush[g].Add(1)
		if err := cl.QueuePush(crashQueueName(g), server.EncodeInt64(next)); err != nil {
			return err
		}
		tally.ackedPush[g].Add(1)
		tally.attemptedAdds.Add(2)
		if err := cl.CounterAdd(counterName, 2); err != nil {
			return err
		}
		tally.ackedAdds.Add(2)
		return nil
	})
	spawn(buyers, cfg.seed+1, func(_ int, rng *rand.Rand) error { return d.opCheckout(rng) })
	// Cross-shard movers: guarded transfers between account maps on
	// (with shards > 1) different shards, running right through the
	// kill. No tally needed — transfers are zero-sum, so the recovered
	// ledger total is exact whatever subset of them survived.
	var moved atomic.Int64
	spawn(2, cfg.seed+104729, func(_ int, rng *rand.Rand) error {
		err := d.opAcctTransfer(rng)
		if err == nil {
			moved.Add(1)
		}
		return err
	})

	time.Sleep(killAfter)
	env.srv.Kill()
	stop.Store(true)
	wg.Wait()
	fmt.Printf("== killed pnstmd after %v: %d adds, %d units sold, %d cross-shard transfers settled before the crash\n",
		killAfter, tally.ackedAdds.Load(), d.sold.Load(), moved.Load())
	if tally.ackedAdds.Load() == 0 && d.sold.Load() == 0 {
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

	c := &check{cl: env2.cl}
	found, sold := c.recovered()
	if len(found) != 2 {
		c.fail("%s kept the provisioning record of %v, want checkout and ledger", metaName, found)
	}
	counter := c.counter(tally.ackedAdds.Load(), tally.attemptedAdds.Load())
	for g := 0; g < producers; g++ {
		c.fifoPrefix(crashQueueName(g), tally.ackedPush[g].Load(), tally.attemptedPush[g].Load())
	}
	if sold < d.sold.Load() {
		c.fail("recovered sold %d < acked sold %d: durable acks lost", sold, d.sold.Load())
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
			"recovered_counter": float64(counter),
			"acked_sold":        float64(d.sold.Load()),
			"recovered_sold":    float64(sold),
			"wal_records":       float64(ws.RecoveredRecords),
			"snapshot_lsn":      float64(ws.SnapshotLSN),
			"violations":        float64(len(c.out)),
		}
		rep.Notes = c.out
		if len(c.out) == 0 {
			rep.Notes = []string{"crash-recovery invariants ok"}
		}
		path, err := rep.WriteFile(o.jsonDir)
		if err != nil {
			return err
		}
		fmt.Printf("report: %s\n", path)
	}
	return c.verdict("== crash-recovery invariants ok (" + strings.Join(found, ", ") + ", counter, queue FIFO)")
}

func crashQueueName(g int) string { return fmt.Sprintf("bench:crashq%d", g) }
