package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pnstm/client"
	"pnstm/server"
)

// The pipeline workload drives the second-generation structures (D45)
// together, the way a real service composes them:
//
//   - leaderboard: a sorted map of players, score overwrites racing
//     top-K range reads — the parallel-subrange scan path under writer
//     churn
//   - sessions: TTL'd map entries churning on short deadlines, plus a
//     set of permanent entries that must never vanish and a set written
//     pre-expired that must never be readable (or resurrect after a
//     crash)
//   - work queue: producers push jobs, consumers take leases and ack —
//     MOSTLY; a fraction abandon their lease on purpose so the server's
//     reaper requeues it (at-least-once redelivery)
//
// Every push rides an envelope with a produced-counter increment and
// every ack rides one with a done-counter increment, so the store
// carries its own ledger: produced − done == queued + leased holds
// EXACTLY at any quiescent point — live at the end of a run, and in
// whatever state a kill -9 recovered (-recovery-check re-derives it
// from the durable meta with no memory of the run). An ack whose lease
// the reaper already reclaimed aborts its whole envelope, so a
// redelivered job can never be counted done twice.

const (
	boardName     = "bench:board"
	sessionsName  = "bench:sessions"
	producedName  = "bench:pipe:produced"
	doneName      = "bench:pipe:done"
	permSessions  = 16 // provisioned without TTL: must survive everything
	expSessions   = 16 // provisioned already expired: must never be readable
	pipeLeaseTTL  = 150 * time.Millisecond
	pipeTopK      = 10
	sessionSpace  = 256 // churned session key-space
	pipeAbandonIn = 5   // 1 in N consumed leases is abandoned to the reaper
)

func playerKey(i int) string      { return fmt.Sprintf("player%05d", i) }
func pipeQueueName(i int) string  { return fmt.Sprintf("bench:pipe:q%d", i) }
func sessionKey(i int) string     { return fmt.Sprintf("sess%04d", i) }
func permSessionKey(i int) string { return fmt.Sprintf("perm%02d", i) }
func expSessionKey(i int) string  { return fmt.Sprintf("exp%02d", i) }

// setupPipeline provisions the board and the session sets, and adds
// their provisioning record to meta.
func (d *driver) setupPipeline(meta map[string]int64) error {
	c := d.cfg
	for i := 0; i < c.keys; i++ {
		if err := d.cl.SortedPut(boardName, playerKey(i), server.EncodeInt64(int64(i))); err != nil {
			return fmt.Errorf("setup board: %w", err)
		}
	}
	now := time.Now()
	for i := 0; i < permSessions; i++ {
		if err := d.cl.MapPut(sessionsName, permSessionKey(i), []byte("permanent")); err != nil {
			return fmt.Errorf("setup sessions: %w", err)
		}
	}
	for i := 0; i < expSessions; i++ {
		if err := d.cl.MapPutTTL(sessionsName, expSessionKey(i), []byte("dead"), now.Add(-time.Hour).UnixNano()); err != nil {
			return fmt.Errorf("setup expired sessions: %w", err)
		}
	}
	meta["board_players"], meta["pipe_queues"] = int64(c.keys), int64(c.queues)
	meta["perm_sessions"], meta["exp_sessions"] = permSessions, expSessions
	var err error
	if d.base.pipeDone, err = d.cl.CounterSum(doneName); err != nil {
		return fmt.Errorf("setup pipeline baselines: %w", err)
	}
	return nil
}

// opPipeline issues one operation of the pipeline mix.
func (d *driver) opPipeline(rng *rand.Rand) error {
	switch r := rng.Intn(10); {
	case r < 2: // score overwrite on a preloaded player
		return d.cl.SortedPut(boardName, playerKey(rng.Intn(d.cfg.keys)), server.EncodeInt64(rng.Int63n(1<<20)))
	case r < 4: // top-K read racing the writers
		es, err := d.cl.RangeScan(boardName, "", "", pipeTopK)
		if err != nil {
			return err
		}
		for i := 1; i < len(es); i++ {
			if es[i-1].Key >= es[i].Key {
				return fmt.Errorf("top-K scan out of order: %q >= %q", es[i-1].Key, es[i].Key)
			}
		}
		return nil
	case r < 5: // session churn: short-TTL write
		deadline := time.Now().Add(time.Duration(100+rng.Intn(900)) * time.Millisecond)
		return d.cl.MapPutTTL(sessionsName, sessionKey(rng.Intn(sessionSpace)),
			[]byte("tok"), deadline.UnixNano())
	case r < 6: // session read (expired keys must read as absent; no tally)
		_, _, err := d.cl.MapGet(sessionsName, sessionKey(rng.Intn(sessionSpace)))
		return err
	case r < 8: // produce: push + produced-counter, one atomic envelope
		q := pipeQueueName(rng.Intn(d.cfg.queues))
		_, err := d.cl.Txn().
			QueuePush(q, server.EncodeInt64(rng.Int63())).
			CounterAdd(producedName, 1).
			Commit()
		if err != nil {
			return err
		}
		d.pipeProduced.Add(1)
		return nil
	default: // consume under lease; mostly ack, sometimes abandon
		q := pipeQueueName(rng.Intn(d.cfg.queues))
		id, _, ok, err := d.cl.LeaseConsume(q, time.Now().Add(pipeLeaseTTL).UnixNano())
		if err != nil {
			return err
		}
		if !ok {
			return nil // queue drained; the op still counts
		}
		if rng.Intn(pipeAbandonIn) == 0 {
			d.pipeAbandoned.Add(1) // walk away; the reaper requeues it
			return nil
		}
		_, err = d.cl.Txn().
			LeaseAck(q, id).
			CounterAdd(doneName, 1).
			Commit()
		var aborted *client.ErrTxAborted
		if errors.As(err, &aborted) {
			// The lease outlived its deadline and the reaper reclaimed it
			// before the ack landed: the job redelivers to someone else,
			// and crucially the done counter did NOT move.
			d.rejected.Add(1)
			return nil
		}
		if err != nil {
			return err
		}
		d.pipeAcked.Add(1)
		return nil
	}
}

// scanLoad is the load of both rangescan A/B legs (see the table row in
// ab.go): half the issuing goroutines scan the whole provisioned board,
// the other half overwrite scores, and the measured ops are the scans.
// Every scan must come back with EXACTLY the provisioned player count —
// writers only overwrite — so the A/B doubles as an atomicity check on
// the scan path under maximum churn.
func scanLoad(env *legEnv, o *abOpts) (*genResult, error) {
	cl, cfg := env.cl, o.cfg
	for i := 0; i < cfg.keys; i++ {
		if err := cl.SortedPut(boardName, playerKey(i), server.EncodeInt64(int64(i))); err != nil {
			return nil, fmt.Errorf("provision board: %w", err)
		}
	}
	scanners := cfg.concurrency / 2
	if scanners < 1 {
		scanners = 1
	}
	writers := cfg.concurrency - scanners
	if writers < 1 {
		writers = 1
	}
	fmt.Printf("   scanners=%d writers=%d players=%d\n", scanners, writers, cfg.keys)

	var scans, writes, errs, badScans atomic.Int64
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				// RangeCount walks every leaf exactly as RangeScan does —
				// same subrange children, same conflict footprint —
				// without shipping the board back, so the A/B measures the
				// scan machinery, not response encoding.
				n, err := cl.RangeCount(boardName, "", "")
				if err != nil {
					errs.Add(1)
					return
				}
				if n != int64(cfg.keys) {
					badScans.Add(1)
				}
				scans.Add(1)
			}
		}()
	}
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(g)*7919))
			for time.Now().Before(deadline) {
				// A 4-score update envelope touches leaves in random order,
				// so it collides with an in-flight scan's ascending leaf
				// walk instead of queueing behind it — the scan loses
				// sometimes, and what a lost scan redoes is exactly what
				// the fork width decides.
				tx := cl.Txn()
				for i := 0; i < 4; i++ {
					tx.SortedPut(boardName, playerKey(rng.Intn(cfg.keys)),
						server.EncodeInt64(rng.Int63n(1<<20)))
				}
				if _, err := tx.Commit(); err != nil {
					errs.Add(1)
					return
				}
				writes.Add(1)
			}
		}()
	}
	wg.Wait()
	res := &genResult{ops: scans.Load(), errs: errs.Load(), wall: time.Since(start)}
	res.extra = map[string]float64{"writes_per_sec": float64(writes.Load()) / res.wall.Seconds()}
	if n := badScans.Load(); n > 0 {
		res.violations = append(res.violations,
			fmt.Sprintf("%d scans saw a partial board (atomicity broken under churn)", n))
	}
	return res, nil
}
