package server

import (
	"sync"
	"sync/atomic"
	"time"

	"pnstm"
	"pnstm/stmlib"
)

// The TTL/lease reaper (D47). Reads already hide expired map and
// sorted-map entries, and lease deadlines are judged when a reclaim
// runs — so expiry SEMANTICS need no background work at all. What the
// reaper does is reclaim space and requeue abandoned leases: each tick
// it scans every shard's expiry index (one deadline-ordered sorted map
// per registry, maintained exactly by the structures' hooks) for
// entries due by the tick's wall-clock cutoff, then submits ordinary
// OpTx envelopes of OpExpire/OpSortedExpire/OpLeaseReclaim through the
// shard's batch pipeline.
//
// Routing reaps through the batcher is what keeps replicas honest: the
// envelopes serialize with client traffic in the shard's commit order,
// land in the WAL with their EXPLICIT cutoff, and replay (crash
// recovery and WAL-shipping replicas alike) re-executes them
// deterministically — the only wall-clock read is here, on the primary,
// before the ops are minted. The scan itself is a read-only root
// transaction and is never logged.

// reaperStats counts the reaper's lifetime work, for Stats and tests.
type reaperStats struct {
	ticks     atomic.Uint64
	expired   atomic.Uint64 // map + sorted-map entries physically removed
	reclaimed atomic.Uint64 // expired leases requeued
}

// reapChunk bounds one reap envelope's op count. A chunk is one batch
// transaction: keeping it modest bounds the work a conflicting client
// write can force the envelope to retry, and bounds the WAL record it
// logs. Within a chunk the ops are grouped per structure, so a large
// chunk still fans as parallel-nested children (applyTx).
const reapChunk = 512

func (s *Server) reapLoop() {
	defer close(s.reapDone)
	t := time.NewTicker(s.cfg.Load().ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-t.C:
			s.Reap(time.Now().UnixNano())
		}
	}
}

// stopReaper stops the background loop (no-op when it never started).
func (s *Server) stopReaper() {
	if s.reapStop != nil {
		close(s.reapStop)
		<-s.reapDone
		s.reapStop = nil
	}
}

// Reap runs one reaper pass over every shard with the given cutoff
// (UnixNano): every map/sorted entry whose deadline is <= cutoff is
// physically removed, every lease due by then requeued. It blocks until
// the submitted envelopes are answered and returns what they did.
// Exported for tests and for deployments that schedule reaping
// externally instead of via Config.ReapInterval.
func (s *Server) Reap(cutoff int64) (expired, reclaimed int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			e, r := s.reapShard(sh, cutoff)
			mu.Lock()
			expired += e
			reclaimed += r
			mu.Unlock()
		}(sh)
	}
	wg.Wait()
	s.reapObs.ticks.Add(1)
	s.reapObs.expired.Add(uint64(expired))
	s.reapObs.reclaimed.Add(uint64(reclaimed))
	return expired, reclaimed
}

// reapShard scans one shard's expiry index and applies the due work.
func (s *Server) reapShard(sh *shard, cutoff int64) (expired, reclaimed int) {
	// Phase 1: read-only scan of the index, deadline order. The scan and
	// the apply are separate transactions on purpose — the apply ops
	// re-judge every deadline (ExpireThrough/ReclaimExpired are no-ops
	// for entries that were deleted or re-TTL'd in between), so the gap
	// costs at most a wasted op, never a wrong removal. The scan is a
	// task on the loop, like every root on the live registry.
	var due []stmlib.SortedEntry[string, []byte]
	err := sh.do(func() error {
		return sh.rt.Run(func(c *pnstm.Ctx) {
			due = sh.reg.ExpiryIndex().RangeScan(c, "", stmlib.ExpiryCutoffKey(cutoff), 0)
		})
	})
	if err != nil || len(due) == 0 {
		return 0, 0
	}

	// Phase 2: mint the ops. Map and sorted entries expire per key;
	// lease entries collapse to one reclaim per queue (ReclaimExpired
	// sweeps every due lease of that queue in id order).
	var ops []TxOp
	leaseQueues := make(map[string]bool)
	for _, e := range due {
		_, kind, name, ref, ok := stmlib.ParseExpiryKey(e.Key)
		if !ok {
			continue
		}
		switch kind {
		case stmlib.ExpiryKindMap:
			ops = append(ops, TxOp{Op: OpExpire, Name: name, Key: ref, Delta: cutoff})
		case stmlib.ExpiryKindSorted:
			ops = append(ops, TxOp{Op: OpSortedExpire, Name: name, Key: ref, Delta: cutoff})
		case stmlib.ExpiryKindLease:
			if !leaseQueues[name] {
				leaseQueues[name] = true
				ops = append(ops, TxOp{Op: OpLeaseReclaim, Name: name, Delta: cutoff})
			}
		}
	}

	// Phase 3: submit through the batch pipeline in chunks and tally
	// what actually happened from the per-op results.
	for lo := 0; lo < len(ops); lo += reapChunk {
		hi := lo + reapChunk
		if hi > len(ops) {
			hi = len(ops)
		}
		req := Request{Op: OpTx, Tx: &Tx{Ops: ops[lo:hi]}}
		done := make(chan Response, 1)
		if !sh.submit(&pending{req: req, reply: replyFunc(func(r Response) { done <- r })}) {
			return expired, reclaimed // shutting down
		}
		resp := <-done
		if resp.Status != StatusOK {
			s.log.Warn("reap envelope failed", "shard", sh.id, "status", resp.Status, "msg", resp.Msg)
			continue
		}
		for i, res := range resp.TxResults {
			if req.Tx.Ops[i].Op == OpLeaseReclaim {
				reclaimed += int(res.Num)
			} else if res.Found { // an expiry that removed its entry
				expired++
			}
		}
	}
	return expired, reclaimed
}
