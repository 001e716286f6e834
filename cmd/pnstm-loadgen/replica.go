package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pnstm/client"
	"pnstm/server"
)

// replicaCount is the replica A/B's fixed fan-out: one durable primary
// plus two in-memory replicas — the smallest deployment where read
// scale-out must beat the single-box number (the BENCH floor is 1.4x,
// well under the 3x pipe count, leaving room for replication overhead).
const replicaCount = 2

// replicaCatchupTimeout bounds how long a leg waits for every replica
// shard to drain the primary's WAL before its reads start.
const replicaCatchupTimeout = 30 * time.Second

// replicaWriters is the background write pressure both legs run against
// the primary: closed-loop overwriters whose batches each pay the WAL
// fsync. They are the reason reads want off the primary.
const replicaWriters = 8

// replicaLoad is the load of both replica A/B legs (see the table row in
// ab.go): boot replicaCount replicas tailing the leg's durable primary —
// they tail through the primary-only leg too, exactly as they would in
// production — provision the read map, wait until every replica shard
// has drained the primary's WAL (a read leg against syncing replicas
// would measure missing keys, not read capacity), then measure the reads
// with the write pump running. pool selects the client: the primary
// alone, or the primary plus the replicas with ReadPreferReplica.
func replicaLoad(pool bool) func(env *legEnv, o *abOpts) (*genResult, error) {
	return func(env *legEnv, o *abOpts) (*genResult, error) {
		primary := env.srv.Addr().String()
		addrs := []string{primary}
		replicas := make([]*server.Server, replicaCount)
		for i := range replicas {
			rcfg := o.base()
			rcfg.ReplicaOf = primary
			r, err := o.boot(rcfg, false, 0)
			if err != nil {
				return nil, err
			}
			defer r.close()
			replicas[i] = r.srv
			addrs = append(addrs, r.srv.Addr().String())
		}
		// Provision and baseline on the primary, whichever leg this is: a
		// MapLen through the pool is a read, served by a replica that may
		// not have applied the last puts yet, and a short baseline would
		// fail verify on a healthy run. The pool takes over only after the
		// barrier.
		d, err := prepare(env.cl, o.cfg)
		if err != nil {
			return nil, err
		}
		if err := waitReplicasCaughtUp(replicas); err != nil {
			return nil, err
		}
		if pool {
			cl, err := client.Connect(client.Options{Addrs: addrs, PoolSize: o.cfg.conns, ReadPreference: client.ReadPreferReplica})
			if err != nil {
				return nil, err
			}
			defer cl.Close()
			d.cl = cl
		}
		stop, err := startWritePump(primary, o.cfg)
		if err != nil {
			return nil, err
		}
		res := d.run()
		res.extra = map[string]float64{
			"leg_writes":   float64(stop()),
			"staleness_ms": float64(maxReplicaStalenessMs(replicas)),
		}
		return res, nil
	}
}

// startWritePump launches replicaWriters closed-loop goroutines
// overwriting the preloaded read-map keys on the primary — durable
// mutations whose group commits each pay the WAL fsync. Writes stay
// inside the preloaded key-space, so the readmap MapLen invariant
// holds in both legs. The returned stop function tears the pump down
// and reports how many writes it committed.
func startWritePump(primaryAddr string, cfg genCfg) (stop func() int64, err error) {
	cl, err := client.Connect(client.Options{
		Addrs:    []string{primaryAddr},
		PoolSize: 2,
	})
	if err != nil {
		return nil, err
	}
	var (
		writes  atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	for g := 0; g < replicaWriters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 104729 + int64(g)*7919))
			for !stopped.Load() {
				key := keyName(rng.Intn(cfg.keys))
				if err := cl.MapPut(mapName, key, []byte(fmt.Sprintf("w%d", rng.Int()))); err != nil {
					return // connection torn down (stop raced the last write)
				}
				writes.Add(1)
			}
		}()
	}
	return func() int64 {
		stopped.Store(true)
		wg.Wait()
		cl.Close()
		return writes.Load()
	}, nil
}

// waitReplicasCaughtUp polls every replica's watermarks until each
// shard's stream is connected and applied has reached the last reported
// head — nothing the primary logged is still in flight (the pump is not
// running yet, so applied==head means fully drained).
func waitReplicasCaughtUp(replicas []*server.Server) error {
	deadline := time.Now().Add(replicaCatchupTimeout)
	for _, r := range replicas {
		for {
			st := r.ReplicaStatus()
			caught := true
			for _, sh := range st.Shards {
				if !sh.Connected || sh.StalenessMs < 0 || sh.AppliedLSN < sh.HeadLSN {
					caught = false
					break
				}
			}
			if caught {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %s did not catch up within %v: %+v",
					r.Addr(), replicaCatchupTimeout, st.Shards)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// maxReplicaStalenessMs reports the worst per-shard staleness across
// the pool (-1 if any shard never caught up).
func maxReplicaStalenessMs(replicas []*server.Server) int64 {
	var max int64
	for _, r := range replicas {
		for _, sh := range r.ReplicaStatus().Shards {
			if sh.StalenessMs < 0 {
				return -1
			}
			if sh.StalenessMs > max {
				max = sh.StalenessMs
			}
		}
	}
	return max
}
