package stmlib_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

// Config-path oracle coverage: the under-tested Runtime configuration —
// SharedReads (the §9 read-access extension) — runs the same
// deterministic programs with parallel-nested bulk operations as the
// Serial baseline, and all outcomes must agree with the sequential
// reference model.

// configVariants are the Runtime configurations under test, applied on
// top of a worker count.
func configVariants() map[string]pnstm.Config {
	return map[string]pnstm.Config{
		"sharedreads": {SharedReads: true},
	}
}

func newRTConfig(t testing.TB, cfg pnstm.Config) *pnstm.Runtime {
	t.Helper()
	rt, err := pnstm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// executeProgBulk runs a random partitioned program followed by a bulk
// phase — BulkUpdate over every key, a parallel Len and a Snapshot, all
// parallel-nested bulk operations — and returns the final contents.
func executeProgBulk(t *testing.T, p *structProg, keys []int, cfg pnstm.Config) (snap map[int]int, length int) {
	t.Helper()
	rt := newRTConfig(t, cfg)
	m := stmlib.NewTMap[int, int](32)
	run(t, rt, func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			p.runTM(c, m)
			return nil
		})
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			// Bulk phase inside one transaction: increment every key (also
			// inserting the never-written ones), then read the whole map
			// back with the parallel bulk reads.
			m.BulkUpdate(c, keys, func(k, v int, ok bool) (int, bool) {
				return v + 1, true
			})
			length = m.Len(c)
			snap = m.Snapshot(c)
			return nil
		})
	})
	return snap, length
}

func TestConfigPathsOracleTMapBulk(t *testing.T) {
	const nKeys = 48
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			keys := make([]int, nKeys)
			for i := range keys {
				keys[i] = i * 7
			}
			p := genStructProg(rng, keys, 4)

			// Sequential reference: the program, then the bulk increment.
			ref := make(map[int]int)
			p.runRef(ref)
			for _, k := range keys {
				ref[k] = ref[k] + 1
			}

			serialSnap, serialLen := executeProgBulk(t, p, keys, pnstm.Config{Workers: 1, Serial: true})
			diffMaps(t, "serial vs reference", serialSnap, ref)
			if serialLen != len(ref) {
				t.Errorf("serial len = %d want %d", serialLen, len(ref))
			}
			for name, base := range configVariants() {
				for _, workers := range []int{2, 4} {
					cfg := base
					cfg.Workers = workers
					snap, n := executeProgBulk(t, p, keys, cfg)
					label := fmt.Sprintf("%s workers=%d vs reference", name, workers)
					diffMaps(t, label, snap, ref)
					if n != len(ref) {
						t.Errorf("%s: len = %d want %d", label, n, len(ref))
					}
				}
			}
		})
	}
}

// TestConfigPathsCommutativeStructures runs the all-structures
// commutative workload (counter adds, shared-key map update-adds, queue
// pushes) under each config variant: real conflicts, retries and
// escalations must still produce the closed-form totals. The map Update
// is a read-modify-write on a shared bucket, so reads race writes —
// exactly the surface SharedReads changes. (A full Sum inside every
// leaf would NOT commute: it orders against every concurrent add and
// livelocks the workload; the bulk reads run between the rounds
// instead.)
func TestConfigPathsCommutativeStructures(t *testing.T) {
	for name, base := range configVariants() {
		name, base := name, base
		t.Run(name, func(t *testing.T) {
			const (
				width = 3
				depth = 2
				adds  = int64(3)
			)
			leaves := 1
			for i := 0; i < depth; i++ {
				leaves *= width
			}
			cfg := base
			cfg.Workers = 4
			rt := newRTConfig(t, cfg)
			m := stmlib.NewTMap[string, int](16)
			q := stmlib.NewTQueue[int]()
			ctr := stmlib.NewTCounter(8)

			var build func(d int) func(*pnstm.Ctx)
			build = func(d int) func(*pnstm.Ctx) {
				if d == 0 {
					return func(c *pnstm.Ctx) {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							ctr.Add(c, adds)
							v, _ := m.Get(c, "shared")
							m.Put(c, "shared", v+1)
							q.Push(c, 1)
							return nil
						})
					}
				}
				return func(c *pnstm.Ctx) {
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						fns := make([]func(*pnstm.Ctx), width)
						for i := range fns {
							fns[i] = build(d - 1)
						}
						c.Parallel(fns...)
						return nil
					})
				}
			}
			run(t, rt, build(depth))

			run(t, rt, func(c *pnstm.Ctx) {
				if s := ctr.Sum(c); s != int64(leaves)*adds {
					t.Errorf("counter = %d want %d", s, int64(leaves)*adds)
				}
				if v, _ := m.Get(c, "shared"); v != leaves {
					t.Errorf("map = %d want %d", v, leaves)
				}
				if n := q.Len(c); n != leaves {
					t.Errorf("queue = %d want %d", n, leaves)
				}
			})
		})
	}
}
