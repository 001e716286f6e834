package stmlib_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

// Oracle testing, mirroring internal/core/oracle_test.go: generate random
// nested-parallel programs over the data structures whose outcome is
// deterministic (leaves own disjoint key partitions, or every operation
// commutes), execute them under the parallel runtime and the
// serial-nesting baseline, and require both to match a plain sequential
// reference model.

// mapOp is one operation of a leaf's script.
type mapOp struct {
	kind int // 0 = put, 1 = delete, 2 = update-add
	key  int
	val  int
}

// leafScript is a deterministic operation sequence over a leaf's own key
// partition.
type leafScript struct {
	ops []mapOp
}

// structProg is a random program tree: leaves run scripts, internal nodes
// fork children (over disjoint partitions) or wrap a child in a nested
// atomic.
type structProg struct {
	kind     int // 0 = leaf, 1 = parallel, 2 = sequential, 3 = nested atomic
	children []*structProg
	script   leafScript
}

// genStructProg builds a random program over a disjoint partition of key
// space. Leaves only touch their own keys, so the final map state is
// schedule-independent.
func genStructProg(rng *rand.Rand, keys []int, depth int) *structProg {
	if depth == 0 || len(keys) < 2 || rng.Intn(4) == 0 {
		nOps := 3 + rng.Intn(8)
		var ops []mapOp
		for i := 0; i < nOps; i++ {
			ops = append(ops, mapOp{
				kind: rng.Intn(3),
				key:  keys[rng.Intn(len(keys))],
				val:  rng.Intn(100) + 1,
			})
		}
		return &structProg{kind: 0, script: leafScript{ops: ops}}
	}
	switch rng.Intn(3) {
	case 0:
		n := 2 + rng.Intn(3)
		if n > len(keys) {
			n = len(keys)
		}
		p := &structProg{kind: 1}
		per := len(keys) / n
		for i := 0; i < n; i++ {
			lo, hi := i*per, (i+1)*per
			if i == n-1 {
				hi = len(keys)
			}
			p.children = append(p.children, genStructProg(rng, keys[lo:hi], depth-1))
		}
		return p
	case 1:
		mid := 1 + rng.Intn(len(keys)-1)
		return &structProg{kind: 2, children: []*structProg{
			genStructProg(rng, keys[:mid], depth-1),
			genStructProg(rng, keys[mid:], depth-1),
		}}
	default:
		return &structProg{kind: 3, children: []*structProg{
			genStructProg(rng, keys, depth-1),
		}}
	}
}

// applyRef applies a leaf script to the plain-map reference model.
func (s leafScript) applyRef(ref map[int]int) {
	for _, op := range s.ops {
		switch op.kind {
		case 0:
			ref[op.key] = op.val
		case 1:
			delete(ref, op.key)
		case 2:
			ref[op.key] = ref[op.key] + op.val
		}
	}
}

// oracleMap is what the programs drive: a TMap[int, int], or an adapter
// that maps the int keys onto another key type.
type oracleMap interface {
	Put(c *pnstm.Ctx, k, v int)
	Delete(c *pnstm.Ctx, k int) bool
	Get(c *pnstm.Ctx, k int) (int, bool)
	Snapshot(c *pnstm.Ctx) map[int]int
}

// applyTM applies a leaf script transactionally.
func (s leafScript) applyTM(c *pnstm.Ctx, m oracleMap) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		for _, op := range s.ops {
			switch op.kind {
			case 0:
				m.Put(c, op.key, op.val)
			case 1:
				m.Delete(c, op.key)
			case 2:
				v, _ := m.Get(c, op.key)
				m.Put(c, op.key, v+op.val)
			}
		}
		return nil
	})
}

// runRef runs the whole program against the reference model (any leaf
// order; partitions are disjoint so order cannot matter).
func (p *structProg) runRef(ref map[int]int) {
	if p.kind == 0 {
		p.script.applyRef(ref)
		return
	}
	for _, ch := range p.children {
		ch.runRef(ref)
	}
}

// runTM runs the program in the given context.
func (p *structProg) runTM(c *pnstm.Ctx, m oracleMap) {
	switch p.kind {
	case 0:
		p.script.applyTM(c, m)
	case 1:
		fns := make([]func(*pnstm.Ctx), len(p.children))
		for i, ch := range p.children {
			ch := ch
			fns[i] = func(c *pnstm.Ctx) { ch.runTM(c, m) }
		}
		c.Parallel(fns...)
	case 2:
		for _, ch := range p.children {
			ch.runTM(c, m)
		}
	case 3:
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			p.children[0].runTM(c, m)
			return nil
		})
	}
}

// executeStructProg runs p against m on a fresh runtime and returns the
// final map contents twice: as Snapshot reads them, and as Get reads each
// of keys.
func executeStructProg(t *testing.T, p *structProg, workers int, serial bool, m oracleMap, keys []int) (snap, gets map[int]int) {
	t.Helper()
	rt := newRT(t, workers, serial)
	gets = make(map[int]int)
	run(t, rt, func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			p.runTM(c, m)
			return nil
		})
		snap = m.Snapshot(c)
		for _, k := range keys {
			if v, ok := m.Get(c, k); ok {
				gets[k] = v
			}
		}
	})
	return snap, gets
}

func diffMaps(t *testing.T, label string, got, want map[int]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("%s: key %d = %d,%v want %d", label, k, g, ok, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: unexpected key %d", label, k)
		}
	}
}

func TestOracleTMapRandomProgramsMatchReference(t *testing.T) {
	oracleTMap(t, 7, func() oracleMap { return stmlib.NewTMap[int, int](32) }) // spread over buckets
}

// TestOracleTMapHashCollisions runs the oracle programs on keys that
// collide: int key k is stored as float64 k/4, and hashKey truncates a
// float to its integer part, so each run of four keys (1.25 and 1.75
// among them) shares one hash and one bucket. Put, Delete and Get must
// each find the key's own entry in its run of equal hashes.
func TestOracleTMapHashCollisions(t *testing.T) {
	oracleTMap(t, 1, func() oracleMap { return collidingMap{stmlib.NewTMap[float64, int](8)} })
}

// oracleTMap runs 25 random programs over 48 keys spaced stride apart on
// fresh maps from newMap, serial and parallel, against the reference.
func oracleTMap(t *testing.T, stride int, newMap func() oracleMap) {
	const nKeys = 48
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			keys := make([]int, nKeys)
			for i := range keys {
				keys[i] = i * stride
			}
			p := genStructProg(rng, keys, 4)

			ref := make(map[int]int)
			p.runRef(ref)

			for _, cfg := range []struct {
				workers int
				serial  bool
			}{{1, true}, {2, false}, {4, false}} {
				label := "serial"
				if !cfg.serial {
					label = fmt.Sprintf("parallel(%d)", cfg.workers)
				}
				snap, gets := executeStructProg(t, p, cfg.workers, cfg.serial, newMap(), keys)
				diffMaps(t, label+" snapshot vs reference", snap, ref)
				diffMaps(t, label+" gets vs reference", gets, ref)
			}
		})
	}
}

// collidingMap drives a TMap[float64, int] through int keys, storing key
// k under k/4.
type collidingMap struct{ m *stmlib.TMap[float64, int] }

func quarter(k int) float64 { return float64(k) / 4 }

func (cm collidingMap) Put(c *pnstm.Ctx, k, v int)          { cm.m.Put(c, quarter(k), v) }
func (cm collidingMap) Delete(c *pnstm.Ctx, k int) bool     { return cm.m.Delete(c, quarter(k)) }
func (cm collidingMap) Get(c *pnstm.Ctx, k int) (int, bool) { return cm.m.Get(c, quarter(k)) }
func (cm collidingMap) Snapshot(c *pnstm.Ctx) map[int]int {
	out := make(map[int]int)
	for f, v := range cm.m.Snapshot(c) {
		out[int(f*4)] = v
	}
	return out
}

// TestOracleCommutativeAllStructures: every leaf performs the same
// commutative operations (counter adds, map update-adds on shared keys,
// queue pushes). Any serialization yields the same totals, so the oracle
// holds under real conflicts, retries and escalations.
func TestOracleCommutativeAllStructures(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 2 + rng.Intn(4)
		depth := 1 + rng.Intn(2)
		adds := int64(rng.Intn(5) + 1)
		leaves := 1
		for i := 0; i < depth; i++ {
			leaves *= width
		}

		rt := newRT(t, 4, false)
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
				t.Errorf("seed %d: counter = %d want %d", seed, s, int64(leaves)*adds)
			}
			if v, _ := m.Get(c, "shared"); v != leaves {
				t.Errorf("seed %d: map = %d want %d", seed, v, leaves)
			}
			if n := q.Len(c); n != leaves {
				t.Errorf("seed %d: queue = %d want %d", seed, n, leaves)
			}
		})
	}
}
