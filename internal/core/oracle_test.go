package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// Oracle testing: generate random nested-parallel transactional programs
// whose outcome is deterministic (leaves own disjoint object partitions,
// or all operations commute), run them under the parallel runtime and the
// serial-nesting baseline, and require identical final states.

// progSpec is a randomly generated program tree.
type progSpec struct {
	kind     int // 0 = leaf tx, 1 = parallel fork, 2 = sequential block, 3 = nested atomic
	children []*progSpec
	objs     []int // leaf: indices of owned objects
	adds     []int // leaf: value added to each owned object
	depth    int
}

// genProg builds a random program over a disjoint partition of object
// indices. Every leaf gets its own slice of the partition, so the final
// state is schedule-independent.
func genProg(rng *rand.Rand, objIdx []int, depth int) *progSpec {
	if depth == 0 || len(objIdx) < 2 || rng.Intn(4) == 0 {
		adds := make([]int, len(objIdx))
		for i := range adds {
			adds[i] = rng.Intn(100) + 1
		}
		return &progSpec{kind: 0, objs: objIdx, adds: adds, depth: depth}
	}
	switch rng.Intn(3) {
	case 0: // parallel fork over a split of the partition
		n := 2 + rng.Intn(3)
		if n > len(objIdx) {
			n = len(objIdx)
		}
		p := &progSpec{kind: 1, depth: depth}
		per := len(objIdx) / n
		for i := 0; i < n; i++ {
			lo, hi := i*per, (i+1)*per
			if i == n-1 {
				hi = len(objIdx)
			}
			p.children = append(p.children, genProg(rng, objIdx[lo:hi], depth-1))
		}
		return p
	case 1: // sequential composition
		mid := 1 + rng.Intn(len(objIdx)-1)
		return &progSpec{kind: 2, depth: depth, children: []*progSpec{
			genProg(rng, objIdx[:mid], depth-1),
			genProg(rng, objIdx[mid:], depth-1),
		}}
	default: // nested atomic wrapper
		return &progSpec{kind: 3, depth: depth, children: []*progSpec{
			genProg(rng, objIdx, depth-1),
		}}
	}
}

// run executes the program in the given context.
func (p *progSpec) run(t *testing.T, c *Ctx, objs []*Object) {
	switch p.kind {
	case 0:
		if err := c.Atomic(func(c *Ctx) error {
			for i, oi := range p.objs {
				cur := c.Load(objs[oi]).(int)
				c.Store(objs[oi], cur+p.adds[i])
			}
			return nil
		}); err != nil {
			t.Errorf("leaf tx: %v", err)
		}
	case 1:
		fns := make([]func(*Ctx), len(p.children))
		for i, ch := range p.children {
			ch := ch
			fns[i] = func(c *Ctx) { ch.run(t, c, objs) }
		}
		c.Parallel(fns...)
	case 2:
		for _, ch := range p.children {
			ch.run(t, c, objs)
		}
	case 3:
		if err := c.Atomic(func(c *Ctx) error {
			p.children[0].run(t, c, objs)
			return nil
		}); err != nil {
			t.Errorf("wrapper tx: %v", err)
		}
	}
}

// execute runs the program on a fresh runtime and returns the final state.
func executeProg(t *testing.T, p *progSpec, nObjs, workers int, serial bool, mutate ...func(*Config)) []int {
	t.Helper()
	cfg := Config{Workers: workers, Serial: serial}
	for _, m := range mutate {
		m(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	objs := make([]*Object, nObjs)
	for i := range objs {
		objs[i] = NewObject(0)
	}
	root := p
	if err := rt.Run(func(c *Ctx) {
		// Everything under one top-level transaction, like the paper's
		// benchmark's single transaction T.
		if err := c.Atomic(func(c *Ctx) error {
			root.run(t, c, objs)
			return nil
		}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	out := make([]int, nObjs)
	for i, o := range objs {
		out[i] = o.Peek().(int)
	}
	return out
}

func TestOracleRandomProgramsMatchSerialBaseline(t *testing.T) {
	const nObjs = 24
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			idx := make([]int, nObjs)
			for i := range idx {
				idx[i] = i
			}
			p := genProg(rng, idx, 4)
			want := executeProg(t, p, nObjs, 1, true)
			for _, workers := range []int{2, 4} {
				got := executeProg(t, p, nObjs, workers, false)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d obj %d: got %d want %d", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestOracleCommutativeContention: all leaves increment the same counter
// set. Any serialization yields the same sums, so the oracle holds even
// under real conflicts and escalations.
func TestOracleCommutativeContention(t *testing.T) {
	const nObjs = 3
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 2 + rng.Intn(5)
		depth := 1 + rng.Intn(3)
		incs := rng.Intn(5) + 1

		var expect [nObjs]int
		var build func(d int) *progSpec
		leafCount := 0
		build = func(d int) *progSpec {
			if d == 0 {
				leafCount++
				p := &progSpec{kind: 0}
				for o := 0; o < nObjs; o++ {
					p.objs = append(p.objs, o)
					p.adds = append(p.adds, incs)
				}
				return p
			}
			p := &progSpec{kind: 1}
			for i := 0; i < width; i++ {
				p.children = append(p.children, build(d-1))
			}
			return p
		}
		prog := build(depth)
		leaves := 1
		for i := 0; i < depth; i++ {
			leaves *= width
		}
		for o := 0; o < nObjs; o++ {
			expect[o] = leaves * incs
		}

		got := executeProg(t, prog, nObjs, 4, false, shortWait)
		for o := 0; o < nObjs; o++ {
			if got[o] != expect[o] {
				t.Fatalf("seed %d: obj %d = %d, want %d (leaves=%d)", seed, o, got[o], expect[o], leaves)
			}
		}
	}
}
