// Package bench implements the paper's evaluation workload (§7) and the
// sweeps that regenerate its figures.
//
// The synthetic benchmark: a single top-level transaction T executes N
// leaf transactions Tl_i. Every leaf first sleeps for a uniformly random
// think time (the paper uses up to 2 s; we scale down by default, see
// ARCHITECTURE.md D10) and then writes K=2000 shared objects, the first half
// shared with leaf i−1 and the second half with leaf i+1. Leaves are
// organized in a binary tree of transactions D levels deep; each tree leaf
// runs N/2^D transactions in parallel. With D=0 all leaves are parallel
// children of the root transaction. The serial-nesting baseline runs the
// same leaves sequentially in one context.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"pnstm"
)

// SyntheticConfig parameterizes one run of the paper's benchmark.
type SyntheticConfig struct {
	Leaves   int           // N: total leaf transactions (power of two for clean trees)
	Depth    int           // D: binary-tree depth; 2^Depth must be <= Leaves
	Objects  int           // K: objects written per leaf (paper: 2000)
	ThinkMax time.Duration // upper bound of the uniform think time (paper: 2s)
	Workers  int           // worker slots P (paper: up to 32)
	Serial   bool          // serial-nesting baseline
	Seed     int64
}

func (c *SyntheticConfig) fillDefaults() error {
	if c.Leaves <= 0 {
		return fmt.Errorf("bench: Leaves must be positive")
	}
	if c.Depth < 0 || 1<<uint(c.Depth) > c.Leaves {
		return fmt.Errorf("bench: Depth %d too deep for %d leaves", c.Depth, c.Leaves)
	}
	if c.Objects <= 0 {
		c.Objects = 2000
	}
	if c.ThinkMax < 0 {
		return fmt.Errorf("bench: negative ThinkMax")
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Result is the outcome of one synthetic run.
type Result struct {
	Wall    time.Duration   // end-to-end time of the top transaction
	TxTimes []time.Duration // per leaf: final (successful) attempt, think time excluded
	Stats   pnstm.Stats
}

// MeanTxTime returns the mean per-leaf transaction-handling time: begin +
// K accesses + commit of the successful attempt (the paper's Figure 7
// metric).
func (r Result) MeanTxTime() time.Duration {
	if len(r.TxTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.TxTimes {
		sum += d
	}
	return sum / time.Duration(len(r.TxTimes))
}

// RunSynthetic executes the workload once and reports timings.
func RunSynthetic(cfg SyntheticConfig) (Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Result{}, err
	}
	rt, err := pnstm.New(pnstm.Config{
		Workers: cfg.Workers,
		Serial:  cfg.Serial,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	defer rt.Close()

	// Shared object array with half-window overlap: leaf i writes objects
	// [i*stride, i*stride+K), so its first half is leaf i−1's second half
	// and vice versa (paper §7, property 2). The windows do NOT wrap
	// around: edge leaves have an unshared half, exactly as in the paper.
	// Wrapping would turn the leaf-adjacency graph into a ring, and since
	// entries stay owned by a leaf's ancestor chain until the whole
	// subtree commits, a ring of cross-subtree waits can deadlock; a chain
	// cannot (leaves acquire their windows in ascending order, so each
	// adjacent pair waits in at most one direction).
	stride := cfg.Objects / 2
	if stride == 0 {
		stride = 1
	}
	total := (cfg.Leaves-1)*stride + cfg.Objects
	objs := make([]*pnstm.TVar[int], total)
	for i := range objs {
		objs[i] = pnstm.NewTVar(0)
	}

	// Pre-drawn think times keep serial and parallel runs comparable and
	// reproducible (property 3: ~1s mean keeps conflicts rare).
	rng := rand.New(rand.NewSource(cfg.Seed))
	thinks := make([]time.Duration, cfg.Leaves)
	for i := range thinks {
		if cfg.ThinkMax > 0 {
			thinks[i] = time.Duration(rng.Int63n(int64(cfg.ThinkMax)))
		}
	}

	txTimes := make([]time.Duration, cfg.Leaves)

	leaf := func(id int) func(*pnstm.Ctx) {
		return func(c *pnstm.Ctx) {
			if thinks[id] > 0 {
				time.Sleep(thinks[id])
			}
			var attemptStart time.Time
			err := c.Atomic(func(c *pnstm.Ctx) error {
				attemptStart = time.Now()
				base := id * stride
				for k := 0; k < cfg.Objects; k++ {
					pnstm.Store(c, objs[base+k], id+1)
				}
				return nil
			})
			elapsed := time.Since(attemptStart)
			if err == nil {
				txTimes[id] = elapsed
			}
		}
	}

	// node builds the binary transaction tree: levels 1..Depth are
	// internal transactions, each tree leaf runs its share of Tl_i in
	// parallel.
	var node func(c *pnstm.Ctx, d, lo, hi int)
	node = func(c *pnstm.Ctx, d, lo, hi int) {
		err := c.Atomic(func(c *pnstm.Ctx) error {
			if d == 0 {
				fns := make([]func(*pnstm.Ctx), hi-lo)
				for i := lo; i < hi; i++ {
					fns[i-lo] = leaf(i)
				}
				c.Parallel(fns...)
				return nil
			}
			mid := (lo + hi) / 2
			c.Parallel(
				func(c *pnstm.Ctx) { node(c, d-1, lo, mid) },
				func(c *pnstm.Ctx) { node(c, d-1, mid, hi) },
			)
			return nil
		})
		if err != nil {
			panic(fmt.Sprintf("bench: tree node failed: %v", err))
		}
	}

	start := time.Now()
	err = rt.Run(func(c *pnstm.Ctx) {
		// The single top-level transaction T: with D=0 the leaves are its
		// direct parallel children.
		node(c, cfg.Depth, 0, cfg.Leaves)
	})
	wall := time.Since(start)
	if err != nil {
		return Result{}, err
	}

	// Sanity: every object must carry some leaf's mark.
	for i, o := range objs {
		if o.Peek() == 0 {
			return Result{}, fmt.Errorf("bench: object %d never written", i)
		}
	}
	return Result{Wall: wall, TxTimes: txTimes, Stats: rt.Stats()}, nil
}
