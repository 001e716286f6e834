package bench

import (
	"fmt"
	"time"

	"pnstm"
	"pnstm/stmlib"
)

// Structure workloads: three families exercising the stmlib transactional
// data structures, each comparing parallel-nested bulk operations against
// the serial-nesting baseline (Config.Serial).
//
//   - "map": parallel point writes to disjoint key ranges of one TMap,
//     followed by whole-map bulk operations (BulkUpdate + Len) that fork
//     one nested child per bucket group.
//   - "queue": per-producer TQueues filled by parallel children, then
//     fan-in consumer transactions that atomically pop one element from
//     every queue via parallel nested pops.
//   - "counter": parallel children hammering a striped TCounter, with a
//     parallel-nested Sum per round.
//
// Every round is one top-level transaction, so under Serial the same
// program runs with inline sequential children — the paper's baseline.

// StructureConfig parameterizes one structure-workload run.
type StructureConfig struct {
	Workload string // "map", "queue" or "counter"
	Workers  int    // worker slots P (parallel runs)
	Serial   bool   // serial-nesting baseline
	Rounds   int    // top-level transactions
	Children int    // parallel children per round
	Span     int    // per-child operations per round
	Buckets  int    // map buckets / counter stripes (default 64 / 8)
	Seed     int64
}

func (c *StructureConfig) fillDefaults() error {
	switch c.Workload {
	case "map", "queue", "counter":
	default:
		return fmt.Errorf("bench: unknown structure workload %q", c.Workload)
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
	if c.Children <= 0 {
		c.Children = 8
	}
	if c.Span <= 0 {
		c.Span = 64
	}
	if c.Buckets <= 0 {
		if c.Workload == "counter" {
			c.Buckets = 8
		} else {
			c.Buckets = 64
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// StructureResult is the outcome of one structure-workload run.
type StructureResult struct {
	Wall  time.Duration // end-to-end time across all rounds
	Ops   int           // logical structure operations performed
	Stats pnstm.Stats
}

// OpsPerSec returns the throughput of the run.
func (r StructureResult) OpsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Wall.Seconds()
}

// RunStructure executes one structure workload and reports timings. The
// workload's final state is checked against the closed-form expectation;
// a mismatch is returned as an error (the benchmark doubles as an
// integration test).
func RunStructure(cfg StructureConfig) (StructureResult, error) {
	if err := cfg.fillDefaults(); err != nil {
		return StructureResult{}, err
	}
	rt, err := pnstm.New(pnstm.Config{
		Workers: cfg.Workers,
		Serial:  cfg.Serial,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return StructureResult{}, err
	}
	defer rt.Close()

	var (
		ops     int
		wall    time.Duration
		runErr  error
		started = time.Now()
	)
	switch cfg.Workload {
	case "map":
		ops, runErr = runMapHeavy(rt, cfg)
	case "queue":
		ops, runErr = runProducerConsumer(rt, cfg)
	case "counter":
		ops, runErr = runHotCounter(rt, cfg)
	}
	wall = time.Since(started)
	if runErr != nil {
		return StructureResult{}, runErr
	}
	return StructureResult{Wall: wall, Ops: ops, Stats: rt.Stats()}, nil
}

// runMapHeavy: each round, Children parallel children write Span keys
// each into disjoint ranges, then the round transaction runs a bulk
// increment over every key and a parallel Len.
func runMapHeavy(rt *pnstm.Runtime, cfg StructureConfig) (int, error) {
	m := stmlib.NewTMap[int, int](cfg.Buckets)
	total := cfg.Children * cfg.Span
	allKeys := make([]int, total)
	for i := range allKeys {
		allKeys[i] = i
	}
	ops := 0
	for r := 0; r < cfg.Rounds; r++ {
		r := r
		var roundErr error
		err := rt.Run(func(c *pnstm.Ctx) {
			roundErr = c.Atomic(func(c *pnstm.Ctx) error {
				fns := make([]func(*pnstm.Ctx), cfg.Children)
				for w := 0; w < cfg.Children; w++ {
					w := w
					fns[w] = func(c *pnstm.Ctx) {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							base := w * cfg.Span
							for i := 0; i < cfg.Span; i++ {
								m.Put(c, base+i, r)
							}
							return nil
						})
					}
				}
				c.Parallel(fns...)
				// Bulk phase: whole-map update plus a parallel count.
				m.BulkUpdate(c, allKeys, func(k, v int, ok bool) (int, bool) {
					return v + 1, true
				})
				if n := m.Len(c); n != total {
					return fmt.Errorf("bench: map len %d want %d", n, total)
				}
				return nil
			})
		})
		if err == nil {
			err = roundErr
		}
		if err != nil {
			return 0, err
		}
		ops += total /*puts*/ + total /*bulk*/ + 1 /*len*/
	}
	// Final state check: every key saw the last round's put plus one bulk
	// increment.
	var bad error
	if err := rt.Run(func(c *pnstm.Ctx) {
		if v, ok := m.Get(c, 0); !ok || v != cfg.Rounds {
			bad = fmt.Errorf("bench: map[0] = %d,%v want %d", v, ok, cfg.Rounds)
		}
	}); err != nil {
		return 0, err
	}
	return ops, bad
}

// runProducerConsumer: Children producers each own a TQueue and push Span
// items in parallel; then Span fan-in consumer transactions each pop one
// element from every queue with parallel nested pops.
func runProducerConsumer(rt *pnstm.Runtime, cfg StructureConfig) (int, error) {
	queues := make([]*stmlib.TQueue[int], cfg.Children)
	for i := range queues {
		queues[i] = stmlib.NewTQueue[int]()
	}
	ops := 0
	for r := 0; r < cfg.Rounds; r++ {
		var roundErr error
		err := rt.Run(func(c *pnstm.Ctx) {
			// Produce burst: parallel children, one queue each.
			roundErr = c.Atomic(func(c *pnstm.Ctx) error {
				fns := make([]func(*pnstm.Ctx), cfg.Children)
				for w := 0; w < cfg.Children; w++ {
					w := w
					fns[w] = func(c *pnstm.Ctx) {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							for i := 0; i < cfg.Span; i++ {
								queues[w].Push(c, w*cfg.Span+i)
							}
							return nil
						})
					}
				}
				c.Parallel(fns...)
				return nil
			})
			if roundErr != nil {
				return
			}
			// Consume: Span fan-in transactions, each atomically popping one
			// element from every queue (parallel nested pops).
			for i := 0; i < cfg.Span; i++ {
				got := make([]int, cfg.Children)
				roundErr = c.Atomic(func(c *pnstm.Ctx) error {
					fns := make([]func(*pnstm.Ctx), cfg.Children)
					for w := 0; w < cfg.Children; w++ {
						w := w
						fns[w] = func(c *pnstm.Ctx) {
							_ = c.Atomic(func(c *pnstm.Ctx) error {
								v, ok := queues[w].Pop(c)
								if !ok {
									v = -1
								}
								got[w] = v
								return nil
							})
						}
					}
					c.Parallel(fns...)
					return nil
				})
				if roundErr != nil {
					return
				}
				for w, v := range got {
					if v != w*cfg.Span+i {
						roundErr = fmt.Errorf("bench: queue %d pop %d = %d want %d", w, i, v, w*cfg.Span+i)
						return
					}
				}
			}
		})
		if err == nil {
			err = roundErr
		}
		if err != nil {
			return 0, err
		}
		ops += 2 * cfg.Children * cfg.Span // pushes + pops
	}
	return ops, nil
}

// runHotCounter: Children parallel children each Add Span times per
// round; the round transaction finishes with a Sum.
func runHotCounter(rt *pnstm.Runtime, cfg StructureConfig) (int, error) {
	ctr := stmlib.NewTCounter(cfg.Buckets)
	ops := 0
	perRound := int64(cfg.Children * cfg.Span)
	for r := 0; r < cfg.Rounds; r++ {
		r := r
		var roundErr error
		err := rt.Run(func(c *pnstm.Ctx) {
			roundErr = c.Atomic(func(c *pnstm.Ctx) error {
				fns := make([]func(*pnstm.Ctx), cfg.Children)
				for w := 0; w < cfg.Children; w++ {
					fns[w] = func(c *pnstm.Ctx) {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							for i := 0; i < cfg.Span; i++ {
								ctr.Inc(c)
							}
							return nil
						})
					}
				}
				c.Parallel(fns...)
				if s := ctr.Sum(c); s != int64(r+1)*perRound {
					return fmt.Errorf("bench: counter sum %d want %d", s, int64(r+1)*perRound)
				}
				return nil
			})
		})
		if err == nil {
			err = roundErr
		}
		if err != nil {
			return 0, err
		}
		ops += cfg.Children*cfg.Span + 1
	}
	return ops, nil
}

// StructureWorkloads lists the available workload family names.
func StructureWorkloads() []string { return []string{"map", "queue", "counter"} }

// CompareStructure runs one workload under the serial baseline and the
// parallel runtime and returns (serial, parallel) results.
func CompareStructure(cfg StructureConfig) (StructureResult, StructureResult, error) {
	ser := cfg
	ser.Serial = true
	serRes, err := RunStructure(ser)
	if err != nil {
		return StructureResult{}, StructureResult{}, err
	}
	par := cfg
	par.Serial = false
	parRes, err := RunStructure(par)
	if err != nil {
		return StructureResult{}, StructureResult{}, err
	}
	return serRes, parRes, nil
}
