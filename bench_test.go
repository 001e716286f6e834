// Benchmarks regenerating the paper's evaluation (one per figure) plus the
// ablations listed in ARCHITECTURE.md. The figure benchmarks scale the paper's
// think time down (D10) so `go test -bench` stays tractable; run
// cmd/pnstm-bench -paperscale for published parameters.
package pnstm_test

import (
	"fmt"
	"testing"
	"time"

	"pnstm"
	"pnstm/internal/bench"
	"pnstm/internal/chainstm"
)

// ---------------------------------------------------------------------------
// Figure 6: speedup of parallel over serial nesting.
// ---------------------------------------------------------------------------

func BenchmarkFig6SpeedupVsSerialNesting(b *testing.B) {
	const think = 500 * time.Microsecond
	const objects = 512
	for _, n := range []int{4, 16, 64} {
		maxD := 0
		for 1<<uint(maxD+1) <= n {
			maxD++
		}
		for d := 0; d <= maxD; d += 2 {
			b.Run(fmt.Sprintf("N=%d/D=%d", n, d), func(b *testing.B) {
				serial, err := bench.RunSynthetic(bench.SyntheticConfig{
					Leaves: n, Depth: 0, Objects: objects, ThinkMax: think,
					Workers: 1, Serial: true, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var wall time.Duration
				for i := 0; i < b.N; i++ {
					res, err := bench.RunSynthetic(bench.SyntheticConfig{
						Leaves: n, Depth: d, Objects: objects, ThinkMax: think,
						Workers: 32, Seed: int64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					wall += res.Wall
				}
				b.StopTimer()
				mean := wall / time.Duration(b.N)
				b.ReportMetric(float64(serial.Wall)/float64(mean), "speedup")
				b.ReportMetric(float64(mean.Microseconds()), "wall-µs")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 7: per-transaction handling time vs. nesting depth.
// ---------------------------------------------------------------------------

func BenchmarkFig7TxTimeVsDepth(b *testing.B) {
	const n = 64
	const objects = 1024
	var base float64
	for _, d := range []int{0, 2, 4, 6} {
		b.Run(fmt.Sprintf("N=%d/D=%d", n, d), func(b *testing.B) {
			var tx time.Duration
			for i := 0; i < b.N; i++ {
				res, err := bench.RunSynthetic(bench.SyntheticConfig{
					Leaves: n, Depth: d, Objects: objects,
					ThinkMax: 200 * time.Microsecond, Workers: 32, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				tx += res.MeanTxTime()
			}
			mean := float64(tx.Nanoseconds()) / float64(b.N)
			if d == 0 {
				base = mean
			}
			b.ReportMetric(mean, "txtime-ns")
			if base > 0 {
				b.ReportMetric(mean/base, "vs-depth0")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// A1: O(1) bit-vector ancestor query vs. O(depth) chain walk.
// ---------------------------------------------------------------------------

func BenchmarkAncestorQueryBitVector(b *testing.B) {
	// The conflict test the STM runs on every access, at "depth" 32:
	// a 33-bit ancestor set against a 34-bit one. Depth cannot matter —
	// it is two ALU ops either way — which is the point.
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	v := pnstm.NewTVar(0)
	if err := rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			pnstm.Store(c, v, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pnstm.Store(c, v, i) // in-place fast path: entry test per access
			}
			return nil
		})
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAncestorQueryChainWalk(b *testing.B) {
	// The pure ancestor query at depth d: is the root an ancestor of the
	// tip? This is what a parent-pointer STM answers on every access to an
	// object owned by a distant ancestor.
	for _, depth := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			root := chainstm.Begin(nil)
			cur := root
			for d := 0; d < depth; d++ {
				cur = chainstm.Begin(cur)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !chainstm.IsAncestor(root, cur) {
					b.Fatal("broken chain")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// A2: begin+commit cost vs. depth — flat here, linear for the baseline.
// ---------------------------------------------------------------------------

func BenchmarkDepthScalingBeginCommitPNSTM(b *testing.B) {
	for _, depth := range []int{0, 8, 32, 96} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rt, err := pnstm.New(pnstm.Config{Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			if err := rt.Run(func(c *pnstm.Ctx) {
				// Build a chain of enclosing transactions, then measure
				// begin+commit of empty transactions at that depth.
				var nest func(d int)
				nest = func(d int) {
					if d == 0 {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							_ = c.Atomic(func(*pnstm.Ctx) error { return nil })
						}
						b.StopTimer()
						return
					}
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						nest(d - 1)
						return nil
					})
				}
				nest(depth)
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkDepthScalingAccessPNSTM(b *testing.B) {
	// The bit-vector counterpart of BenchmarkDepthScalingAccessChain: a
	// leaf transaction at depth d accesses an object the root wrote. The
	// ancestor test is one subset check whatever the depth. Each iteration
	// aborts (user error) to mirror the chain bench's ownership reset.
	for _, depth := range []int{0, 8, 32, 96} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rt, err := pnstm.New(pnstm.Config{Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			v := pnstm.NewTVar(0)
			sentinel := fmt.Errorf("measured abort")
			if err := rt.Run(func(c *pnstm.Ctx) {
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					pnstm.Store(c, v, -1)
					var nest func(d int)
					nest = func(d int) {
						if d == 0 {
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								_ = c.Atomic(func(c *pnstm.Ctx) error {
									pnstm.Store(c, v, i)
									return sentinel
								})
							}
							b.StopTimer()
							return
						}
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							nest(d - 1)
							return nil
						})
					}
					nest(depth)
					return nil
				})
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkDepthScalingAccessChain(b *testing.B) {
	// Per-leaf transaction cost when the accessed object is owned by the
	// root of a depth-d chain: every access walks the whole chain. The
	// abort restores root ownership so each iteration pays full depth,
	// exactly the steady state of a long-lived enclosing transaction.
	for _, depth := range []int{0, 8, 32, 96} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			o := chainstm.NewObj(0)
			root := chainstm.Begin(nil)
			if err := root.Store(o, -1); err != nil {
				b.Fatal(err)
			}
			cur := root
			for d := 0; d < depth; d++ {
				cur = chainstm.Begin(cur)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := chainstm.Begin(cur)
				if err := tx.Store(o, i); err != nil {
					b.Fatal(err)
				}
				if err := tx.Abort(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// A3: comDesc — parent access latency right after children commit, with
// publication stalled.
// ---------------------------------------------------------------------------

func BenchmarkCase2ParentAccessAfterChildren(b *testing.B) {
	rt, err := pnstm.New(pnstm.Config{Workers: 4, PublisherStartPaused: true})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	v := pnstm.NewTVar(0)
	if err := rt.Run(func(c *pnstm.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				c.Parallel(
					func(c *pnstm.Ctx) {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							pnstm.Store(c, v, i)
							return nil
						})
					},
					func(c *pnstm.Ctx) {},
				)
				// Case 2: immediate parent access to the child's object;
				// must not wait for the (paused) publisher.
				pnstm.Store(c, v, pnstm.Load(c, v)+1)
				return nil
			})
			// The measured access is done; recycle bitnums manually so the
			// next iteration can fork (a paused publisher never frees
			// them). This publishes strictly after the access, so every
			// iteration's parent access runs inside the stale window.
			rt.Publisher().StepOnce()
		}
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
	st := rt.Stats()
	b.ReportMetric(float64(st.Aborted)/float64(b.N), "aborts/op")
}

// ---------------------------------------------------------------------------
// A4: lazy-publication latency — commit-to-visible time.
// ---------------------------------------------------------------------------

func BenchmarkPublicationLatency(b *testing.B) {
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	v := pnstm.NewTVar(0)
	var wait time.Duration
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				pnstm.Store(c, v, i)
				return nil
			})
		}); err != nil {
			b.Fatal(err)
		}
		// A fresh root transaction by another lineage conflicts until the
		// commit above is published; time how long that takes.
		start := time.Now()
		if err := rt.Run(func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				pnstm.Store(c, v, -i)
				return nil
			})
		}); err != nil {
			b.Fatal(err)
		}
		wait += time.Since(start)
	}
	b.ReportMetric(float64(wait.Nanoseconds())/float64(b.N), "visible-ns")
}

// ---------------------------------------------------------------------------
// A5: unbounded trees over bounded bitnums — deep chains on a tiny space.
// ---------------------------------------------------------------------------

func BenchmarkDeepTreeTinyBitnumSpace(b *testing.B) {
	rt, err := pnstm.New(pnstm.Config{Workers: 2}) // N = 4 bitnums
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	v := pnstm.NewTVar(0)
	const depth = 64
	var rec func(c *pnstm.Ctx, d int)
	rec = func(c *pnstm.Ctx, d int) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			pnstm.Store(c, v, d)
			if d > 0 {
				c.Parallel(func(c *pnstm.Ctx) { rec(c, d-1) })
			}
			return nil
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(c *pnstm.Ctx) { rec(c, depth) }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(depth), "depth")
}

// ---------------------------------------------------------------------------
// stmlib structure workloads: parallel-nested bulk operations vs. the
// serial-nesting baseline, per workload family (map-heavy,
// producer/consumer, hot-counter).
// ---------------------------------------------------------------------------

func benchStructure(b *testing.B, workload string, children, span int) {
	base := bench.StructureConfig{
		Workload: workload,
		Workers:  8,
		Rounds:   2,
		Children: children,
		Span:     span,
	}
	var serialWall time.Duration
	for _, serial := range []bool{true, false} {
		name := "parallel"
		if serial {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			var wall time.Duration
			var ops int
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.Serial = serial
				cfg.Seed = int64(i + 1)
				res, err := bench.RunStructure(cfg)
				if err != nil {
					b.Fatal(err)
				}
				wall += res.Wall
				ops = res.Ops
			}
			mean := wall / time.Duration(b.N)
			b.ReportMetric(float64(ops)/mean.Seconds(), "structops/s")
			if serial {
				serialWall = mean
			} else if serialWall > 0 {
				b.ReportMetric(float64(serialWall)/float64(mean), "speedup-vs-serial")
			}
		})
	}
}

// BenchmarkStructMapBulk: disjoint point writes from parallel children
// plus whole-map BulkUpdate/Len — the bucket-group fan-out path.
func BenchmarkStructMapBulk(b *testing.B) { benchStructure(b, "map", 8, 128) }

// BenchmarkStructQueueFanIn: per-producer queues filled in parallel, then
// fan-in consumer transactions popping from every queue at once.
func BenchmarkStructQueueFanIn(b *testing.B) { benchStructure(b, "queue", 8, 64) }

// BenchmarkStructHotCounter: striped counter hammered by parallel
// children with a parallel-nested Sum per round.
func BenchmarkStructHotCounter(b *testing.B) { benchStructure(b, "counter", 8, 256) }

// ---------------------------------------------------------------------------
// Micro-benchmarks: raw operation costs.
// ---------------------------------------------------------------------------

func BenchmarkUncontendedStore(b *testing.B) {
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	v := pnstm.NewTVar(0)
	if err := rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Past the runtime's preallocated small integers: a boxed
				// int would be a heap object per store (D52).
				pnstm.Store(c, v, 1<<20+i)
			}
			b.StopTimer() // the root's commit and Run's return are not the store
			return nil
		})
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEmptyTransaction(b *testing.B) {
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	if err := rt.Run(func(c *pnstm.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.Atomic(func(*pnstm.Ctx) error { return nil })
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSharedReadHotObject: read-only roots on one variable nobody
// writes, under shared reads. Every root leaves a reader entry and every
// read scans the set, so ns/op stays flat in b.N only because reads prune
// dead entries (D54).
func BenchmarkSharedReadHotObject(b *testing.B) {
	rt, err := pnstm.New(pnstm.Config{Workers: 2, SharedReads: true})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	v := pnstm.NewTVar(1)
	if err := rt.Run(func(c *pnstm.Ctx) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				_ = pnstm.Load(c, v)
				return nil
			})
		}
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkForkJoinOverhead(b *testing.B) {
	rt, err := pnstm.New(pnstm.Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	if err := rt.Run(func(c *pnstm.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Parallel(func(*pnstm.Ctx) {}, func(*pnstm.Ctx) {})
		}
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkContendedCounter(b *testing.B) {
	rt, err := pnstm.New(pnstm.Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	v := pnstm.NewTVar(0)
	b.ResetTimer()
	if err := rt.Run(func(c *pnstm.Ctx) {
		fns := make([]func(*pnstm.Ctx), 4)
		per := b.N/len(fns) + 1
		for i := range fns {
			fns[i] = func(c *pnstm.Ctx) {
				for k := 0; k < per; k++ {
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						pnstm.Update(c, v, func(x int) int { return x + 1 })
						return nil
					})
				}
			}
		}
		c.Parallel(fns...)
	}); err != nil {
		b.Fatal(err)
	}
}
