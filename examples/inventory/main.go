// Inventory: an order-processing demo composing all three stmlib
// structures inside single transactions.
//
//   - stock:    TMap[string,int] — SKU → units on hand
//   - orders:   TQueue[order]    — incoming orders
//   - revenue:  TCounter         — cents earned
//
// The interesting parts:
//
//  1. Fulfilling an order is ONE transaction that pops the queue, checks
//     and decrements several stock entries, and adds revenue. If any line
//     is out of stock the body returns an error and the whole order —
//     including the pop — is undone, so the order stays queued.
//  2. A batch of orders is fulfilled by parallel children of one
//     enclosing transaction: the batch commits or aborts as a unit, but
//     the per-order work runs on all worker slots.
//  3. The nightly restock is a bulk operation: TMap.BulkUpdate forks one
//     nested child per group of the buckets it touches, and the whole
//     restock is still a single atomic step that no audit (Snapshot +
//     Sum) can see half of.
//
// Run with:
//
//	go run ./examples/inventory
package main

import (
	"fmt"
	"log"
	"sort"

	"pnstm"
	"pnstm/stmlib"
)

type order struct {
	id    int
	lines map[string]int // SKU → units
	cents int64
}

var errOutOfStock = fmt.Errorf("out of stock")

func main() {
	rt, err := pnstm.New(pnstm.Config{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	stock := stmlib.NewTMap[string, int](32)
	orders := stmlib.NewTQueue[order]()
	revenue := stmlib.NewTCounter(8)

	skus := []string{"anvil", "bolt", "cog", "dynamo", "flux", "gear"}

	// Seed stock and enqueue a day's orders — one setup transaction.
	if err := rt.Run(func(c *pnstm.Ctx) {
		if err := c.Atomic(func(c *pnstm.Ctx) error {
			for _, s := range skus {
				stock.Put(c, s, 10)
			}
			for i := 0; i < 12; i++ {
				a, b := skus[i%len(skus)], skus[(i+2)%len(skus)]
				orders.Push(c, order{
					id:    100 + i,
					lines: map[string]int{a: 1 + i%3, b: 1},
					cents: int64(250 + 10*i),
				})
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
	}); err != nil {
		log.Fatal(err)
	}

	// fulfill pops one order and applies it atomically. Returning an
	// error aborts everything, leaving the order at the head of the queue.
	fulfill := func(c *pnstm.Ctx) (int, error) {
		id := -1
		err := c.Atomic(func(c *pnstm.Ctx) error {
			o, ok := orders.Pop(c)
			if !ok {
				return nil // empty queue: commit the no-op
			}
			id = o.id
			for sku, n := range o.lines {
				have, _ := stock.Get(c, sku)
				if have < n {
					return errOutOfStock
				}
				stock.Put(c, sku, have-n)
			}
			revenue.Add(c, o.cents)
			return nil
		})
		return id, err
	}

	// Process the day in batches of 4: each batch is one transaction whose
	// children fulfill orders in parallel.
	var fulfilled, rejected int
	if err := rt.Run(func(c *pnstm.Ctx) {
		for batch := 0; batch < 3; batch++ {
			// results is plain memory: children own disjoint slots and the
			// join synchronizes, but it must only be COUNTED after the batch
			// transaction committed (a retried body would recompute it).
			results := make([]error, 4)
			err := c.Atomic(func(c *pnstm.Ctx) error {
				fns := make([]func(*pnstm.Ctx), len(results))
				for i := range fns {
					i := i
					fns[i] = func(c *pnstm.Ctx) {
						_, results[i] = fulfill(c)
					}
				}
				c.Parallel(fns...)
				return nil
			})
			if err != nil {
				log.Fatal(err)
			}
			for _, e := range results {
				if e == nil {
					fulfilled++
				} else {
					rejected++
				}
			}
		}
	}); err != nil {
		log.Fatal(err)
	}

	// Audit + nightly restock, atomically: snapshot, total and restock are
	// one step; no concurrent reader could see the restock half-applied.
	if err := rt.Run(func(c *pnstm.Ctx) {
		if err := c.Atomic(func(c *pnstm.Ctx) error {
			snap := stock.Snapshot(c) // parallel bucket-group reads
			cents := revenue.Sum(c)   // every stripe in one nested child
			stock.BulkUpdate(c, skus, func(sku string, have int, ok bool) (int, bool) {
				if have < 10 {
					return 10, true // top every SKU back up
				}
				return have, true
			})
			keys := make([]string, 0, len(snap))
			for k := range snap {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Printf("end of day: %d fulfilled, %d left queued/rejected, revenue %d¢\n",
				fulfilled, rejected, cents)
			for _, k := range keys {
				fmt.Printf("  %-7s %2d on hand → restocked to 10\n", k, snap[k])
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
	}); err != nil {
		log.Fatal(err)
	}

	if err := rt.Run(func(c *pnstm.Ctx) {
		if n := orders.Len(c); n > 0 {
			fmt.Printf("%d orders remain queued for tomorrow\n", n)
		}
	}); err != nil {
		log.Fatal(err)
	}
}
