package pnstm_test

import (
	"fmt"
	"log"
	"math/rand"
	"slices"

	"pnstm"
)

// The package example is the paper's Figure 1: a bank transfer whose
// debit and credit run as parallel nested transactions inside the outer
// transaction, followed by the outer transaction reading its child's
// result.
func Example() {
	rt, err := pnstm.New(pnstm.Config{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	acctA := pnstm.NewTVar(100)
	acctB := pnstm.NewTVar(50)

	err = rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error { // t0
			c.Parallel(
				func(c *pnstm.Ctx) { // t1, child of t0
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						pnstm.Store(c, acctA, pnstm.Load(c, acctA)-30)
						return nil
					})
				},
				func(c *pnstm.Ctx) { // t2, child of t0
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						pnstm.Store(c, acctB, pnstm.Load(c, acctB)+30)
						return nil
					})
				},
			)
			// t0 reads B immediately after its child committed; the
			// committed-descendant notes (§5.2) guarantee no false conflict
			// even before the commit is published.
			fmt.Println("balance of B:", pnstm.Load(c, acctB))
			return nil
		})
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final: A=%d B=%d\n", acctA.Peek(), acctB.Peek())
	// Output:
	// balance of B: 80
	// final: A=70 B=80
}

// AtomicResult returns a value out of a transaction; an error from the
// body aborts every write the transaction (and its committed
// descendants) made.
func ExampleAtomicResult() {
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	stock := pnstm.NewTVar(5)
	errSoldOut := fmt.Errorf("sold out")

	take := func(c *pnstm.Ctx, n int) (int, error) {
		return pnstm.AtomicResult(c, func(c *pnstm.Ctx) (int, error) {
			have := pnstm.Load(c, stock)
			if have < n {
				return 0, errSoldOut
			}
			pnstm.Store(c, stock, have-n)
			return have - n, nil
		})
	}

	_ = rt.Run(func(c *pnstm.Ctx) {
		left, err := take(c, 3)
		fmt.Println(left, err)
		left, err = take(c, 3) // aborts: nothing is deducted
		fmt.Println(left, err)
	})
	fmt.Println("remaining:", stock.Peek())
	// Output:
	// 2 <nil>
	// 0 sold out
	// remaining: 2
}

// Update composes a read-modify-write; inside an enclosing Atomic it is
// one step of the enclosing transaction.
func ExampleUpdate() {
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	hits := pnstm.NewTVar(0)
	_ = rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			for i := 0; i < 3; i++ {
				pnstm.Update(c, hits, func(n int) int { return n + 1 })
			}
			return nil
		})
	})
	fmt.Println(hits.Peek())
	// Output:
	// 3
}

// Swap stores a new value and hands back the one it replaced, in one
// access: here a job slot is taken and cleared at once.
func ExampleSwap() {
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	slot := pnstm.NewTVar("resize image")
	_ = rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			fmt.Printf("took %q\n", pnstm.Swap(c, slot, ""))
			return nil
		})
	})
	fmt.Printf("left %q\n", slot.Peek())
	// Output:
	// took "resize image"
	// left ""
}

// Workers is the fork width: stmlib's bulk operations split their work
// into at most this many parallel children.
func ExampleRuntime_Workers() {
	rt, err := pnstm.New(pnstm.Config{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	fmt.Println(rt.Workers())
	// Output:
	// 4
}

// parallelSum is a parallel library routine: it sums vars[lo:hi] with a
// divide-and-conquer tree of nested transactions, and callers may invoke
// it inside a transaction of their own.
func parallelSum(c *pnstm.Ctx, vars []*pnstm.TVar[int], lo, hi int) int {
	if hi-lo <= 32 {
		total, _ := pnstm.AtomicResult(c, func(c *pnstm.Ctx) (int, error) {
			s := 0
			for _, v := range vars[lo:hi] {
				s += pnstm.Load(c, v)
			}
			return s, nil
		})
		return total
	}
	mid := (lo + hi) / 2
	var left, right int
	c.Parallel(
		func(c *pnstm.Ctx) { left = parallelSum(c, vars, lo, mid) },
		func(c *pnstm.Ctx) { right = parallelSum(c, vars, mid, hi) },
	)
	return left + right
}

// The bank example shows composability, the property serial nesting
// destroys (paper §1): eight groups of transfers, each a transaction
// whose debit and credit are parallel nested children, run beside an
// auditor whose transaction calls the parallel library routine
// parallelSum. With serial nesting that call would serialize; here it is
// a tree of parallel nested transactions, and every audit sees the total
// conserved.
func Example_bank() {
	const accounts, initial, groups, transfers = 256, 1_000, 8, 200
	rt, err := pnstm.New(pnstm.Config{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	vars := make([]*pnstm.TVar[int], accounts)
	for i := range vars {
		vars[i] = pnstm.NewTVar(initial)
	}
	var audits []int
	err = rt.Run(func(c *pnstm.Ctx) {
		fns := make([]func(*pnstm.Ctx), groups+1)
		for g := range groups {
			rng := rand.New(rand.NewSource(int64(g) + 42))
			fns[g] = func(c *pnstm.Ctx) {
				for range transfers {
					from, to, amt := rng.Intn(accounts), rng.Intn(accounts), rng.Intn(100)
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						c.Parallel(
							func(c *pnstm.Ctx) {
								_ = c.Atomic(func(c *pnstm.Ctx) error {
									pnstm.Update(c, vars[from], func(v int) int { return v - amt })
									return nil
								})
							},
							func(c *pnstm.Ctx) {
								_ = c.Atomic(func(c *pnstm.Ctx) error {
									pnstm.Update(c, vars[to], func(v int) int { return v + amt })
									return nil
								})
							},
						)
						return nil
					})
				}
			}
		}
		fns[groups] = func(c *pnstm.Ctx) { // the auditor
			for range 10 {
				sum, _ := pnstm.AtomicResult(c, func(c *pnstm.Ctx) (int, error) {
					return parallelSum(c, vars, 0, accounts), nil
				})
				audits = append(audits, sum)
			}
		}
		c.Parallel(fns...)
	})
	if err != nil {
		log.Fatal(err)
	}
	final := 0
	for _, v := range vars {
		final += v.Peek()
	}
	fmt.Println("audits:", len(audits), "conserved:", !slices.ContainsFunc(audits, func(s int) bool { return s != accounts*initial }))
	fmt.Println("transfers:", groups*transfers, "final total:", final)
	// Output:
	// audits: 10 conserved: true
	// transfers: 1600 final total: 256000
}
