package stmlib_test

import (
	"fmt"
	"log"
	"time"

	"pnstm"
	"pnstm/stmlib"
)

// A leaderboard query: RangeScan splits the key space into subranges and
// forks one nested child per subrange, so a big scan parallelizes and a
// conflicting writer only restarts the one child whose subrange it
// touched — the paper's partial-abort benefit applied to range reads.
func ExampleTSortedMap_RangeScan() {
	rt, err := pnstm.New(pnstm.Config{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	board := stmlib.NewTSortedMap[string, int]()
	err = rt.Run(func(c *pnstm.Ctx) {
		board.Put(c, "ada", 310)
		board.Put(c, "bob", 250)
		board.Put(c, "cyd", 480)
		board.Put(c, "dee", 120)

		for _, e := range board.RangeScan(c, "b", "d", 0) {
			fmt.Printf("%s: %d\n", e.Key, e.Value)
		}
		fmt.Println("players b..d:", board.RangeCount(c, "b", "d"))
		for _, e := range board.RangeFrom(c, "c", 1) {
			fmt.Printf("first from c: %s\n", e.Key)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// bob: 250
	// cyd: 480
	// players b..d: 2
	// first from c: cyd
}

// A work queue with at-least-once delivery: ConsumeLease hands an
// element to a worker under a deadline; Ack retires it, Nack returns it,
// and ReclaimExpired requeues anything a crashed worker left leased past
// its deadline.
func ExampleTQueue_ConsumeLease() {
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	jobs := stmlib.NewTQueue[string]()
	deadline := time.Now().Add(time.Minute).UnixNano()
	err = rt.Run(func(c *pnstm.Ctx) {
		jobs.PushAll(c, "resize image", "send email")

		id, job, _ := jobs.ConsumeLease(c, deadline)
		fmt.Printf("working on %q (lease %d)\n", job, id)
		jobs.Ack(c, id) // done — retire the lease

		id2, job2, _ := jobs.ConsumeLease(c, deadline)
		jobs.Nack(c, id2) // can't do it — requeue immediately
		fmt.Printf("gave back %q, queue holds %d\n", job2, jobs.Len(c))
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// working on "resize image" (lease 1)
	// gave back "send email", queue holds 1
}

// A registry sizes every structure it creates from its config: maps get
// MapBuckets buckets.
func ExampleTMap_Buckets() {
	r := stmlib.NewRegistry(stmlib.RegistryConfig{MapBuckets: 16})
	fmt.Println(r.Map("orders").Buckets())
	// Output:
	// 16
}
