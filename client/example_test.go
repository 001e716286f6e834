package client_test

import (
	"fmt"

	"pnstm/client"
	"pnstm/server"
)

// connect boots an in-memory server on a loopback port and connects to
// it; stop closes both.
func connect() (cl *client.Client, stop func()) {
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", Workers: 2})
	if err != nil {
		panic(err)
	}
	if err := s.Listen(); err != nil {
		panic(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	cl, err = client.Connect(client.Options{Addrs: []string{s.Addr().String()}})
	if err != nil {
		panic(err)
	}
	return cl, func() {
		cl.Close()
		s.Close()
		<-served
	}
}

// A map round trip: Ping checks the connection, MapDelete reports
// whether the key was there.
func ExampleClient_maps() {
	cl, stop := connect()
	defer stop()

	if err := cl.Ping(); err != nil {
		panic(err)
	}
	if err := cl.MapPut("carts", "alice", []byte("3 books")); err != nil {
		panic(err)
	}
	for i := 0; i < 2; i++ {
		found, err := cl.MapDelete("carts", "alice")
		fmt.Println("deleted:", found, err)
	}
	// Output:
	// deleted: true <nil>
	// deleted: false <nil>
}

// A sorted map entry with a deadline reads like any other until the
// deadline passes.
func ExampleClient_sorted() {
	cl, stop := connect()
	defer stop()

	if err := cl.SortedPutTTL("board", "alice", []byte("42"), 0); err != nil {
		panic(err)
	}
	v, ok, err := cl.SortedGet("board", "alice")
	fmt.Printf("get: %s %v %v\n", v, ok, err)
	found, err := cl.SortedDelete("board", "alice")
	fmt.Println("deleted:", found, err)
	_, ok, _ = cl.SortedGet("board", "alice")
	fmt.Println("still there:", ok)
	// Output:
	// get: 42 true <nil>
	// deleted: true <nil>
	// still there: false
}

// A leased element goes back to the queue on a nack and leaves it for
// good on an ack.
func ExampleClient_leases() {
	cl, stop := connect()
	defer stop()

	if err := cl.QueuePush("jobs", []byte("resize")); err != nil {
		panic(err)
	}
	const never = 1 << 62 // a lease deadline the reaper will not reach
	id, job, _, err := cl.LeaseConsume("jobs", never)
	if err != nil {
		panic(err)
	}
	requeued, err := cl.LeaseNack("jobs", id)
	fmt.Printf("nack %s: %v %v\n", job, requeued, err)
	id, job, _, err = cl.LeaseConsume("jobs", never)
	if err != nil {
		panic(err)
	}
	acked, err := cl.LeaseAck("jobs", id)
	fmt.Printf("ack %s: %v %v\n", job, acked, err)
	n, _ := cl.QueueLen("jobs")
	fmt.Println("left:", n)
	// Output:
	// nack resize: true <nil>
	// ack resize: true <nil>
	// left: 0
}

// One envelope commits every op or none: At names the index each
// result lands at.
func ExampleTxn() {
	cl, stop := connect()
	defer stop()

	if err := cl.MapPutInt("stock", "apple", 5); err != nil {
		panic(err)
	}
	if err := cl.MapPut("stock", "pear", []byte("gone")); err != nil {
		panic(err)
	}
	if err := cl.QueuePush("jobs", []byte("restock")); err != nil {
		panic(err)
	}
	const never = 1 << 62 // a lease deadline the reaper will not reach
	lease, err := cl.Txn().LeaseConsume("jobs", never).Commit()
	if err != nil {
		panic(err)
	}
	leaseID, _, _ := lease.Lease(0)

	tx := cl.Txn()
	tx.AssertCounterEq("orders", 0)
	apple := tx.At()
	tx.MapGet("stock", "apple")
	pear := tx.At()
	tx.MapDelete("stock", "pear").MapGet("stock", "pear")
	count := tx.At()
	tx.MapLen("stock")
	tx.SortedPutTTL("board", "alice", []byte("42"), 0)
	board := tx.At()
	tx.SortedGet("board", "alice").SortedDelete("board", "alice")
	nack := tx.At()
	tx.LeaseNack("jobs", leaseID).LeaseReclaim("jobs", 1)
	res, err := tx.Commit()
	if err != nil {
		panic(err)
	}
	v, ok, err := res.Int(apple)
	fmt.Println("apple:", v, ok, err)
	fmt.Println("pear deleted:", res.Found(pear), "then", res.Found(pear+1))
	fmt.Println("map len:", res.Num(count))
	fmt.Printf("board: %s, deleted %v\n", res.Bytes(board), res.Found(board+1))
	fmt.Println("nacked:", res.Found(nack), "reclaimed:", res.Num(nack+1))
	// Output:
	// apple: 5 true <nil>
	// pear deleted: true then false
	// map len: 1
	// board: 42, deleted true
	// nacked: true reclaimed: 0
}
