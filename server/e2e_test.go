package server_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pnstm/client"
	"pnstm/server"
)

// startServer boots an in-process pnstmd on a kernel-chosen port and
// tears it down at cleanup.
func startServer(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s
}

func dial(t testing.TB, s *server.Server, conns int) *client.Client {
	t.Helper()
	cl, err := client.Connect(client.Options{Addrs: []string{s.Addr().String()}, PoolSize: conns})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// runMixedTraffic drives the mixed workload from several goroutines each
// with its own client connection, checking every response against a
// sequential per-partition oracle:
//
//   - map: each goroutine owns a disjoint key range of the shared map and
//     replays its random put/delete/get script against a local model —
//     every get must match the model exactly;
//   - counter: everyone hammers one shared counter; the final sum must
//     equal the sum of all issued deltas;
//   - queue: each goroutine pushes a sequence into its own queue and pops
//     it back — pops must come out FIFO.
func runMixedTraffic(t *testing.T, s *server.Server, goroutines, opsPer int) {
	t.Helper()
	var wg sync.WaitGroup
	var deltaTotal int64
	var deltaMu sync.Mutex
	errs := make(chan error, goroutines)

	for g := 0; g < goroutines; g++ {
		g := g
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			model := make(map[string]string)
			var localDelta int64
			var pushed, popped int
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("g%d-k%d", g, rng.Intn(16))
				switch rng.Intn(6) {
				case 0, 1: // put
					val := fmt.Sprintf("v%d-%d", g, i)
					if err := cl.MapPut("m", key, []byte(val)); err != nil {
						errs <- err
						return
					}
					model[key] = val
				case 2: // get, checked against the oracle
					got, ok, err := cl.MapGet("m", key)
					if err != nil {
						errs <- err
						return
					}
					want, wantOK := model[key]
					if ok != wantOK || (ok && string(got) != want) {
						errs <- fmt.Errorf("g%d: map[%s] = %q,%v want %q,%v", g, key, got, ok, want, wantOK)
						return
					}
				case 3: // delete
					found, err := cl.MapDelete("m", key)
					if err != nil {
						errs <- err
						return
					}
					_, wantOK := model[key]
					if found != wantOK {
						errs <- fmt.Errorf("g%d: delete(%s) = %v want %v", g, key, found, wantOK)
						return
					}
					delete(model, key)
				case 4: // counter add
					d := int64(rng.Intn(9) - 4)
					if err := cl.CounterAdd("hits", d); err != nil {
						errs <- err
						return
					}
					localDelta += d
				case 5: // queue push, then pop when the backlog grows
					if err := cl.QueuePush(fmt.Sprintf("q%d", g), server.EncodeInt64(int64(pushed))); err != nil {
						errs <- err
						return
					}
					pushed++
					if pushed-popped >= 4 {
						raw, ok, err := cl.QueuePop(fmt.Sprintf("q%d", g))
						if err != nil {
							errs <- err
							return
						}
						if !ok {
							errs <- fmt.Errorf("g%d: queue unexpectedly empty", g)
							return
						}
						v, _ := server.DecodeInt64(raw)
						if v != int64(popped) {
							errs <- fmt.Errorf("g%d: pop = %d want %d (FIFO violated)", g, v, popped)
							return
						}
						popped++
					}
				}
			}
			// Drain the queue and verify the FIFO tail.
			for popped < pushed {
				raw, ok, err := cl.QueuePop(fmt.Sprintf("q%d", g))
				if err != nil || !ok {
					errs <- fmt.Errorf("g%d: drain pop: %v %v", g, ok, err)
					return
				}
				v, _ := server.DecodeInt64(raw)
				if v != int64(popped) {
					errs <- fmt.Errorf("g%d: drain pop = %d want %d", g, v, popped)
					return
				}
				popped++
			}
			// Final read-back of the whole owned partition.
			for key, want := range model {
				got, ok, err := cl.MapGet("m", key)
				if err != nil {
					errs <- err
					return
				}
				if !ok || string(got) != want {
					errs <- fmt.Errorf("g%d: final map[%s] = %q,%v want %q", g, key, got, ok, want)
					return
				}
			}
			deltaMu.Lock()
			deltaTotal += localDelta
			deltaMu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cl := dial(t, s, 1)
	sum, err := cl.CounterSum("hits")
	if err != nil {
		t.Fatal(err)
	}
	if sum != deltaTotal {
		t.Errorf("counter = %d want %d", sum, deltaTotal)
	}
	for g := 0; g < goroutines; g++ {
		if n, err := cl.QueueLen(fmt.Sprintf("q%d", g)); err != nil || n != 0 {
			t.Errorf("queue q%d: len %d, %v; want empty", g, n, err)
		}
	}
}

func TestE2EMixedTrafficBatched(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, MaxBatch: 32, BatchDelay: 200 * time.Microsecond})
	runMixedTraffic(t, s, 8, 150)
	st := s.Stats()
	if st.Requests == 0 || st.Batches == 0 {
		t.Fatalf("no batches recorded: %+v", st)
	}
	t.Logf("batches=%d requests=%d mean=%.2f largest=%d aborts=%.4f",
		st.Batches, st.Requests, st.MeanBatch, st.LargestBatch, st.RuntimeAborts)
}

// TestE2EMixedTrafficBatchSize1 runs the same oracle under the no-group
// baseline (every request its own root transaction).
func TestE2EMixedTrafficBatchSize1(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, MaxBatch: 1})
	runMixedTraffic(t, s, 4, 80)
	if st := s.Stats(); st.LargestBatch > 1 {
		t.Errorf("MaxBatch 1 produced a batch of %d", st.LargestBatch)
	}
}

// TestE2EMixedTrafficSerialRuntime runs the oracle under the
// serial-nesting runtime baseline: batches still form, but every nested
// child executes inline sequentially. Exercises that the single batcher
// goroutine is the only Run caller (Serial runtimes forbid concurrent
// Run).
func TestE2EMixedTrafficSerialRuntime(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, MaxBatch: 16, Serial: true, BatchDelay: 200 * time.Microsecond})
	runMixedTraffic(t, s, 4, 80)
}

// TestE2EGroupCommitForms proves the batcher actually coalesces: many
// concurrent one-shot clients inside a generous batching window must
// produce at least one multi-request batch.
func TestE2EGroupCommitForms(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, MaxBatch: 64, BatchDelay: 20 * time.Millisecond})
	const clients = 16
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := cl.CounterAdd("c", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.LargestBatch < 2 {
		t.Fatalf("no group commit formed: %+v", st)
	}
	if st.MeanBatch <= 1 {
		t.Errorf("mean batch %.2f, want > 1", st.MeanBatch)
	}
	cl := dial(t, s, 1)
	if sum, err := cl.CounterSum("c"); err != nil || sum != clients*20 {
		t.Errorf("counter = %d, %v want %d", sum, err, clients*20)
	}
	t.Logf("batches=%d requests=%d mean=%.2f largest=%d", st.Batches, st.Requests, st.MeanBatch, st.LargestBatch)
}

// TestE2EPipelinedReadHeavy exercises MaxInflight > 1 (concurrent group
// commits) with SharedReads on read-dominant traffic — the configuration
// pipelining is meant for — and checks the read-your-writes oracle still
// holds per key partition.
func TestE2EPipelinedReadHeavy(t *testing.T) {
	s := startServer(t, server.Config{
		Workers: 4, MaxBatch: 32, MaxInflight: 4, SharedReads: true,
	})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			model := make(map[string]string)
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-k%d", g, rng.Intn(8))
				if rng.Intn(10) == 0 { // 90% reads
					val := fmt.Sprintf("v%d", i)
					if err := cl.MapPut("m", key, []byte(val)); err != nil {
						errs <- err
						return
					}
					model[key] = val
				} else {
					got, ok, err := cl.MapGet("m", key)
					if err != nil {
						errs <- err
						return
					}
					want, wantOK := model[key]
					if ok != wantOK || (ok && string(got) != want) {
						errs <- fmt.Errorf("g%d: map[%s] = %q,%v want %q,%v", g, key, got, ok, want, wantOK)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestE2ECheckoutConservation drives the cross-structure checkout
// scenario to stock exhaustion from many connections and verifies the
// conservation invariants: units never created or destroyed, revenue
// consistent with units sold, rejected checkouts fully rolled back.
func TestE2ECheckoutConservation(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, MaxBatch: 32, BatchDelay: 200 * time.Microsecond})
	const (
		skus       = 6
		initialPer = 40
		clients    = 6
		orders     = 60 // demand ≫ supply: forces rejections
	)
	setup := dial(t, s, 1)
	for i := 0; i < skus; i++ {
		if err := setup.MapPutInt("stock", fmt.Sprintf("sku%d", i), initialPer); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var accepted, rejected int64
	var mu sync.Mutex
	for g := 0; g < clients; g++ {
		g := g
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			var acc, rej int64
			for i := 0; i < orders; i++ {
				nLines := 1 + rng.Intn(3)
				var lines []server.CheckoutLine
				var units int64
				seen := map[int]bool{}
				for len(lines) < nLines {
					sku := rng.Intn(skus)
					if seen[sku] {
						continue
					}
					seen[sku] = true
					qty := int64(1 + rng.Intn(3))
					lines = append(lines, server.CheckoutLine{SKU: fmt.Sprintf("sku%d", sku), Qty: qty})
					units += qty
				}
				ok, _, err := cl.Checkout("stock", server.Checkout{
					Sold:    "sold",
					Revenue: "revenue",
					Cents:   units * 100,
					Lines:   lines,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					acc++
				} else {
					rej++
				}
			}
			mu.Lock()
			accepted += acc
			rejected += rej
			mu.Unlock()
		}()
	}
	wg.Wait()

	if accepted == 0 || rejected == 0 {
		t.Fatalf("workload should both accept and reject: accepted=%d rejected=%d", accepted, rejected)
	}

	cl := dial(t, s, 1)
	var remaining int64
	for i := 0; i < skus; i++ {
		v, ok, err := cl.MapGetInt("stock", fmt.Sprintf("sku%d", i))
		if err != nil || !ok {
			t.Fatalf("stock sku%d: %v %v", i, ok, err)
		}
		if v < 0 {
			t.Errorf("sku%d oversold: %d on hand", i, v)
		}
		remaining += v
	}
	sold, err := cl.CounterSum("sold")
	if err != nil {
		t.Fatal(err)
	}
	revenue, err := cl.CounterSum("revenue")
	if err != nil {
		t.Fatal(err)
	}
	if total := remaining + sold; total != skus*initialPer {
		t.Errorf("conservation violated: remaining %d + sold %d = %d, want %d",
			remaining, sold, total, skus*initialPer)
	}
	if revenue != sold*100 {
		t.Errorf("revenue %d inconsistent with %d units sold", revenue, sold)
	}
	t.Logf("accepted=%d rejected=%d sold=%d remaining=%d", accepted, rejected, sold, remaining)
}

// TestE2EClientErrors covers the failure surface the review flagged:
// unencodable requests fail the single call (not the connection), and a
// malformed checkout (non-positive quantity) is rejected server-side
// without touching the store.
func TestE2EClientErrors(t *testing.T) {
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 8})
	cl := dial(t, s, 1)

	if err := cl.MapPutInt("stock", "sku0", 10); err != nil {
		t.Fatal(err)
	}

	// Oversize key: the client refuses to encode it and the connection
	// stays usable.
	longKey := string(make([]byte, 1<<16))
	if _, _, err := cl.MapGet("m", longKey); err == nil {
		t.Error("oversize key did not error")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after rejected request: %v", err)
	}

	// Negative quantity: server-side StatusErr, stock untouched.
	_, _, err := cl.Checkout("stock", server.Checkout{
		Sold:  "sold",
		Lines: []server.CheckoutLine{{SKU: "sku0", Qty: -5}},
	})
	if err == nil {
		t.Error("negative-quantity checkout did not error")
	}
	if v, ok, err := cl.MapGetInt("stock", "sku0"); err != nil || !ok || v != 10 {
		t.Errorf("stock after bad checkout = %d,%v,%v want 10", v, ok, err)
	}
	if sold, err := cl.CounterSum("sold"); err != nil || sold != 0 {
		t.Errorf("sold after bad checkout = %d,%v want 0", sold, err)
	}
}

// TestE2EStatsAndPing covers the connection-level ops.
func TestE2EStatsAndPing(t *testing.T) {
	s := startServer(t, server.Config{Workers: 2, MaxBatch: 8})
	cl := dial(t, s, 2)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.CounterAdd("c", 5); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.MaxBatch != 8 || st.Requests == 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.Runtime.Committed == 0 {
		t.Errorf("runtime stats missing: %+v", st.Runtime)
	}
}
