package server_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnstm/server"
	"pnstm/stmlib"
)

// The sharded-server suite. Shard assignment is a pure function of the
// structure name (stmlib.ShardIndex), so tests pick names whose shards
// they can compute — several of them deliberately on DIFFERENT shards,
// because the interesting properties are the cross-shard ones: checkout
// conservation when the stock map and its counters have different home
// shards, counter partials summing across shards, and per-shard stats
// aggregating without losing counts.

// shardOfName mirrors the server's routing for test assertions.
func shardOfName(name string, shards int) int { return stmlib.ShardIndex(name, shards) }

// TestShardedMixedTrafficOracle runs the full mixed-workload oracle —
// per-partition map models, shared counter, per-goroutine FIFO queues —
// against a 4-shard server: every property that held on one engine must
// hold when structures are spread over four.
func TestShardedMixedTrafficOracle(t *testing.T) {
	s := startServer(t, server.Config{Shards: 4, Workers: 4, MaxBatch: 32, BatchDelay: 200 * time.Microsecond})
	runMixedTraffic(t, s, 8, 150)

	st := s.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats report %d shards, per-shard %d entries; want 4", st.Shards, len(st.PerShard))
	}
	// Aggregation loses nothing: the totals are exactly the per-shard
	// sums (and the abort counts in particular must all be accounted
	// for).
	var batches, requests, begun, committed, aborted uint64
	shardsUsed := 0
	for _, sh := range st.PerShard {
		batches += sh.Batches
		requests += sh.Requests
		begun += sh.Runtime.Begun
		committed += sh.Runtime.Committed
		aborted += sh.Runtime.Aborted
		if sh.Requests > 0 {
			shardsUsed++
		}
	}
	if batches != st.Batches || requests != st.Requests {
		t.Errorf("per-shard batches/requests sum to %d/%d, aggregate says %d/%d", batches, requests, st.Batches, st.Requests)
	}
	if begun != st.Runtime.Begun || committed != st.Runtime.Committed || aborted != st.Runtime.Aborted {
		t.Errorf("per-shard runtime sums (begun %d committed %d aborted %d) != aggregate (%d %d %d): counts lost in roll-up",
			begun, committed, aborted, st.Runtime.Begun, st.Runtime.Committed, st.Runtime.Aborted)
	}
	if shardsUsed < 2 {
		t.Errorf("mixed traffic exercised only %d shards; the workload should spread", shardsUsed)
	}
}

// TestShardedCheckoutConservationAcrossShards is the cross-shard
// conservation scenario: the stock map, the sold counter and the
// revenue counter hash to THREE different shards of four ("stock"→0,
// "sold"→3, "revenue"→1 — pinned by TestShardIndexStable). Checkouts
// execute atomically on the stock map's shard, crediting counter
// partials there; concurrent direct CounterAdds to "sold" land on its
// own home shard. The cross-shard counter read must stitch the partials so
// that units are neither created nor destroyed.
func TestShardedCheckoutConservationAcrossShards(t *testing.T) {
	const shards = 4
	if a, b, c := shardOfName("stock", shards), shardOfName("sold", shards), shardOfName("revenue", shards); a == b || b == c || a == c {
		t.Fatalf("test premise broken: stock/sold/revenue land on shards %d/%d/%d, want three distinct", a, b, c)
	}
	s := startServer(t, server.Config{Shards: shards, Workers: 4, MaxBatch: 32, BatchDelay: 200 * time.Microsecond})
	const (
		skus       = 6
		initialPer = 40
		clients    = 6
		orders     = 60 // demand ≫ supply: forces rejections
		directAdds = 500
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
					Sold: "sold", Revenue: "revenue", Cents: units * 100, Lines: lines,
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
	// Concurrent direct adds to "sold" route to ITS home shard — a
	// second partial the cross-shard sum must fold in.
	adder := dial(t, s, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < directAdds; i++ {
			if err := adder.CounterAdd("sold", 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
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
	soldTotal, err := cl.CounterSum("sold")
	if err != nil {
		t.Fatal(err)
	}
	revenue, err := cl.CounterSum("revenue")
	if err != nil {
		t.Fatal(err)
	}
	sold := soldTotal - directAdds // checkout-credited units
	if total := remaining + sold; total != skus*initialPer {
		t.Errorf("conservation violated across shards: remaining %d + sold %d = %d, want %d",
			remaining, sold, total, skus*initialPer)
	}
	if revenue != sold*100 {
		t.Errorf("revenue %d inconsistent with %d units sold", revenue, sold)
	}
	t.Logf("accepted=%d rejected=%d sold=%d (+%d direct partial) remaining=%d", accepted, rejected, sold, directAdds, remaining)
}

// TestShardedCounterPartialsSum pins the partial mechanism down
// narrowly: credits from a checkout (stock's shard) and direct adds
// (the counter's home shard) are distinct partials, and the global read
// returns their exact sum.
func TestShardedCounterPartialsSum(t *testing.T) {
	const shards = 4
	s := startServer(t, server.Config{Shards: shards, Workers: 2, MaxBatch: 8})
	cl := dial(t, s, 1)
	if err := cl.MapPutInt("stock", "sku0", 100); err != nil {
		t.Fatal(err)
	}
	// 5 units via checkout → partial on shard(stock)=0, not shard(sold)=3.
	if ok, _, err := cl.Checkout("stock", server.Checkout{
		Sold: "sold", Lines: []server.CheckoutLine{{SKU: "sku0", Qty: 5}},
	}); err != nil || !ok {
		t.Fatalf("checkout: ok=%v err=%v", ok, err)
	}
	// 37 units directly → partial on shard(sold)=3.
	if err := cl.CounterAdd("sold", 37); err != nil {
		t.Fatal(err)
	}
	if sum, err := cl.CounterSum("sold"); err != nil || sum != 42 {
		t.Fatalf("global counter sum = %d, %v; want 42 (5 checkout-credited + 37 direct)", sum, err)
	}
}

// TestShardedPersistRestart: a sharded durable store lays one WAL per
// shard under shard-<i>/ and recovers every shard on reboot.
func TestShardedPersistRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		Shards: 4, Workers: 4, MaxBatch: 32, BatchDelay: 200 * time.Microsecond,
		DataDir: dir, Fsync: true,
	}
	s := startServer(t, cfg)
	cl := dial(t, s, 1)
	// x0, x1, x8, x3 land on shards 1, 2, 3, 0 respectively (pinned
	// spread): every shard's WAL receives traffic.
	names := []string{"x0", "x1", "x8", "x3"}
	hit := map[int]bool{}
	for _, n := range names {
		hit[shardOfName(n, 4)] = true
	}
	if len(hit) != 4 {
		t.Fatalf("test premise broken: %v do not cover all 4 shards", names)
	}
	for i, n := range names {
		if err := cl.MapPut(n, "k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := cl.QueuePush("q:"+n, []byte(n)); err != nil {
			t.Fatal(err)
		}
		if err := cl.CounterAdd("c:"+n, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := startServer(t, cfg)
	cl2 := dial(t, s2, 1)
	for i, n := range names {
		if v, ok, err := cl2.MapGet(n, "k"); err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered %s[k] = %q,%v,%v", n, v, ok, err)
		}
		if v, ok, err := cl2.QueuePop("q:" + n); err != nil || !ok || string(v) != n {
			t.Fatalf("recovered q:%s pop = %q,%v,%v", n, v, ok, err)
		}
		if sum, err := cl2.CounterSum("c:" + n); err != nil || sum != int64(i+1) {
			t.Fatalf("recovered c:%s = %d,%v want %d", n, sum, err, i+1)
		}
	}
	if ws := s2.WALStats(); ws.RecoveredRecords == 0 {
		t.Errorf("no WAL records recovered: %+v", ws)
	}
}

// TestShardManifestGuard: the shard count is pinned in the data
// directory's manifest — reopening with a different count must refuse
// rather than scatter structures across logs.
func TestShardManifestGuard(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Shards: 2, Workers: 2, MaxBatch: 8, DataDir: dir, Fsync: true}
	s := startServer(t, cfg)
	if err := dial(t, s, 1).CounterAdd("c", 1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	bad := cfg
	bad.Addr = "127.0.0.1:0"
	bad.Shards = 4
	if _, err := server.New(bad); err == nil {
		t.Fatal("reopening a 2-shard data dir with Shards=4 did not error")
	}

	s2 := startServer(t, cfg) // the correct count still boots
	if sum, err := dial(t, s2, 1).CounterSum("c"); err != nil || sum != 1 {
		t.Fatalf("recovered counter = %d,%v want 1", sum, err)
	}
}

// TestShardMissingManifestRefused: a store whose manifest is missing —
// a sharded layout after a partial restore, or a 1-shard store in the
// directory root — must be refused: without the recorded count the
// name→shard mapping cannot be re-established, for ANY configured shard
// count. Only an empty directory gets a new manifest.
func TestShardMissingManifestRefused(t *testing.T) {
	for _, written := range []int{2, 1} {
		dir := t.TempDir()
		cfg := server.Config{Shards: written, Workers: 2, MaxBatch: 8, DataDir: dir, Fsync: true}
		s := startServer(t, cfg)
		if err := dial(t, s, 1).CounterAdd("c", 1); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := os.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			bad := cfg
			bad.Addr = "127.0.0.1:0"
			bad.Shards = shards
			s, err := server.New(bad)
			if err == nil {
				s.Close()
				t.Errorf("manifest-less %d-shard dir accepted with Shards=%d", written, shards)
				continue
			}
			if !strings.Contains(err.Error(), "MANIFEST.json") {
				t.Errorf("boot error %q does not name the manifest", err)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); !os.IsNotExist(err) {
			t.Errorf("a refused %d-shard dir was given a manifest: %v", written, err)
		}
	}
}

// TestConcurrentExportsDoNotDeadlock: Exports, checkpoints and
// cross-shard transfers all queue tasks on the shards' loops. Run
// together on 4 durable shards they must all finish, and every Export
// must be a consistent cut: each transfer runs before an Export on both
// of its shards or after it on both, so every exported ledger sums to
// exactly zero. The loops stay usable afterwards.
func TestConcurrentExportsDoNotDeadlock(t *testing.T) {
	const (
		shards    = 4
		exporters = 4
		exportsBy = 8
	)
	s := startServer(t, server.Config{
		Shards: shards, Workers: 2, MaxBatch: 8,
		DataDir: t.TempDir(), Fsync: true,
	})
	cl := dial(t, s, 2)
	if err := cl.CounterAdd("c", 7); err != nil {
		t.Fatal(err)
	}
	// One account map per shard.
	accts := make([]string, shards)
	for i, found := 0, 0; found < shards; i++ {
		n := fmt.Sprintf("acct%d", i)
		if sh := shardOfName(n, shards); accts[sh] == "" {
			accts[sh] = n
			found++
		}
	}
	ledger := func(img *stmlib.RegistryImage) (sum int64) {
		for _, a := range accts {
			if v, ok := img.Maps[a]["bal"]; ok {
				n, err := server.DecodeInt64(v)
				if err != nil {
					t.Errorf("%s: %v", a, err)
				}
				sum += n
			}
		}
		return sum
	}

	var (
		stop      atomic.Bool
		committed atomic.Int64
		load      sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		load.Add(1)
		go func() {
			defer load.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				from := rng.Intn(shards)
				to := (from + 1 + rng.Intn(shards-1)) % shards
				amt := int64(1 + rng.Intn(9))
				if _, err := cl.Txn().MapAddInt(accts[from], "bal", -amt).MapAddInt(accts[to], "bal", amt).Commit(); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
				committed.Add(1)
			}
		}()
	}
	load.Add(1)
	go func() {
		defer load.Done()
		for !stop.Load() {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	for committed.Load() < 16 {
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, exporters)
	for i := 0; i < exporters; i++ {
		go func() {
			for j := 0; j < exportsBy; j++ {
				img, _, err := s.Export()
				if err != nil {
					done <- err
					return
				}
				if sum := ledger(img); sum != 0 {
					done <- fmt.Errorf("export %d: ledger sums to %d, want 0", j, sum)
					return
				}
			}
			done <- nil
		}()
	}
	var exportErr error
	timeout := time.After(30 * time.Second)
	for i := 0; i < exporters; i++ {
		select {
		case err := <-done:
			if exportErr == nil {
				exportErr = err
			}
		case <-timeout:
			t.Fatal("concurrent Export() calls deadlocked")
		}
	}
	stop.Store(true)
	load.Wait()
	if exportErr != nil {
		t.Fatal(exportErr)
	}
	// The pipelines must still be usable afterwards.
	if sum, err := cl.CounterSum("c"); err != nil || sum != 7 {
		t.Fatalf("counter after exports = %d,%v want 7", sum, err)
	}
	img, _, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	if sum := ledger(img); sum != 0 {
		t.Fatalf("final ledger sums to %d after %d transfers, want 0", sum, committed.Load())
	}
}

// TestShardedCrashRecovery is the 4-shard variant of the crash
// acceptance scenario: hard-kill mid-load, restart on the same data
// dir, every shard's WAL replays, and the counter / queue-FIFO /
// conservation invariants hold.
func TestShardedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		Shards: 4, Workers: 4, MaxBatch: 32, BatchDelay: 200 * time.Microsecond,
		DataDir: dir, Fsync: true,
	}
	const (
		producers  = 4
		buyers     = 2
		skus       = 5
		initialPer = int64(10000)
	)
	s := startServer(t, cfg)
	setup := dial(t, s, 1)
	for i := 0; i < skus; i++ {
		if err := setup.MapPutInt("stock", fmt.Sprintf("sku%d", i), initialPer); err != nil {
			t.Fatal(err)
		}
	}

	var (
		ackedAdds, attemptedAdds atomic.Int64
		ackedSold                atomic.Int64
		stop                     atomic.Bool
		wg                       sync.WaitGroup
		ackedPush                [producers]atomic.Int64
		attemptedPush            [producers]atomic.Int64
	)
	for g := 0; g < producers; g++ {
		g := g
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				attemptedPush[g].Add(1)
				if err := cl.QueuePush(fmt.Sprintf("q%d", g), server.EncodeInt64(int64(i))); err != nil {
					return // killed
				}
				ackedPush[g].Add(1)
				attemptedAdds.Add(2)
				if err := cl.CounterAdd("hits", 2); err != nil {
					return
				}
				ackedAdds.Add(2)
			}
		}()
	}
	for g := 0; g < buyers; g++ {
		g := g
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			for !stop.Load() {
				qty := int64(1 + rng.Intn(3))
				ok, _, err := cl.Checkout("stock", server.Checkout{
					Sold: "sold", Revenue: "revenue", Cents: qty * 100,
					Lines: []server.CheckoutLine{{SKU: fmt.Sprintf("sku%d", rng.Intn(skus)), Qty: qty}},
				})
				if err != nil {
					return // killed
				}
				if ok {
					ackedSold.Add(qty)
				}
			}
		}()
	}

	time.Sleep(400 * time.Millisecond)
	s.Kill() // simulated SIGKILL across all four WALs
	stop.Store(true)
	wg.Wait()
	if ackedAdds.Load() == 0 || ackedSold.Load() == 0 {
		t.Fatalf("no load landed before the kill (adds=%d sold=%d)", ackedAdds.Load(), ackedSold.Load())
	}

	s2 := startServer(t, cfg)
	cl := dial(t, s2, 1)

	sum, err := cl.CounterSum("hits")
	if err != nil {
		t.Fatal(err)
	}
	if sum < ackedAdds.Load() || sum > attemptedAdds.Load() {
		t.Errorf("recovered counter %d outside [acked %d, attempted %d]", sum, ackedAdds.Load(), attemptedAdds.Load())
	}
	for g := 0; g < producers; g++ {
		name := fmt.Sprintf("q%d", g)
		n, err := cl.QueueLen(name)
		if err != nil {
			t.Fatal(err)
		}
		if n < ackedPush[g].Load() || n > attemptedPush[g].Load() {
			t.Errorf("queue %s holds %d, outside [acked %d, attempted %d]",
				name, n, ackedPush[g].Load(), attemptedPush[g].Load())
		}
		for i := int64(0); i < n; i++ {
			raw, ok, err := cl.QueuePop(name)
			if err != nil || !ok {
				t.Fatalf("queue %s pop %d: %v %v", name, i, ok, err)
			}
			if v, _ := server.DecodeInt64(raw); v != i {
				t.Fatalf("queue %s pop %d = %d: FIFO prefix broken by sharded recovery", name, i, v)
			}
		}
	}
	var remaining int64
	for i := 0; i < skus; i++ {
		v, ok, err := cl.MapGetInt("stock", fmt.Sprintf("sku%d", i))
		if err != nil || !ok {
			t.Fatalf("stock sku%d: %v %v", i, ok, err)
		}
		if v < 0 {
			t.Errorf("sku%d oversold after recovery: %d", i, v)
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
	if total, want := remaining+sold, int64(skus)*initialPer; total != want {
		t.Errorf("conservation violated after sharded crash: remaining %d + sold %d = %d, want %d", remaining, sold, total, want)
	}
	if revenue != sold*100 {
		t.Errorf("revenue %d inconsistent with %d units sold", revenue, sold)
	}
	if sold < ackedSold.Load() {
		t.Errorf("recovered sold %d < acked sold %d: durable acks lost", sold, ackedSold.Load())
	}
	ws := s2.WALStats()
	if ws.RecoveredRecords == 0 {
		t.Errorf("recovery replayed nothing: %+v", ws)
	}
	t.Logf("recovered across 4 shards: counter=%d (acked %d) sold=%d (acked %d) wal=%+v",
		sum, ackedAdds.Load(), sold, ackedSold.Load(), ws)
}

// TestShardedCheckpointAndExport: per-shard checkpoints land in each
// shard's own directory, recovery uses them, and the stitched Export
// carries every shard's structures with one watermark per shard.
func TestShardedCheckpointAndExport(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Shards: 4, Workers: 4, MaxBatch: 32, DataDir: dir, Fsync: true}
	s := startServer(t, cfg)
	cl := dial(t, s, 1)
	// One counter per shard, found by probing the routing function.
	byShard := map[int]string{}
	for i := 0; len(byShard) < 4 && i < 1000; i++ {
		n := fmt.Sprintf("c%d", i)
		if sh := shardOfName(n, 4); byShard[sh] == "" {
			byShard[sh] = n
		}
	}
	names := []string{byShard[0], byShard[1], byShard[2], byShard[3]}
	for i, n := range names {
		if err := cl.CounterAdd(n, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ws := s.WALStats()
	if ws.Snapshots < 4 {
		t.Errorf("checkpoint wrote %d snapshots, want one per trafficked shard (4): %+v", ws.Snapshots, ws)
	}

	img, marks, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	if len(marks) != 4 {
		t.Fatalf("export watermarks: %d, want 4", len(marks))
	}
	for i, n := range names {
		if got := img.Counters[n]; got != int64(100+i) {
			t.Errorf("stitched export %s = %d, want %d", n, got, 100+i)
		}
	}
	// Post-checkpoint traffic, then reboot: snapshot + tail both replay.
	if err := cl.CounterAdd(names[0], 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := startServer(t, cfg)
	if sum, err := dial(t, s2, 1).CounterSum(names[0]); err != nil || sum != 101 {
		t.Fatalf("recovered %s = %d,%v want 101", names[0], sum, err)
	}
}
