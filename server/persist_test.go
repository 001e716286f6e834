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

	"pnstm/internal/wal"
	"pnstm/server"
)

// persistCfg is the baseline durable-server configuration tests start
// from (small batches, fsync on, aggressive coalescing window).
func persistCfg(dir string) server.Config {
	return server.Config{
		Workers:    4,
		MaxBatch:   32,
		BatchDelay: 200 * time.Microsecond,
		DataDir:    dir,
		Fsync:      true,
	}
}

// TestPersistSurvivesRestart is the quickstart property: write, close,
// reboot on the same data dir, read everything back.
func TestPersistSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	s := startServer(t, persistCfg(dir))
	cl := dial(t, s, 1)
	if err := cl.MapPut("m", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := cl.MapPut("m", "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MapDelete("m", "k1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := cl.QueuePush("q", []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.QueuePop("q"); err != nil {
		t.Fatal(err)
	}
	if err := cl.CounterAdd("c", 41); err != nil {
		t.Fatal(err)
	}
	if err := cl.CounterAdd("c", 1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := startServer(t, persistCfg(dir))
	cl2 := dial(t, s2, 1)
	if v, ok, err := cl2.MapGet("m", "k2"); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("recovered m[k2] = %q,%v,%v want v2", v, ok, err)
	}
	if _, ok, err := cl2.MapGet("m", "k1"); err != nil || ok {
		t.Fatalf("deleted key k1 resurrected: ok=%v err=%v", ok, err)
	}
	if n, err := cl2.QueueLen("q"); err != nil || n != 4 {
		t.Fatalf("recovered queue len = %d,%v want 4", n, err)
	}
	// FIFO survives recovery: e0 was popped, e1..e4 remain in order.
	for i := 1; i <= 4; i++ {
		v, ok, err := cl2.QueuePop("q")
		if err != nil || !ok || string(v) != fmt.Sprintf("e%d", i) {
			t.Fatalf("recovered pop %d = %q,%v,%v (FIFO broken)", i, v, ok, err)
		}
	}
	if sum, err := cl2.CounterSum("c"); err != nil || sum != 42 {
		t.Fatalf("recovered counter = %d,%v want 42", sum, err)
	}
}

// TestPersistOneFsyncPerGroupCommit is the amortization invariant from
// the issue: a write-only workload must issue exactly one WAL append
// and one fsync per group commit, however many requests each batch
// carried.
func TestPersistOneFsyncPerGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, server.Config{
		Workers: 4, MaxBatch: 64, BatchDelay: 5 * time.Millisecond,
		DataDir: dir, Fsync: true,
	})
	const clients, opsPer = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if err := cl.CounterAdd("c", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := s.Stats()
	ws := s.WALStats()
	if st.WAL == nil {
		t.Fatal("ServerStats.WAL missing on a durable server")
	}
	// Every batch of this workload mutates, so: one record per batch,
	// one fsync per record.
	if ws.Appends != st.Batches {
		t.Errorf("wal appends %d != batches %d (want one record per group commit)", ws.Appends, st.Batches)
	}
	if ws.Syncs != ws.Appends {
		t.Errorf("wal syncs %d != appends %d (want exactly one fsync per group commit)", ws.Syncs, ws.Appends)
	}
	if st.Requests <= st.Batches {
		t.Errorf("no grouping formed (requests %d, batches %d): fsync amortization untested", st.Requests, st.Batches)
	}
	t.Logf("requests=%d batches=%d appends=%d syncs=%d (%.1f requests per fsync)",
		st.Requests, st.Batches, ws.Appends, ws.Syncs, float64(st.Requests)/float64(ws.Syncs))
}

// TestPersistReadOnlyBatchesCostNoFsync: reads must not append or sync.
func TestPersistReadOnlyBatchesCostNoFsync(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, persistCfg(dir))
	cl := dial(t, s, 1)
	if err := cl.MapPut("m", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	base := s.WALStats()
	for i := 0; i < 50; i++ {
		if _, _, err := cl.MapGet("m", "k"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.CounterSum("c"); err != nil {
			t.Fatal(err)
		}
	}
	// A rejected checkout mutates nothing either.
	if ok, _, err := cl.Checkout("m", server.Checkout{Lines: []server.CheckoutLine{{SKU: "absent", Qty: 1}}}); err != nil || ok {
		t.Fatalf("checkout against missing stock: ok=%v err=%v", ok, err)
	}
	ws := s.WALStats()
	if ws.Appends != base.Appends || ws.Syncs != base.Syncs {
		t.Errorf("read-only traffic hit the wal: appends %d->%d syncs %d->%d",
			base.Appends, ws.Appends, base.Syncs, ws.Syncs)
	}
}

// TestPersistCleanShutdownLosesNothing: every op acked before Close must
// be present after a restart — the graceful-shutdown satellite.
func TestPersistCleanShutdownLosesNothing(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, persistCfg(dir))
	const clients, opsPer = 6, 40
	var wg sync.WaitGroup
	var acked atomic.Int64
	for g := 0; g < clients; g++ {
		g := g
		cl := dial(t, s, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if err := cl.CounterAdd("total", 1); err != nil {
					t.Error(err)
					return
				}
				acked.Add(1)
				if err := cl.QueuePush(fmt.Sprintf("q%d", g), server.EncodeInt64(int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.Close()

	s2 := startServer(t, persistCfg(dir))
	cl := dial(t, s2, 1)
	sum, err := cl.CounterSum("total")
	if err != nil {
		t.Fatal(err)
	}
	if sum != acked.Load() {
		t.Errorf("counter after clean shutdown = %d, want %d acked adds", sum, acked.Load())
	}
	for g := 0; g < clients; g++ {
		name := fmt.Sprintf("q%d", g)
		if n, err := cl.QueueLen(name); err != nil || n != opsPer {
			t.Fatalf("queue %s len = %d,%v want %d", name, n, err, opsPer)
		}
		for i := 0; i < opsPer; i++ {
			raw, ok, err := cl.QueuePop(name)
			if err != nil || !ok {
				t.Fatalf("queue %s pop %d: %v %v", name, i, ok, err)
			}
			if v, _ := server.DecodeInt64(raw); v != int64(i) {
				t.Fatalf("queue %s pop %d = %d (FIFO broken across restart)", name, i, v)
			}
		}
	}
}

// TestPersistCrashRecoveryE2E is the issue's acceptance scenario: hard-
// kill the server mid-load, restart on the same data dir, and check the
// recovered store against what the clients saw acked:
//
//   - counter: recovered sum within [acked, attempted] adds
//   - queues (one per producer, sequential values): the recovered
//     contents are exactly 0..n-1 in FIFO order with n ≥ acked pushes
//   - checkout: conservation and revenue-consistency hold exactly, and
//     units sold ≥ units acked as sold
func TestPersistCrashRecoveryE2E(t *testing.T) {
	dir := t.TempDir()
	const (
		producers  = 4
		buyers     = 4
		skus       = 5
		initialPer = int64(10000)
	)

	s := startServer(t, persistCfg(dir))
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
				sku := fmt.Sprintf("sku%d", rng.Intn(skus))
				ok, _, err := cl.Checkout("stock", server.Checkout{
					Sold: "sold", Revenue: "revenue", Cents: qty * 100,
					Lines: []server.CheckoutLine{{SKU: sku, Qty: qty}},
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
	s.Kill() // simulated SIGKILL: no flush, no farewell
	stop.Store(true)
	wg.Wait()

	if ackedAdds.Load() == 0 || ackedSold.Load() == 0 {
		t.Fatalf("no load landed before the kill (adds=%d sold=%d)", ackedAdds.Load(), ackedSold.Load())
	}

	s2 := startServer(t, persistCfg(dir))
	cl := dial(t, s2, 1)

	// Counter: everything acked must have survived; anything beyond that
	// must be explainable by in-flight requests at the kill.
	sum, err := cl.CounterSum("hits")
	if err != nil {
		t.Fatal(err)
	}
	if sum < ackedAdds.Load() || sum > attemptedAdds.Load() {
		t.Errorf("recovered counter %d outside [acked %d, attempted %d]", sum, ackedAdds.Load(), attemptedAdds.Load())
	}

	// Queues: per-producer FIFO prefix 0..n-1, n ≥ acked pushes.
	for g := 0; g < producers; g++ {
		name := fmt.Sprintf("q%d", g)
		n, err := cl.QueueLen(name)
		if err != nil {
			t.Fatal(err)
		}
		if n < ackedPush[g].Load() || n > attemptedPush[g].Load() {
			t.Errorf("queue %s holds %d elements, outside [acked %d, attempted %d]",
				name, n, ackedPush[g].Load(), attemptedPush[g].Load())
		}
		for i := int64(0); i < n; i++ {
			raw, ok, err := cl.QueuePop(name)
			if err != nil || !ok {
				t.Fatalf("queue %s pop %d: %v %v", name, i, ok, err)
			}
			if v, _ := server.DecodeInt64(raw); v != i {
				t.Fatalf("queue %s pop %d = %d: FIFO prefix broken by crash recovery", name, i, v)
			}
		}
	}

	// Checkout conservation is exact in ANY recovered state: an order
	// either fully replayed or never happened.
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
		t.Errorf("conservation violated after crash: remaining %d + sold %d = %d, want %d", remaining, sold, total, want)
	}
	if revenue != sold*100 {
		t.Errorf("revenue %d inconsistent with %d units sold after crash", revenue, sold)
	}
	if sold < ackedSold.Load() {
		t.Errorf("recovered sold %d < acked sold %d: durable acks lost", sold, ackedSold.Load())
	}
	t.Logf("recovered: counter=%d (acked %d) sold=%d (acked %d) wal=%+v",
		sum, ackedAdds.Load(), sold, ackedSold.Load(), s2.WALStats())
}

// TestPersistCheckpointTruncatesAndRecovers: a checkpoint plus further
// traffic recovers snapshot + WAL tail, not one or the other.
func TestPersistCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir)
	cfg.WALSegmentBytes = 4096 // rotate often so truncation has prey
	s := startServer(t, cfg)
	cl := dial(t, s, 1)
	for i := 0; i < 200; i++ {
		if err := cl.MapPut("m", fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("pre%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ws := s.WALStats()
	if ws.SnapshotLSN == 0 || ws.Snapshots != 1 {
		t.Fatalf("checkpoint left no snapshot: %+v", ws)
	}
	// Post-snapshot traffic lands in the WAL tail.
	for i := 0; i < 50; i++ {
		if err := cl.MapPut("m", fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("post%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.CounterAdd("c", 7); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := startServer(t, cfg)
	cl2 := dial(t, s2, 1)
	for i := 0; i < 200; i++ {
		want := fmt.Sprintf("pre%d", i)
		if i < 50 {
			want = fmt.Sprintf("post%d", i)
		}
		v, ok, err := cl2.MapGet("m", fmt.Sprintf("k%03d", i))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("recovered m[k%03d] = %q,%v,%v want %q", i, v, ok, err, want)
		}
	}
	if sum, err := cl2.CounterSum("c"); err != nil || sum != 7 {
		t.Fatalf("recovered counter = %d,%v want 7", sum, err)
	}
	ws2 := s2.WALStats()
	if ws2.SnapshotLSN == 0 {
		t.Errorf("recovery ignored the snapshot: %+v", ws2)
	}
	if ws2.RecoveredRecords == 0 {
		t.Errorf("recovery found no WAL tail to replay: %+v", ws2)
	}
}

// TestPersistBackgroundCheckpointer: SnapshotEvery produces snapshots
// without manual calls, under live traffic.
func TestPersistBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir)
	cfg.SnapshotEvery = 50 * time.Millisecond
	s := startServer(t, cfg)
	cl := dial(t, s, 1)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := cl.CounterAdd("c", 1); err != nil {
			t.Fatal(err)
		}
		if s.WALStats().Snapshots > 0 {
			break
		}
	}
	if ws := s.WALStats(); ws.Snapshots == 0 {
		t.Fatalf("background checkpointer never wrote a snapshot: %+v", ws)
	}
}

// TestPersistTornWALTailRecoversCleanly truncates the WAL mid-record
// after a dirty stop: the server must boot without error, recover the
// durable prefix, and keep serving.
func TestPersistTornWALTailRecoversCleanly(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, persistCfg(dir))
	cl := dial(t, s, 1)
	for i := 0; i < 20; i++ {
		if err := cl.CounterAdd("c", 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the last record: chop a few bytes off the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v %v", segs, err)
	}
	seg := segs[len(segs)-1]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, persistCfg(dir))
	cl2 := dial(t, s2, 1)
	sum, err := cl2.CounterSum("c")
	if err != nil {
		t.Fatal(err)
	}
	// The torn record held ≥1 add; everything before it must survive.
	if sum < 1 || sum > 19 {
		t.Errorf("recovered counter = %d, want within [1,19] (prefix minus torn tail)", sum)
	}
	ws := s2.WALStats()
	if !ws.RepairedTail {
		t.Errorf("torn tail not flagged as repaired: %+v", ws)
	}
	// The repaired log must accept new writes and survive another boot.
	if err := cl2.CounterAdd("c", 100); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := startServer(t, persistCfg(dir))
	cl3 := dial(t, s3, 1)
	sum2, err := cl3.CounterSum("c")
	if err != nil {
		t.Fatal(err)
	}
	if sum2 != sum+100 {
		t.Errorf("post-repair write lost: %d, want %d", sum2, sum+100)
	}
}

// TestPersistCorruptWALRecordRecoversCleanly flips a byte in the middle
// of the log: boot must not error and must not apply the garbage.
func TestPersistCorruptWALRecordRecoversCleanly(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, persistCfg(dir))
	cl := dial(t, s, 1)
	for i := 0; i < 20; i++ {
		if err := cl.CounterAdd("c", 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no wal segments")
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, persistCfg(dir))
	cl2 := dial(t, s2, 1)
	sum, err := cl2.CounterSum("c")
	if err != nil {
		t.Fatal(err)
	}
	if sum < 0 || sum > 20 {
		t.Errorf("recovered counter = %d after corruption, want a clean prefix in [0,20]", sum)
	}
	if ws := s2.WALStats(); !ws.RepairedTail {
		t.Errorf("corruption not flagged: %+v", ws)
	}
}

// TestPersistForcesSingleInflight: the WAL's commit-order contract
// relies on one group commit at a time per shard (D20), so concurrent
// writers' batches replay to the state they were acked in.
func TestPersistForcesSingleInflight(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, persistCfg(dir))
	cl := dial(t, s, 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := cl.CounterAdd("c", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if sum, err := cl.CounterSum("c"); err != nil || sum != 200 {
		t.Fatalf("counter = %d,%v want 200", sum, err)
	}
	s.Close()
	s2 := startServer(t, persistCfg(dir))
	if sum, err := dial(t, s2, 1).CounterSum("c"); err != nil || sum != 200 {
		t.Fatalf("recovered counter = %d,%v want 200", sum, err)
	}
}

// TestPersistManifestV1Refused: a version-1 manifest is refused at boot
// with the way forward, and left as it was, so an earlier build can
// still open the directory and rewrite it.
func TestPersistManifestV1Refused(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Shards: 1, Workers: 2, DataDir: dir, Fsync: true}
	s := startServer(t, cfg)
	if err := dial(t, s, 1).CounterAdd("c", 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := wal.WriteManifest(dir, wal.Manifest{Version: 1, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if s, err := server.New(cfg); err == nil {
		s.Close()
		t.Fatal("a version-1 manifest booted")
	} else {
		for _, want := range []string{"version-1 manifest", "earlier pnstm build"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("boot error %q does not mention %q", err, want)
			}
		}
	}
	if m, ok, err := wal.ReadManifest(dir); err != nil || !ok || m.Version != 1 {
		t.Fatalf("manifest after the refusal: %+v ok=%v err=%v", m, ok, err)
	}
}
