package server_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pnstm/client"
	"pnstm/server"
)

// TestSortedMapWireE2E drives the sorted-map sub-ops over the wire on
// both an unsharded and a sharded server: point CRUD, ordered range
// scans with bounds and limits, range counts, and read-your-writes
// inside one envelope.
func TestSortedMapWireE2E(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := startServer(t, server.Config{Shards: shards})
			cl := dial(t, s, 2)

			const n = 50
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("k%03d", (i*37)%n) // scrambled insert order
				if err := cl.SortedPut("board", k, []byte(fmt.Sprint(i))); err != nil {
					t.Fatal(err)
				}
			}
			if v, ok, err := cl.SortedGet("board", "k001"); err != nil || !ok || len(v) == 0 {
				t.Fatalf("SortedGet = %q, %v, %v", v, ok, err)
			}
			if _, ok, err := cl.SortedGet("board", "missing"); err != nil || ok {
				t.Fatalf("SortedGet(missing) = %v, %v", ok, err)
			}

			// Full scan comes back complete and sorted.
			es, err := cl.RangeScan("board", "", "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(es) != n {
				t.Fatalf("full scan = %d entries, want %d", len(es), n)
			}
			for i := 1; i < len(es); i++ {
				if es[i-1].Key >= es[i].Key {
					t.Fatalf("scan out of order: %q >= %q", es[i-1].Key, es[i].Key)
				}
			}
			// [lo, hi) bounds and the limit.
			es, err = cl.RangeScan("board", "k010", "k020", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(es) != 10 || es[0].Key != "k010" || es[9].Key != "k019" {
				t.Fatalf("bounded scan = %d entries [%q..%q]", len(es), es[0].Key, es[len(es)-1].Key)
			}
			if es, err = cl.RangeScan("board", "k010", "k020", 3); err != nil || len(es) != 3 {
				t.Fatalf("limited scan = %d entries, %v", len(es), err)
			}
			if cnt, err := cl.RangeCount("board", "k010", "k020"); err != nil || cnt != 10 {
				t.Fatalf("RangeCount = %d, %v", cnt, err)
			}

			// Delete and physical length.
			if ok, err := cl.SortedDelete("board", "k000"); err != nil || !ok {
				t.Fatalf("SortedDelete = %v, %v", ok, err)
			}
			if ok, err := cl.SortedDelete("board", "k000"); err != nil || ok {
				t.Fatalf("double SortedDelete = %v, %v", ok, err)
			}
			res, err := cl.Txn().SortedLen("board").Commit()
			if err != nil || res.Num(0) != n-1 {
				t.Fatalf("SortedLen = %d, %v", res.Num(0), err)
			}

			// Read-your-writes inside one envelope, mixing structures.
			tx := cl.Txn()
			tx.SortedPut("board", "zzz", []byte("last"))
			tx.SortedGet("board", "zzz")
			tx.RangeCount("board", "zzz", "")
			tx.CounterAdd("scans", 1)
			r, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if !r.Found(1) || string(r.Bytes(1)) != "last" {
				t.Fatalf("read-your-writes = %q, %v", r.Bytes(1), r.Found(1))
			}
			if r.Num(2) != 1 {
				t.Fatalf("in-envelope count = %d", r.Num(2))
			}
		})
	}
}

// TestOversizeScanReplyFailsTheScanNotTheConnection: 6000 values of 3 KB
// encode to more than a response frame may carry. The server knows the
// size before it allocates the reply, so the scan's envelope fails with
// a message naming size and limit; the connection — and a call in flight
// on it — survives, and the same range read in pages succeeds.
func TestOversizeScanReplyFailsTheScanNotTheConnection(t *testing.T) {
	s := startServer(t, server.Config{})
	cl := dial(t, s, 1) // one connection: a dropped frame would take every call with it

	const n, valueLen = 6000, 3 << 10
	val := make([]byte, valueLen)
	for lo := 0; lo < n; lo += 100 {
		tx := cl.Txn()
		for i := lo; i < lo+100; i++ {
			tx.SortedPut("blobs", fmt.Sprintf("k%05d", i), val)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	pinged := make(chan error, 1)
	go func() { pinged <- cl.Ping() }()
	_, err := cl.RangeScan("blobs", "", "", 0)
	if err == nil {
		t.Fatal("a scan whose reply outgrows a frame returned no error")
	}
	for _, want := range []string{"6000 entries", fmt.Sprint(server.MaxFrame - 64<<10), "lower the limit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("oversize scan error %q does not mention %q", err, want)
		}
	}
	if err := <-pinged; err != nil {
		t.Errorf("a call sharing the connection with the oversize scan failed: %v", err)
	}

	var got int
	for lo := ""; ; {
		es, err := cl.RangeScan("blobs", lo, "", 2000)
		if err != nil {
			t.Fatalf("paged scan from %q after the oversize one: %v", lo, err)
		}
		got += len(es)
		if len(es) < 2000 {
			break
		}
		lo = es[len(es)-1].Key + "\x00"
	}
	if got != n {
		t.Errorf("paging by last key read %d entries, want %d", got, n)
	}
}

// TestTTLReaperE2E: reads hide expired entries immediately; an explicit
// Reap pass physically removes due map/sorted entries and requeues the
// overdue lease, and the redelivered element carries a fresh lease id
// while the stale id's ack is refused.
func TestTTLReaperE2E(t *testing.T) {
	s := startServer(t, server.Config{})
	cl := dial(t, s, 2)

	now := time.Now().UnixNano()
	past, future := now-int64(time.Hour), now+int64(time.Hour)

	if err := cl.MapPutTTL("sessions", "gone", []byte("x"), past); err != nil {
		t.Fatal(err)
	}
	if err := cl.MapPutTTL("sessions", "live", []byte("y"), future); err != nil {
		t.Fatal(err)
	}
	if err := cl.SortedPutTTL("board", "gone", []byte("1"), past); err != nil {
		t.Fatal(err)
	}
	if err := cl.SortedPut("board", "stay", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := cl.QueuePush("jobs", []byte("job-1")); err != nil {
		t.Fatal(err)
	}
	staleID, v, ok, err := cl.LeaseConsume("jobs", past) // already overdue
	if err != nil || !ok || string(v) != "job-1" {
		t.Fatalf("LeaseConsume = %d, %q, %v, %v", staleID, v, ok, err)
	}

	// Expired entries are hidden from reads before any reaping runs.
	if _, ok, err := cl.MapGet("sessions", "gone"); err != nil || ok {
		t.Fatalf("expired map key visible: %v, %v", ok, err)
	}
	if _, ok, err := cl.SortedGet("board", "gone"); err != nil || ok {
		t.Fatalf("expired sorted key visible: %v, %v", ok, err)
	}
	if es, err := cl.RangeScan("board", "", "", 0); err != nil || len(es) != 1 || es[0].Key != "stay" {
		t.Fatalf("scan over expired = %v, %v", es, err)
	}
	// But they are still physically present (the reaper's work).
	if n, err := cl.MapLen("sessions"); err != nil || n != 2 {
		t.Fatalf("physical MapLen = %d, %v", n, err)
	}

	expired, reclaimed := s.Reap(time.Now().UnixNano())
	if expired != 2 || reclaimed != 1 {
		t.Fatalf("Reap = %d expired, %d reclaimed; want 2, 1", expired, reclaimed)
	}
	if n, err := cl.MapLen("sessions"); err != nil || n != 1 {
		t.Fatalf("MapLen after reap = %d, %v", n, err)
	}
	res, err := cl.Txn().SortedLen("board").LeaseLen("jobs").QueueLen("jobs").Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Num(0) != 1 || res.Num(1) != 0 || res.Num(2) != 1 {
		t.Fatalf("after reap: sortedLen=%d leaseLen=%d queueLen=%d", res.Num(0), res.Num(1), res.Num(2))
	}
	// A second pass finds nothing.
	if e2, r2 := s.Reap(time.Now().UnixNano()); e2 != 0 || r2 != 0 {
		t.Fatalf("second Reap = %d, %d; want 0, 0", e2, r2)
	}

	// The reclaimed element redelivers under a NEW lease id; acking the
	// stale id aborts its whole envelope (exactly-once side effects).
	newID, v2, ok, err := cl.LeaseConsume("jobs", future)
	if err != nil || !ok || string(v2) != "job-1" || newID == staleID {
		t.Fatalf("redelivery = %d, %q, %v, %v (stale id %d)", newID, v2, ok, err, staleID)
	}
	tx := cl.Txn()
	tx.LeaseAck("jobs", staleID)
	tx.CounterAdd("done", 1)
	if _, err := tx.Commit(); err == nil {
		t.Fatal("stale ack committed")
	} else {
		var aborted *client.ErrTxAborted
		if !errors.As(err, &aborted) {
			t.Fatalf("stale ack err = %v, want ErrTxAborted", err)
		}
	}
	if n, err := cl.CounterSum("done"); err != nil || n != 0 {
		t.Fatalf("aborted ack leaked side effects: done = %d, %v", n, err)
	}
	if ok, err := cl.LeaseAck("jobs", newID); err != nil || !ok {
		t.Fatalf("fresh ack = %v, %v", ok, err)
	}
}

// TestReaperBackgroundLoop: with ReapInterval set the loop reclaims an
// overdue lease without any explicit call.
func TestReaperBackgroundLoop(t *testing.T) {
	s := startServer(t, server.Config{ReapInterval: 20 * time.Millisecond})
	cl := dial(t, s, 1)

	if err := cl.QueuePush("jobs", []byte("flaky")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := cl.LeaseConsume("jobs", time.Now().Add(50*time.Millisecond).UnixNano()); err != nil || !ok {
		t.Fatalf("consume = %v, %v", ok, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := cl.QueueLen("jobs")
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			break // reaper requeued it
		}
		if time.Now().After(deadline) {
			t.Fatal("background reaper never reclaimed the overdue lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSortedTTLLeaseCrashRecovery kills the server mid-flight and
// checks the WAL (plus a mid-run v2 checkpoint) reconstructs sorted
// entries, TTLs, outstanding leases AND the lease-id watermark — with
// no resurrection of reaped keys and no double-acked element.
func TestSortedTTLLeaseCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UnixNano()
	past, future := now-int64(time.Hour), now+int64(time.Hour)

	cfg := server.Config{DataDir: dir, Fsync: true}
	s := startServerNoCleanupClose(t, cfg)
	cl := dial(t, s, 2)

	for i := 0; i < 20; i++ {
		if err := cl.SortedPut("board", fmt.Sprintf("p%02d", i), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SortedPutTTL("board", "soon", []byte("x"), past); err != nil {
		t.Fatal(err)
	}
	if err := cl.MapPutTTL("sessions", "s1", []byte("alive"), future); err != nil {
		t.Fatal(err)
	}
	for _, job := range []string{"a", "b", "c"} {
		if err := cl.QueuePush("jobs", []byte(job)); err != nil {
			t.Fatal(err)
		}
	}
	// Reap the expired sorted key so recovery must NOT resurrect it,
	// then checkpoint: recovery = v2 snapshot + WAL tail.
	if expired, _ := s.Reap(now); expired != 1 {
		t.Fatalf("pre-crash reap expired %d, want 1", expired)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic lands in the WAL tail: two leases, one
	// acked, one left outstanding.
	id1, _, ok, err := cl.LeaseConsume("jobs", future)
	if err != nil || !ok {
		t.Fatal(err)
	}
	id2, v2, ok, err := cl.LeaseConsume("jobs", future)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if ok, err := cl.LeaseAck("jobs", id1); err != nil || !ok {
		t.Fatalf("ack = %v, %v", ok, err)
	}

	cl.Close()
	s.Kill()

	r := startServer(t, cfg)
	rcl := dial(t, r, 2)

	// Sorted state: 20 live entries, the reaped key gone for good.
	if cnt, err := rcl.RangeCount("board", "", ""); err != nil || cnt != 20 {
		t.Fatalf("recovered RangeCount = %d, %v", cnt, err)
	}
	res, err := rcl.Txn().SortedLen("board").Commit()
	if err != nil || res.Num(0) != 20 {
		t.Fatalf("recovered SortedLen = %d, %v (expired key resurrected?)", res.Num(0), err)
	}
	if _, ok, err := rcl.MapGet("sessions", "s1"); err != nil || !ok {
		t.Fatalf("recovered TTL'd map key = %v, %v", ok, err)
	}
	// Lease state: id2 outstanding, id1's element consumed for good,
	// one element still queued. Conservation: 3 = queued + leased + acked.
	res, err = rcl.Txn().QueueLen("jobs").LeaseLen("jobs").Commit()
	if err != nil || res.Num(0) != 1 || res.Num(1) != 1 {
		t.Fatalf("recovered queue=%d leases=%d, %v", res.Num(0), res.Num(1), err)
	}
	if ok, err := rcl.LeaseAck("jobs", id1); err != nil || ok {
		t.Fatalf("acked lease survived recovery: %v, %v", ok, err)
	}
	// The outstanding lease is still ackable, and its element matches.
	if ok, err := rcl.LeaseAck("jobs", id2); err != nil || !ok {
		t.Fatalf("outstanding lease %d (value %q) not ackable after recovery: %v, %v", id2, v2, ok, err)
	}
	// The id watermark survived: the next lease id is fresh, not a reuse.
	id3, _, ok, err := rcl.LeaseConsume("jobs", future)
	if err != nil || !ok || id3 <= id2 {
		t.Fatalf("post-recovery lease id = %d (prev %d), %v, %v", id3, id2, ok, err)
	}
}

// startServerNoCleanupClose boots a durable server the test will Kill
// itself (registering only a belt-and-braces cleanup that tolerates the
// kill having happened).
func startServerNoCleanupClose(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(s.Kill) // idempotent with the test's own Kill
	return s
}

// TestSortedLeaseReplicaE2E: the new record types ride the replication
// stream — sorted puts, TTLs, lease consumes and the primary's reap all
// replay on a replica, which serves ordered range reads and refuses
// sorted mutations.
func TestSortedLeaseReplicaE2E(t *testing.T) {
	dir := t.TempDir()
	primary := startServer(t, server.Config{DataDir: dir, Shards: 2})
	replica := startServer(t, server.Config{Shards: 2, ReplicaOf: primary.Addr().String()})

	pcl := dial(t, primary, 2)
	now := time.Now().UnixNano()
	past, future := now-int64(time.Hour), now+int64(time.Hour)

	for i := 0; i < 10; i++ {
		if err := pcl.SortedPut("board", fmt.Sprintf("p%02d", i), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pcl.SortedPutTTL("board", "ephemeral", []byte("x"), past); err != nil {
		t.Fatal(err)
	}
	if err := pcl.QueuePush("jobs", []byte("job")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := pcl.LeaseConsume("jobs", future); err != nil || !ok {
		t.Fatalf("consume = %v, %v", ok, err)
	}
	// The primary's reap is a logged mutation like any other: the
	// replica replays the removal rather than reaping on its own clock.
	if expired, _ := primary.Reap(now); expired != 1 {
		t.Fatalf("primary reap expired %d, want 1", expired)
	}

	waitCaughtUp(t, primary, replica)
	rcl, err := client.Connect(client.Options{
		Addrs:          []string{replica.Addr().String()},
		ReadPreference: client.ReadReplicaRequired,
		MaxStaleness:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rcl.Close)

	es, err := rcl.RangeScan("board", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 10 || es[0].Key != "p00" || es[9].Key != "p09" {
		t.Fatalf("replica scan = %d entries", len(es))
	}
	res, err := rcl.Txn().SortedLen("board").LeaseLen("jobs").QueueLen("jobs").Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Num(0) != 10 {
		t.Fatalf("replica SortedLen = %d, want 10 (reap not replayed?)", res.Num(0))
	}
	if res.Num(1) != 1 || res.Num(2) != 0 {
		t.Fatalf("replica leases=%d queue=%d", res.Num(1), res.Num(2))
	}

	// Sorted mutations and lease consumes bounce off the replica.
	if err := rcl.SortedPut("board", "w", []byte("x")); !errors.Is(err, client.ErrNotPrimary) {
		t.Fatalf("replica SortedPut err = %v, want ErrNotPrimary", err)
	}
	if _, _, _, err := rcl.LeaseConsume("jobs", future); !errors.Is(err, client.ErrNotPrimary) {
		t.Fatalf("replica LeaseConsume err = %v, want ErrNotPrimary", err)
	}
}
