package server_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pnstm/client"
	"pnstm/server"
)

// waitCaughtUp blocks until the replica has applied everything the
// primary has logged so far. The bound is the primary's own log tail, not
// the head the replica last heard of: right after a burst of writes that
// head is stale, and a replica that trails it by nothing can still be
// records behind.
func waitCaughtUp(t *testing.T, primary, r *server.Server) {
	t.Helper()
	tails := primary.Stats().PerShard
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := r.ReplicaStatus()
		caught := len(st.Shards) == len(tails)
		for _, sh := range st.Shards {
			if !caught || !sh.Connected || sh.StalenessMs < 0 || sh.AppliedLSN < sh.HeadLSN ||
				sh.AppliedLSN < tails[sh.Shard].WAL.TailLSN {
				caught = false
				break
			}
		}
		if caught {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not catch up: %+v", st.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicaEndToEnd is the D39–D41 happy path in one process: a
// durable primary ships its WALs to a replica, the replica serves the
// data read-only with sane watermarks, and refuses mutations with the
// redirect status the client surfaces as ErrNotPrimary.
func TestReplicaEndToEnd(t *testing.T) {
	dir := t.TempDir()
	primary := startServer(t, server.Config{DataDir: dir, Shards: 2})
	replica := startServer(t, server.Config{Shards: 2, ReplicaOf: primary.Addr().String()})

	// Seed the primary across structure types, including a cross-shard
	// envelope so a GSN record rides the stream too.
	pcl := dial(t, primary, 2)
	for _, kv := range [][2]string{{"alpha", "1"}, {"beta", "2"}, {"gamma", "3"}} {
		if err := pcl.MapPut("m", kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := pcl.CounterAdd("hits", 41); err != nil {
		t.Fatal(err)
	}
	if err := pcl.QueuePush("q", []byte("job")); err != nil {
		t.Fatal(err)
	}
	tx := pcl.Txn()
	tx.MapAddInt("bal:a", "x", -5)
	tx.MapAddInt("bal:b", "x", 5)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	waitCaughtUp(t, primary, replica)

	// Reads through the redesigned client API, pinned to the replica.
	rcl, err := client.Connect(client.Options{
		Addrs:          []string{replica.Addr().String()},
		PoolSize:       2,
		ReadPreference: client.ReadReplicaRequired,
		MaxStaleness:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rcl.Close)

	if v, ok, err := rcl.MapGet("m", "beta"); err != nil || !ok || string(v) != "2" {
		t.Fatalf("replica MapGet = %q, %v, %v", v, ok, err)
	}
	if n, err := rcl.CounterSum("hits"); err != nil || n != 41 {
		t.Fatalf("replica CounterSum = %d, %v", n, err)
	}
	if n, err := rcl.QueueLen("q"); err != nil || n != 1 {
		t.Fatalf("replica QueueLen = %d, %v", n, err)
	}
	for _, name := range []string{"bal:a", "bal:b"} {
		want := int64(-5)
		if name == "bal:b" {
			want = 5
		}
		if n, ok, err := rcl.MapGetInt(name, "x"); err != nil || !ok || n != want {
			t.Fatalf("replica %s[x] = %d, %v, %v (want %d)", name, n, ok, err, want)
		}
	}

	// Mutations must bounce with the redirect error, leaving the data
	// untouched.
	if err := rcl.MapPut("m", "alpha", []byte("nope")); !errors.Is(err, client.ErrNotPrimary) {
		t.Fatalf("replica MapPut err = %v, want ErrNotPrimary", err)
	}
	wtx := rcl.Txn()
	wtx.MapPut("m", "alpha", []byte("nope"))
	if _, err := wtx.Commit(); !errors.Is(err, client.ErrNotPrimary) {
		t.Fatalf("replica Txn commit err = %v, want ErrNotPrimary", err)
	}
	if v, _, err := rcl.MapGet("m", "alpha"); err != nil || string(v) != "1" {
		t.Fatalf("refused write mutated the replica: m[alpha] = %q, %v", v, err)
	}

	// New writes keep flowing: the tail is live, not a one-shot sync.
	if err := pcl.MapPut("m", "delta", []byte("4")); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, replica)
	if v, ok, err := rcl.MapGet("m", "delta"); err != nil || !ok || string(v) != "4" {
		t.Fatalf("post-catchup MapGet(delta) = %q, %v, %v", v, ok, err)
	}

	// Watermarks: role/primary/shape come straight off ReplicaStatus.
	st := replica.ReplicaStatus()
	if st.Role != "replica" || st.Promoted || st.Primary != primary.Addr().String() {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("status has %d shards, want 2", len(st.Shards))
	}
	for _, sh := range st.Shards {
		if !sh.Connected || sh.StalenessMs < 0 || sh.AppliedLSN == 0 || sh.AppliedLSN < sh.HeadLSN {
			t.Fatalf("shard watermark not sane: %+v", sh)
		}
	}
	if pst := primary.ReplicaStatus(); pst.Role != "primary" || len(pst.Shards) != 0 {
		t.Fatalf("primary status = %+v", pst)
	}
}

// TestReplicaPromote: failover is the flip of one atomic (D42) — a
// promoted replica accepts mutations on already-open connections and
// reports itself a primary; a second promote is a no-op.
func TestReplicaPromote(t *testing.T) {
	dir := t.TempDir()
	primary := startServer(t, server.Config{DataDir: dir})
	replica := startServer(t, server.Config{ReplicaOf: primary.Addr().String()})

	pcl := dial(t, primary, 1)
	if err := pcl.MapPut("m", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, replica)

	// Dial the replica BEFORE promoting: the redirect and the post-promote
	// accept must both happen on the same pool (the server is
	// authoritative, not the handshake-time role snapshot).
	rcl := dial(t, replica, 1)
	if err := rcl.MapPut("m", "k2", []byte("v2")); !errors.Is(err, client.ErrNotPrimary) {
		t.Fatalf("pre-promote MapPut err = %v, want ErrNotPrimary", err)
	}

	if !replica.Promote() {
		t.Fatal("Promote() = false on an unpromoted replica")
	}
	if replica.Promote() {
		t.Fatal("second Promote() = true, want no-op")
	}
	if primary.Promote() {
		t.Fatal("Promote() = true on a primary")
	}

	if err := rcl.MapPut("m", "k2", []byte("v2")); err != nil {
		t.Fatalf("post-promote MapPut: %v", err)
	}
	if v, ok, err := rcl.MapGet("m", "k2"); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("post-promote MapGet = %q, %v, %v", v, ok, err)
	}
	st := replica.ReplicaStatus()
	if st.Role != "primary" || !st.Promoted {
		t.Fatalf("post-promote status = %+v", st)
	}
}

// TestReplicaStalenessBoundRefusesReads: a connection that declared a
// staleness bound in its Hello gets StatusNotPrimary instead of stale
// data when the replica has never caught up (here: the primary address
// points at nothing).
func TestReplicaStalenessBoundRefusesReads(t *testing.T) {
	replica := startServer(t, server.Config{ReplicaOf: "127.0.0.1:1"})

	bounded, err := client.Connect(client.Options{
		Addrs:          []string{replica.Addr().String()},
		PoolSize:       1,
		ReadPreference: client.ReadReplicaRequired,
		MaxStaleness:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bounded.Close)
	if _, _, err := bounded.MapGet("m", "k"); !errors.Is(err, client.ErrNotPrimary) {
		t.Fatalf("bounded read on a syncing replica err = %v, want ErrNotPrimary", err)
	}

	// Without a bound the same read is allowed (and sees an empty store):
	// staleness gating is opt-in per connection.
	unbounded := dial(t, replica, 1)
	if _, ok, err := unbounded.MapGet("m", "k"); err != nil || ok {
		t.Fatalf("unbounded read = found=%v, %v; want miss", ok, err)
	}
}

// TestReplicaRequiredNeedsReplica: ReadReplicaRequired against a pool
// with no replica connection fails fast client-side.
func TestReplicaRequiredNeedsReplica(t *testing.T) {
	primary := startServer(t, server.Config{})
	cl, err := client.Connect(client.Options{
		Addrs:          []string{primary.Addr().String()},
		PoolSize:       1,
		ReadPreference: client.ReadReplicaRequired,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	_, _, err = cl.MapGet("m", "k")
	if !errors.Is(err, client.ErrNotPrimary) || !strings.Contains(err.Error(), "no replica") {
		t.Fatalf("ReadReplicaRequired on a primary-only pool err = %v", err)
	}
}
