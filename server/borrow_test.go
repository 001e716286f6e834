package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pnstm"
	"pnstm/client"
	"pnstm/server"
)

// TestBorrowedBytesNeverOutliveTheirPending drives every read-only op,
// whose key and value borrow from the frame of the pending that carries
// it (D48), through a durable two-shard primary and its replica: point
// reads and envelopes on one shard, read-only and mutating cross-shard
// envelopes, and reads served by the replica. They are interleaved on one
// connection with the writes that must not borrow, so every pending is
// recycled between the two kinds, and then pipelined on it; one read-only
// cross-shard envelope comes in a frame too large for a pending to keep. Then the test
// checks byte for byte what could have kept a borrowed byte: the store of
// both servers against the test's model, scan results, and the
// /debug/hotkeys tag of a read that aborted. Run with -tags pnstmcheck, a released pending's bytes read as
// 0xA5, so a byte kept past its pending shows in every run.
func TestBorrowedBytesNeverOutliveTheirPending(t *testing.T) {
	const rounds = 24
	primary := startServer(t, server.Config{DataDir: t.TempDir(), Shards: 2, AdminAddr: "127.0.0.1:0"})
	replica := startServer(t, server.Config{Shards: 2, ReplicaOf: primary.Addr().String()})
	cl := dial(t, primary, 1)
	a, b, sorted := namesOnDistinctShards(t, "bw", 2) // sorted lives on a's shard

	model := map[string]map[string][]byte{a: {}, b: {}}
	var entries []client.Entry // the sorted map's, in key order
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	checkScan := func(what string, got []client.Entry, lo, hi string) {
		t.Helper()
		var want []client.Entry
		for _, e := range entries {
			if e.Key >= lo && e.Key < hi {
				want = append(want, e)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s [%s, %s): %d entries, want %d", what, lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%s [%s, %s): entry %d = %q %q, want %q %q", what, lo, hi, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}

	for i := range rounds {
		key, acct := fmt.Sprintf("key-%03d", i), fmt.Sprintf("acct-%02d", i%4)
		val := []byte(fmt.Sprintf("value-%03d", i))

		// A point write and a point read of what it wrote.
		must("MapPut", cl.MapPut(a, key, val))
		model[a][key] = val
		v, ok, err := cl.MapGet(a, key)
		must("MapGet", err)
		if !ok || !bytes.Equal(v, val) {
			t.Fatalf("MapGet(%s, %s) = %q, %v; want %q", a, key, v, ok, val)
		}

		// A single-shard envelope: guards and reads around writes that
		// own their keys.
		res, err := cl.Txn().
			AssertEq(a, key, val).
			MapAddInt(a, "tally", 1).
			AssertGE(a, "tally", int64(i+1)).
			SortedPut(sorted, key, val).
			SortedGet(sorted, key).
			MapGet(a, key).
			Commit()
		must("single-shard envelope", err)
		model[a]["tally"] = server.EncodeInt64(res.Num(1))
		entries = append(entries, client.Entry{Key: key, Value: val})
		if !res.Found(4) || !bytes.Equal(res.Bytes(4), val) || !bytes.Equal(res.Bytes(5), val) {
			t.Fatalf("round %d envelope reads: %q %q, want %q", i, res.Bytes(4), res.Bytes(5), val)
		}

		// The cross-shard commit: a guard and two adds over both shards.
		res, err = cl.Txn().
			AssertGE(a, "tally", 1).
			MapAddInt(a, acct, -1).
			MapAddInt(b, acct, 1).
			Commit()
		must("cross-shard envelope", err)
		balB := res.Num(2)
		model[a][acct], model[b][acct] = server.EncodeInt64(res.Num(1)), server.EncodeInt64(balB)

		// A read-only envelope over both shards.
		res, err = cl.Txn().MapGet(a, key).MapGet(b, acct).AssertGE(b, acct, balB).Commit()
		must("read-only cross-shard envelope", err)
		if !bytes.Equal(res.Bytes(0), val) || !bytes.Equal(res.Bytes(1), model[b][acct]) {
			t.Fatalf("round %d fan reads: %q %x", i, res.Bytes(0), res.Bytes(1))
		}

		// Scans whose bounds borrow, lower and upper.
		lo, hi := fmt.Sprintf("key-%03d", i/2), fmt.Sprintf("key-%03d", i+1)
		es, err := cl.RangeScan(sorted, lo, hi, 0)
		must("RangeScan", err)
		checkScan("RangeScan", es, lo, hi)
		n, err := cl.RangeCount(sorted, lo, hi)
		must("RangeCount", err)
		if n != int64(i+1-i/2) {
			t.Fatalf("RangeCount [%s, %s) = %d, want %d", lo, hi, n, i+1-i/2)
		}
	}

	// A read-only cross-shard envelope in a frame over maxRetainedFrame, which ReadFrame
	// gives an allocation of its own: the scans' upper bound is padded
	// past it, and sorts between the last key and the next.
	last := fmt.Sprintf("key-%03d", rounds-1)
	padded := last + strings.Repeat("\xff", 70<<10)
	res, err := cl.Txn().
		AssertEq(a, last, model[a][last]).
		MapGet(b, "acct-00").
		RangeScan(sorted, "key-000", padded, 0).
		RangeCount(sorted, "key-000", padded).
		Commit()
	must("large-frame fan", err)
	if !bytes.Equal(res.Bytes(1), model[b]["acct-00"]) || res.Num(3) != rounds {
		t.Fatalf("large-frame fan: MapGet %x, RangeCount %d; want %x, %d", res.Bytes(1), res.Num(3), model[b]["acct-00"], rounds)
	}
	es, err := res.Entries(2)
	must("large-frame scan", err)
	checkScan("large-frame RangeScan", es, "key-000", padded)

	// The same reads pipelined on the one connection: the reader decodes
	// the next frame while a cross-shard task or a batch still reads the
	// last one.
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				key, acct := fmt.Sprintf("key-%03d", (g+i)%rounds), fmt.Sprintf("acct-%02d", i%4)
				res, err := cl.Txn().MapGet(a, key).MapGet(b, acct).Commit()
				if err != nil || !bytes.Equal(res.Bytes(0), model[a][key]) || !bytes.Equal(res.Bytes(1), model[b][acct]) {
					t.Errorf("pipelined fan read of %s, %s: %v", key, acct, err)
					return
				}
				if v, ok, err := cl.MapGet(a, key); err != nil || !ok || !bytes.Equal(v, model[a][key]) {
					t.Errorf("pipelined MapGet(%s) = %q, %v, %v", key, v, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	hot := plantReadConflict(t, primary, cl)

	// Every byte the primary keeps, byte for byte: the maps and the sorted
	// map against the model, and the one tag /debug/hotkeys ranked.
	checkImage := func(what string, s *server.Server) {
		t.Helper()
		img, _, err := s.Export()
		must(what+" export", err)
		for _, name := range []string{a, b} {
			if !reflect.DeepEqual(img.Maps[name], model[name]) {
				t.Errorf("%s map %s:\n  got  %q\n  want %q", what, name, img.Maps[name], model[name])
			}
		}
		var got []client.Entry
		for _, e := range img.Sorted[sorted] {
			got = append(got, client.Entry{Key: e.Key, Value: e.Value})
		}
		checkScan(what+" sorted map", got, "", "\xff")
	}
	checkImage("primary", primary)

	code, body := adminGET(t, adminURL(t, primary, "/debug/hotkeys?n=16"))
	if code != 200 {
		t.Fatalf("GET /debug/hotkeys = %d %q", code, body)
	}
	var rep server.HotKeysReport
	must("decode /debug/hotkeys", json.Unmarshal([]byte(body), &rep))
	planted := false
	for _, hk := range rep.Top {
		// Served batches may also meet the last batch's unpublished
		// commits, so other requests of the test can rank too: a point
		// request by name:key, an envelope as "tx". An untagged root (the
		// holder) ranks by its object's label, m:name/bucket.
		_, point := model[a][strings.TrimPrefix(hk.Key, a+":")]
		planted = planted || hk.Key == hot
		if hk.Key != hot && hk.Key != "tx" && !point && !strings.HasPrefix(hk.Key, "m:") {
			t.Errorf("/debug/hotkeys ranks %q, which no request of the test carried", hk.Key)
		}
	}
	if !planted {
		t.Errorf("/debug/hotkeys does not rank %q, the read that aborted: %s", hot, body)
	}

	// The replica: what it applied, and what it serves.
	waitCaughtUp(t, primary, replica)
	checkImage("replica", replica)
	rcl, err := client.Connect(client.Options{Addrs: []string{replica.Addr().String()}, ReadPreference: client.ReadReplicaRequired})
	must("dial replica", err)
	t.Cleanup(rcl.Close)
	for i := range rounds {
		key := fmt.Sprintf("key-%03d", i)
		v, ok, err := rcl.MapGet(a, key)
		must("replica MapGet", err)
		if !ok || !bytes.Equal(v, model[a][key]) {
			t.Fatalf("replica MapGet(%s, %s) = %q, %v; want %q", a, key, v, ok, model[a][key])
		}
		lo, hi := key, fmt.Sprintf("key-%03d", i+3)
		es, err := rcl.RangeScan(sorted, lo, hi, 0)
		must("replica RangeScan", err)
		checkScan("replica RangeScan", es, lo, hi)
	}
}

// plantReadConflict makes a served point read abort once, on a key of a
// map on shard 0 that a root of the test's own holds a write to, and
// returns the read's trace tag: name:key, rendered from the borrowed key
// when the abort is recorded. Served traffic alone does not conflict on a
// key (D58), so the conflict is made the way TestHotKeyProfilerE2E makes
// one.
func plantReadConflict(t *testing.T, s *server.Server, cl *client.Client) string {
	t.Helper()
	var name string
	for i := 0; name == ""; i++ {
		if n := fmt.Sprintf("bw-hot%d", i); shardOfName(n, 2) == 0 {
			name = n
		}
	}
	const key = "hot-key"
	rt, m := s.Runtime(), s.Registry().Map(name)
	before := rt.Stats().Aborted
	written, held := make(chan struct{}, 1), make(chan error, 1)
	go func() {
		held <- rt.Run(func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				m.Put(c, key, []byte("hot"))
				select {
				case written <- struct{}{}:
				default: // a re-executed root has signalled already
				}
				for deadline := time.Now().Add(10 * time.Second); rt.Stats().Aborted == before; runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Errorf("the read of %s:%s never aborted on the held write", name, key)
						break
					}
				}
				return nil
			})
		})
	}()
	<-written
	v, ok, err := cl.MapGet(name, key)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err != nil || !ok || string(v) != "hot" {
		t.Fatalf("MapGet(%s, %s) = %q, %v, %v; want the held write", name, key, v, ok, err)
	}
	return name + ":" + key
}
