package server

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

// TestReplayPublishesEachRoot: replay is the shard's only writer and runs
// one root per logged batch, back to back. Each root is published before
// the next one starts, so batches that all write a few hot buckets replay
// with no conflict; unpublished, the next root's write would meet the
// previous root's entry, spin out and back off. Two records: one the
// planner runs as one chain, and one it forks into several. The forked
// one's last running block has its bitnum recycled by a finishing sibling
// (§6.2) and carries on under its base's identity; it meets its own
// earlier writes without a conflict while the discard is pending. A
// residue remains while the finishing sibling, preempted between picking
// the victim and recording its discard, leaves the bitnum neither its own
// nor pending — a few conflicts per 400 batches under the race detector
// with the CPU contended, none otherwise — so the forked record is held to
// at most one conflict per hundred batches (13 to 69 before).
func TestReplayPublishesEachRoot(t *testing.T) {
	const batches = 400
	// A guarded transfer between two accounts and a deposit: too small to
	// fork, one chain.
	sequential := []*Request{
		{Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpAssertGE, Name: "acct", Key: "a", Delta: 0},
			{Op: OpMapAdd, Name: "acct", Key: "a", Delta: -1},
			{Op: OpMapAdd, Name: "acct", Key: "b", Delta: 1},
		}}},
		{Op: OpMapAdd, Name: "acct", Key: "a", Delta: 2},
	}
	// 64 deposits, every other one on one of four hot accounts: 8 blocks.
	var forked []*Request
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("cold%02d", i)
		if i%2 == 0 {
			key = fmt.Sprintf("hot%d", i/2%4)
		}
		forked = append(forked, &Request{Op: OpMapAdd, Name: "acct", Key: key, Delta: 1})
	}
	for _, tc := range []struct {
		name            string
		record          []*Request
		want            map[string]int64 // per batch
		conflictsPer100 int
	}{
		{"sequential", sequential, map[string]int64{"a": 1, "b": 1}, 0},
		{"forked", forked, map[string]int64{"hot0": 8, "hot3": 8, "cold01": 1, "cold63": 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := pnstm.New(pnstm.Config{Workers: 8, SharedReads: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			reg := stmlib.NewRegistry(stmlib.RegistryConfig{})
			// Replay decodes the record body the batcher writes.
			var body []byte
			for _, req := range tc.record {
				if body, err = AppendRequest(body, req); err != nil {
					t.Fatal(err)
				}
			}
			ps := make([]*pending, len(tc.record))
			for i, req := range tc.record {
				ps[i] = &pending{req: *req}
			}
			var pl plan
			if pl.batch(reg, ps); (pl.chains() >= 2) != (tc.name == "forked") {
				t.Fatalf("the record plans %d chains", pl.chains())
			}
			before := rt.Stats()
			for i := 0; i < batches; i++ {
				reqs, err := decodeBatch(body)
				if err != nil {
					t.Fatal(err)
				}
				if err := replayBatch(rt, reg, reqs); err != nil {
					t.Fatal(err)
				}
			}
			d := rt.Stats().Sub(before)
			t.Logf("%d batches: %d conflicts, %d aborts, %d remote discards", batches, d.Conflicts, d.Aborted, d.RemoteDiscards)
			if limit := uint64(tc.conflictsPer100 * batches / 100); d.Conflicts > limit {
				t.Errorf("%d batches on hot buckets replayed with %d conflicts, want at most %d", batches, d.Conflicts, limit)
			}
			if err := rt.Run(func(c *pnstm.Ctx) {
				for key, per := range tc.want {
					raw, _ := reg.Map("acct").Get(c, key)
					if n, _ := DecodeInt64(raw); n != per*batches {
						t.Errorf("%s = %d, want %d", key, n, per*batches)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayRecordsThroughOneApplier: recovery and a replica apply a WAL
// record through the one shard.applyRecord. A batch record replays as a
// batch; a cross-shard record replays its sub-envelope and advances the
// shard's GSN watermark; a cross-shard record whose GSN recovery dropped
// changes nothing at all.
func TestReplayRecordsThroughOneApplier(t *testing.T) {
	rt, err := pnstm.New(pnstm.Config{Workers: 8, SharedReads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var cfg atomic.Pointer[Config]
	cfg.Store(&Config{})
	sh := &shard{rt: rt, reg: stmlib.NewRegistry(stmlib.RegistryConfig{}), cfg: &cfg}
	put := func(key string) *Request {
		return &Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: OpMapPut, Name: "m", Key: key, Value: []byte(key)}}}}
	}
	batch, err := AppendRequest(nil, put("batch"))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := encodeGSNRecord(7, []int{0}, put("kept"))
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := encodeGSNRecord(9, []int{0}, put("dropped"))
	if err != nil {
		t.Fatal(err)
	}
	drop := map[uint64]bool{9: true}
	for _, body := range [][]byte{batch, kept, dropped} {
		if err := sh.applyRecord(body, drop); err != nil {
			t.Fatal(err)
		}
	}
	if got := sh.maxGSN.Load(); got != 7 {
		t.Errorf("GSN watermark %d after records 7 and a dropped 9, want 7", got)
	}
	if err := rt.Run(func(c *pnstm.Ctx) {
		for key, want := range map[string]bool{"batch": true, "kept": true, "dropped": false} {
			if _, ok := sh.reg.Map("m").Get(c, key); ok != want {
				t.Errorf("key %q present = %v, want %v", key, ok, want)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
