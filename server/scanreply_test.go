package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// A scan's reply is encoded straight from the leaves the scan read into a
// buffer carved from its batch's scan slab (scanSlab), and its last holder
// is the connection's writer, which encodes it after the batch is done.
// These tests hold replies the way the writer does and check that no later
// carve writes them, and that chains of one batch carving at once are
// race-free. A sorted-map op travels as an envelope, a one-op one for a
// single call, as the client sends it.

// scanKey and scanValue are the sorted maps' contents: 64-byte values
// stamped with their key's index, so that scans of different ranges
// encode different bytes.
func scanKey(i int) string { return fmt.Sprintf("k%05d", i) }

func scanValue(i int) []byte {
	v := bytes.Repeat([]byte{byte(i)}, 64)
	binary.BigEndian.PutUint32(v, uint32(i))
	return v
}

// preloadSorted stores keys [0, n) in each named sorted map on sh.
func preloadSorted(t *testing.T, sh *shard, n int, names ...string) {
	t.Helper()
	for _, name := range names {
		for base := 0; base < n; base += 64 {
			var ops []TxOp
			for i := base; i < min(n, base+64); i++ {
				ops = append(ops, TxOp{Op: OpSortedPut, Name: name, Key: scanKey(i), Value: scanValue(i)})
			}
			if resp := <-submitAsync(t, sh, Request{Op: OpTx, Tx: &Tx{Ops: ops}}); resp.Status != StatusOK {
				t.Fatalf("preload %s: %+v", name, resp)
			}
		}
	}
}

// scanOp is a limit-64 scan of [lo, lo+100) in the named map, and
// wantScan its encoding.
func scanOp(name string, lo int) TxOp {
	return TxOp{Op: OpRangeScan, Name: name, Key: scanKey(lo), Value: []byte(scanKey(lo + 100)), Delta: 64}
}

func envelopeOf(id uint64, ops ...TxOp) Request {
	return Request{ID: id, Op: OpTx, Tx: &Tx{Ops: ops}}
}

func wantScan(lo int) []byte {
	kvs := make([]KVEntry, 64)
	for i := range kvs {
		kvs[i] = KVEntry{Key: scanKey(lo + i), Value: scanValue(lo + i)}
	}
	return AppendKVs(nil, kvs)
}

// TestKeptScanRepliesSurviveLaterBatches is the scan slab's twin of
// TestKeptEnvelopeResultsSurviveLaterBatches: one batch of one-op scans
// and two-op scan envelopes, whose replies are kept, then 300 batches of scans
// of other ranges, 1.5 MB of results that replace the 128 KiB slab a
// dozen times. Every kept reply must still hold what it was answered
// with: a slab rewound, or a buffer reused, before the writer has sent
// what was carved from it fails here.
func TestKeptScanRepliesSurviveLaterBatches(t *testing.T) {
	s := newLoopServer(t, 1)
	sh := s.shards[0]
	preloadSorted(t, sh, 4096, "s")

	release := park(t, sh)
	before := batchCount(sh)
	var dones []<-chan Response
	for k := range 8 {
		req := envelopeOf(uint64(k+1), scanOp("s", 100*k))
		if k%2 == 1 {
			req.Tx.Ops = append(req.Tx.Ops, TxOp{Op: OpSortedGet, Name: "s", Key: scanKey(100 * k)})
		}
		dones = append(dones, submitAsync(t, sh, req))
	}
	waitQueued(sh, len(dones))
	release()
	kept := make([][]byte, len(dones))
	for k, done := range dones {
		resp := <-done
		if resp.Status != StatusOK || len(resp.TxResults) != 1+k%2 {
			t.Fatalf("scan %d = %+v", k, resp)
		}
		if kept[k] = resp.TxResults[0].Value; !bytes.Equal(kept[k], wantScan(100*k)) {
			t.Fatalf("scan %d = %+v", k, resp)
		}
	}
	if n := batchCount(sh) - before; n != 1 {
		t.Fatalf("the 8 scans ran in %d batches, want 1", n)
	}

	for i := range 300 {
		resp := <-submitAsync(t, sh, envelopeOf(uint64(100+i), scanOp("s", 1000+i*7)))
		if resp.Status != StatusOK || !bytes.Equal(resp.TxResults[0].Value, wantScan(1000+i*7)) {
			t.Fatalf("batch %d: %+v", i, resp)
		}
	}
	for k := range kept {
		if !bytes.Equal(kept[k], wantScan(100*k)) {
			t.Errorf("scan %d's delivered reply changed under later batches", k)
		}
	}
}

// TestForkedBatchScansAndPuts runs batches over four sorted maps that
// the planner cuts into parallel chains: 20 one-op scans and puts in one
// batch, then one 16-op envelope of both, which forks its own chains. So
// scans in different chains encode into the batch's scan slab at once. A
// put rewrites a key with the value it holds, so every scan's answer is
// known whatever order the chains run in. Run with -race: a slab carved
// without its lock fails here.
func TestForkedBatchScansAndPuts(t *testing.T) {
	s := newLoopServer(t, 1)
	sh := s.shards[0]
	maps := []string{"s0", "s1", "s2", "s3"}
	preloadSorted(t, sh, 1024, maps...)

	var batch []*pending
	var wantLo []int // per request: the scan's lo, or -1 for a put
	for m, name := range maps {
		for j := range 4 {
			lo := 200*j + 10*m
			batch = append(batch, &pending{req: envelopeOf(0, scanOp(name, lo))})
			wantLo = append(wantLo, lo)
		}
		k := 50 + 300*m
		batch = append(batch, &pending{req: envelopeOf(0, TxOp{Op: OpSortedPut, Name: name, Key: scanKey(k), Value: scanValue(k)})})
		wantLo = append(wantLo, -1)
	}
	env := make([]TxOp, 16) // even slots scan, odd ones put
	for i := range env {
		if name := maps[i%len(maps)]; i%2 == 0 {
			env[i] = scanOp(name, 500+i)
		} else {
			env[i] = TxOp{Op: OpSortedPut, Name: name, Key: scanKey(500 + i), Value: scanValue(500 + i)}
		}
	}
	var pl plan
	if pl.batch(sh.reg, batch); pl.chains() < 2 {
		t.Fatalf("the batch of %d requests plans %d chains, want several", len(batch), pl.chains())
	}
	if pl.envelope(sh.reg, env); pl.chains() < 2 {
		t.Fatalf("the %d-op envelope plans %d chains, want several", len(env), pl.chains())
	}

	for round := range 5 {
		release := park(t, sh)
		var dones []<-chan Response
		for i, p := range batch {
			req := p.req
			req.ID = uint64(1 + i + round*len(batch))
			dones = append(dones, submitAsync(t, sh, req))
		}
		waitQueued(sh, len(dones))
		release()
		for i, done := range dones {
			resp := <-done
			if resp.Status != StatusOK {
				t.Fatalf("round %d, request %d: %+v", round, i, resp)
			}
			if lo := wantLo[i]; lo >= 0 && !bytes.Equal(resp.TxResults[0].Value, wantScan(lo)) {
				t.Errorf("round %d: one-op scan of [%d, %d) came back wrong", round, lo, lo+100)
			}
		}
		resp := <-submitAsync(t, sh, envelopeOf(uint64(1000+round), env...))
		if resp.Status != StatusOK {
			t.Fatalf("round %d, envelope: %+v", round, resp)
		}
		for i, res := range resp.TxResults {
			if i%2 == 0 && !bytes.Equal(res.Value, wantScan(500+i)) {
				t.Errorf("round %d: envelope scan of [%d, %d) came back wrong", round, 500+i, 600+i)
			}
		}
	}
}
