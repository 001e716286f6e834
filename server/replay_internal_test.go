package server

import (
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

// TestReplayPublishesEachRoot: replay is the shard's only writer and runs
// one root per logged batch, back to back. Each root is published before
// the next one starts, so batches that all write one hot bucket replay
// with no conflict at all; unpublished, the next root's write would meet
// the previous root's entry, spin out and back off.
func TestReplayPublishesEachRoot(t *testing.T) {
	const batches = 400
	rt, err := pnstm.New(pnstm.Config{Workers: 8, SharedReads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	reg := stmlib.NewRegistry(stmlib.RegistryConfig{})
	// One logged batch on one map, so replay runs it as one sequential
	// component: a guarded transfer between two accounts and a deposit,
	// decoded from the record body the batcher writes.
	var body []byte
	for _, req := range []*Request{
		{Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpAssertGE, Name: "acct", Key: "a", Delta: 0},
			{Op: OpMapAdd, Name: "acct", Key: "a", Delta: -1},
			{Op: OpMapAdd, Name: "acct", Key: "b", Delta: 1},
		}}},
		{Op: OpMapAdd, Name: "acct", Key: "a", Delta: 2},
	} {
		if body, err = AppendRequest(body, req); err != nil {
			t.Fatal(err)
		}
	}
	before := rt.Stats()
	for i := 0; i < batches; i++ {
		reqs, err := decodeBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := replayBatch(rt, reg, 8, reqs); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if d := st.Conflicts - before.Conflicts; d != 0 {
		t.Errorf("%d batches on one hot bucket replayed with %d conflicts, want 0", batches, d)
	}
	if err := rt.Run(func(c *pnstm.Ctx) {
		a, _ := reg.Map("acct").Get(c, "a")
		b, _ := reg.Map("acct").Get(c, "b")
		if na, _ := DecodeInt64(a); na != batches {
			t.Errorf("a = %d, want %d", na, batches)
		}
		if nb, _ := DecodeInt64(b); nb != batches {
			t.Errorf("b = %d, want %d", nb, batches)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
