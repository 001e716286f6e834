package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pnstm"
	"pnstm/internal/fork"
	"pnstm/stmlib"
)

// TestPlanHotKeysDoNotConflict: a batch of 64 requests, half of them on
// four hot keys, runs with no conflict at all. The planner puts every
// request on a key into one chain, in arrival order, so parallel sibling
// blocks never write one bucket; cut by position, the hot keys' requests
// land in every block and collide. Each run starts with the previous root
// published, so no conflict can come from across roots, and the runtime
// does not recycle the last running block's bitnum (§6.2), so none can
// come from that block meeting its own writes under its base's identity
// while the publisher catches up (TestReplayPublishesEachRoot counts
// those).
func TestPlanHotKeysDoNotConflict(t *testing.T) {
	const rounds = 20
	h := newExecHarness(t, false, func(c *pnstm.Config) { c.DisableAggressiveRecycle = true })
	ps := make([]*pending, 64)
	for i := range ps {
		key := fmt.Sprintf("cold%02d", i)
		if i%2 == 0 {
			key = fmt.Sprintf("hot%d", i/2%4)
		}
		ps[i] = &pending{req: Request{Op: OpMapAdd, Name: "acct", Key: key, Delta: 1}}
	}
	var pl plan
	if pl.batch(h.b.reg, ps); pl.chains() < 2 {
		t.Fatalf("the batch plans %d chains; the test needs a fork", pl.chains())
	}
	conflicts := uint64(0)
	for round := 0; round < rounds; round++ {
		h.b.rt.Publisher().Drain()
		before := h.b.rt.Stats().Conflicts
		h.run(t, ps...)
		conflicts += h.b.rt.Stats().Conflicts - before
		for _, p := range ps {
			if p.resp.Status != StatusOK {
				t.Fatalf("%+v: %+v", p.req, p.resp)
			}
		}
	}
	if conflicts != 0 {
		t.Errorf("%d batches with 32 requests on 4 hot keys: %d conflicts, want 0", rounds, conflicts)
	}
	if err := h.b.rt.Run(func(c *pnstm.Ctx) {
		for k := 0; k < 4; k++ {
			raw, _ := h.b.reg.Map("acct").Get(c, fmt.Sprintf("hot%d", k))
			if n, _ := DecodeInt64(raw); n != 8*rounds {
				t.Errorf("hot%d = %d, want %d", k, n, 8*rounds)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanForkedEnvelopeFailsAtLowestIndex: an envelope large enough to
// fork answers a failure the way an inline one does — the lowest failing
// index, no results past it, whichever chains ran on — and applies none
// of its writes.
func TestPlanForkedEnvelopeFailsAtLowestIndex(t *testing.T) {
	h := newExecHarness(t, false)
	ops := make([]TxOp, 32)
	for i := range ops {
		ops[i] = TxOp{Op: OpMapPut, Name: fmt.Sprintf("m%d", i%4), Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
	}
	// Absent keys read as 0: both guards fail.
	ops[9] = TxOp{Op: OpAssertGE, Name: "m1", Key: "absent", Delta: 1}
	ops[20] = TxOp{Op: OpAssertGE, Name: "m0", Key: "absent", Delta: 1}
	var pl plan
	if pl.envelope(h.b.reg, ops); pl.chains() < 2 {
		t.Fatalf("the envelope plans %d chains; the test needs a fork", pl.chains())
	}
	resp := h.do(t, txReq(ops...))
	if resp.Status != StatusRejected || resp.Num != 9 {
		t.Fatalf("envelope answered %+v, want rejected at op 9", resp)
	}
	for i := 10; i < len(ops); i++ {
		if r := resp.TxResults[i]; r.Status != 0 || r.Found || r.Num != 0 || r.Value != nil {
			t.Errorf("op %d past the failure reports %+v", i, resp.TxResults[i])
		}
	}
	if err := h.b.rt.Run(func(c *pnstm.Ctx) {
		for i := 0; i < 4; i++ {
			if n := h.b.reg.Map(fmt.Sprintf("m%d", i)).Len(c); n != 0 {
				t.Errorf("m%d holds %d keys after the envelope rolled back", i, n)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanGroupedChainsFailAtLowestIndex: with more chains than workers,
// neighbouring chains share a block, and each still runs to its own first
// failure. An envelope whose chain 0 fails late and whose chain 1 fails
// early, both in one block, reports chain 1's failure: the one envelope
// order meets first.
func TestPlanGroupedChainsFailAtLowestIndex(t *testing.T) {
	h := newExecHarness(t, false, func(c *pnstm.Config) { c.Workers = 2 })
	ops := make([]TxOp, 32)
	for i := range ops {
		ops[i] = TxOp{Op: OpMapPut, Name: "m", Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
	}
	var pl plan
	if pl.envelope(h.b.reg, ops); pl.chains() < 4 {
		t.Fatalf("the envelope plans %d chains; the test needs 4, two to a block", pl.chains())
	}
	late := int(pl.order[pl.bounds[1]-1]) // chain 0's last op
	early := int(pl.order[pl.bounds[1]])  // chain 1's first op
	if early > late {
		t.Fatalf("chain 1 opens at op %d, after chain 0 closes at op %d", early, late)
	}
	for _, i := range []int{late, early} { // a false guard on the op's own key keeps the plan
		ops[i] = TxOp{Op: OpAssertEq, Name: "m", Key: ops[i].Key, Value: []byte("absent")}
	}
	if resp := h.do(t, txReq(ops...)); resp.Status != StatusRejected || resp.Num != int64(early) {
		t.Fatalf("envelope answered %+v, want rejected at op %d (chain 1), not %d (chain 0)", resp, early, late)
	}
}

// TestPlanForkedEnvelopeOpensNoChainTransaction: a chain is a parallel
// block, not a transaction. A forked 64-put envelope under a batch root
// commits the root, the envelope's own child and one transaction per put:
// 66, where a nested transaction per chain made it 74.
func TestPlanForkedEnvelopeOpensNoChainTransaction(t *testing.T) {
	h := newExecHarness(t, false, func(c *pnstm.Config) { c.DisableAggressiveRecycle = true })
	ops := make([]TxOp, 64)
	for i := range ops {
		ops[i] = TxOp{Op: OpMapPut, Name: "bulk", Key: fmt.Sprintf("k%02d", i), Value: []byte("v")}
	}
	var pl plan
	if pl.envelope(h.b.reg, ops); pl.chains() < 2 {
		t.Fatalf("the envelope plans %d chains; the test needs a fork", pl.chains())
	}
	p := &pending{req: txReq(ops...)}
	h.run(t, p) // warm: the map and its buckets exist
	h.b.rt.Publisher().Drain()
	before := h.b.rt.Stats()
	h.run(t, p)
	d := h.b.rt.Stats().Sub(before)
	if p.resp.Status != StatusOK {
		t.Fatalf("envelope answered %+v", p.resp)
	}
	const want = 1 + 1 + 64
	if d.Committed != want || (d.Aborted == 0 && d.Begun != want) {
		t.Fatalf("a forked 64-put envelope began %d and committed %d transactions (%d aborted), want %d", d.Begun, d.Committed, d.Aborted, want)
	}
	if d.Dispatches+d.BorrowDispatch+d.SerializedFork < 2 {
		t.Fatalf("the envelope ran %d blocks of its own; the test needs a fork", d.Dispatches+d.BorrowDispatch+d.SerializedFork)
	}
}

// planNames are the structures the random programs below address, named
// per kind, so two ops meet only on a kind's own structures.
var planNames = map[byte][]string{'m': {"m0", "m1", "m2"}, 'q': {"q0"}, 'c': {"c0"}, 's': {"s0"}}

// randPlanOp returns a random sub-op (top: legal as a request) over
// planNames and 32 keys, with deadlines far in the past or the future
// so that whether a key is live never depends on when a batch runs.
func randPlanOp(rng *rand.Rand, top bool) TxOp {
	key := fmt.Sprintf("k%d", rng.Intn(32))
	deadline := []int64{1000, 1 << 62}[rng.Intn(2)]
	pick := func(kind byte) string { return planNames[kind][rng.Intn(len(planNames[kind]))] }
	for {
		op := uint8(rng.Intn(256))
		d := opTable[op]
		if !d.sub || (top && !d.top) {
			continue
		}
		// A MapLen or an expiry op merges what it spans into one chain;
		// keep them rare enough that most larger lists still fork.
		if (op == OpMapLen || d.expiry) && rng.Intn(30) > 0 {
			continue
		}
		switch structKind(&TxOp{Op: op}) {
		case 'm', 'c':
			if d.kind == 'g' {
				if rng.Intn(2) == 0 {
					return TxOp{Op: op, Name: pick('m'), Key: key, Delta: int64(rng.Intn(3))}
				}
				return TxOp{Op: OpAssertGE, Name: pick('c'), Delta: int64(rng.Intn(20))}
			}
			if d.kind == 'c' {
				return TxOp{Op: op, Name: pick('c'), Delta: int64(rng.Intn(5) - 1)}
			}
			switch op {
			case OpMapPutTTL:
				return TxOp{Op: op, Name: pick('m'), Key: key, Value: EncodeInt64(int64(rng.Intn(9))), Delta: deadline}
			case OpExpire:
				return TxOp{Op: op, Name: pick('m'), Key: key, Delta: 5000}
			}
			return TxOp{Op: op, Name: pick('m'), Key: key, Value: EncodeInt64(int64(rng.Intn(9))), Delta: int64(rng.Intn(5) - 2)}
		case 'q':
			delta := deadline
			switch op {
			case OpLeaseAck, OpLeaseNack:
				delta = int64(1 + rng.Intn(6))
			case OpLeaseReclaim:
				delta = 5000
			}
			return TxOp{Op: op, Name: pick('q'), Value: []byte(key), Delta: delta}
		case 's':
			if op == OpRangeScan || op == OpRangeCount {
				return TxOp{Op: op, Name: pick('s'), Key: "k2", Value: []byte("k7"), Delta: 4}
			}
			return TxOp{Op: op, Name: pick('s'), Key: key, Value: []byte(key), Delta: deadline}
		}
	}
}

// randPlanRequest returns a random point request or, one time in
// envelopes (0: never), an envelope of 1 to 20 sub-ops over several
// structures.
func randPlanRequest(rng *rand.Rand, envelopes int) *pending {
	if envelopes == 0 || rng.Intn(envelopes) > 0 {
		op := randPlanOp(rng, true)
		return &pending{req: Request{Op: op.Op, Name: op.Name, Key: op.Key, Value: op.Value, Delta: op.Delta}}
	}
	ops := make([]TxOp, 1+rng.Intn(20))
	for j := range ops {
		ops[j] = randPlanOp(rng, false)
	}
	return &pending{req: txReq(ops...)}
}

// randPlanBatch returns a batch of 1 to 64 random requests. Envelopes glue
// the structures they span into one chain, so a third of the batches hold
// none, a third one in ten and a third one in three.
func randPlanBatch(rng *rand.Rand) []*pending {
	envelopes := []int{0, 10, 3}[rng.Intn(3)]
	ps := make([]*pending, 1+rng.Intn(64))
	for i := range ps {
		ps[i] = randPlanRequest(rng, envelopes)
	}
	return ps
}

// planKeys are an op's conflict keys as the planner's contract states
// them, written out independently of it: a map point op's bucket, every
// bucket of a map for MapLen, the whole structure otherwise, and the
// expiry index for an op that moves a deadline or a lease.
func planKeys(reg *stmlib.Registry, op *TxOp) []string {
	kind := structKind(op)
	var keys []string
	switch {
	case op.Op == OpMapLen:
		for b := 0; b < 64; b++ {
			keys = append(keys, fmt.Sprintf("m/%s/%d", op.Name, b))
		}
	case kind == 'm':
		keys = append(keys, fmt.Sprintf("m/%s/%d", op.Name, reg.MapBucket(op.Key)))
	default:
		keys = append(keys, fmt.Sprintf("%c/%s", kind, op.Name))
	}
	if opTable[op.Op].expiry {
		keys = append(keys, "expiry")
	}
	return keys
}

// checkPlan holds a plan of n ops to its contract: one chain runs the list
// inline; otherwise every op is in exactly one chain, each chain lists its
// ops in list order, chains are numbered by first touch, there are at most
// min(n/fork.OpsPerBlock, maxBlocks) of them, and ops that share a key
// share a chain.
func checkPlan(t *testing.T, pl *plan, n int, keys func(i int) []string) {
	t.Helper()
	if pl.chains() < 2 {
		return
	}
	if pl.chains() > min(n/fork.OpsPerBlock, maxBlocks) {
		t.Fatalf("%d ops: %d chains", n, pl.chains())
	}
	chainOf := make([]int, n)
	for i := range chainOf {
		chainOf[i] = -1
	}
	for g := 0; g < pl.chains(); g++ {
		chain := pl.order[pl.bounds[g]:pl.bounds[g+1]]
		if len(chain) == 0 || !slices.IsSorted(chain) {
			t.Fatalf("chain %d = %v: empty or out of list order", g, chain)
		}
		if g > 0 && chain[0] < pl.order[pl.bounds[g-1]] {
			t.Fatalf("chain %d opens at op %d, before chain %d", g, chain[0], g-1)
		}
		for _, i := range chain {
			if chainOf[i] >= 0 {
				t.Fatalf("op %d is in chains %d and %d", i, chainOf[i], g)
			}
			chainOf[i] = g
		}
	}
	owner := map[string]int{}
	for i, g := range chainOf {
		if g < 0 {
			t.Fatalf("op %d is in no chain", i)
		}
		for _, k := range keys(i) {
			if o, ok := owner[k]; ok && chainOf[o] != g {
				t.Fatalf("ops %d and %d share key %s but run in chains %d and %d", o, i, k, chainOf[o], g)
			}
			owner[k] = i
		}
	}
}

// TestPlanInvariants checks random batches and envelopes of every size
// from 0 to 300 ops against the plan's contract, past maxBlocks blocks,
// reusing one plan the way a batchRun does.
func TestPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	reg := stmlib.NewRegistry(stmlib.RegistryConfig{})
	var pl plan
	forked := 0
	for round := 0; round < 2000; round++ {
		n := rng.Intn(301)
		if round%2 == 0 {
			ops := make([]TxOp, n)
			for i := range ops {
				ops[i] = randPlanOp(rng, false)
			}
			pl.envelope(reg, ops)
			checkPlan(t, &pl, n, func(i int) []string { return planKeys(reg, &ops[i]) })
		} else {
			ps := make([]*pending, n)
			for i := range ps {
				ps[i] = randPlanRequest(rng, 3)
			}
			pl.batch(reg, ps)
			checkPlan(t, &pl, n, func(i int) []string {
				if ps[i].req.Op != OpTx {
					op := ps[i].req.pointOp()
					return planKeys(reg, &op)
				}
				var keys []string
				for j := range ps[i].req.Tx.Ops {
					keys = append(keys, planKeys(reg, &ps[i].req.Tx.Ops[j])...)
				}
				return keys
			})
		}
		if pl.chains() >= 2 {
			forked++
		}
	}
	if forked < 200 {
		t.Fatalf("only %d of 2000 plans forked", forked)
	}
}

// TestPlanLiveMatchesReplay runs random batches — point ops, guards, TTL
// puts, lease moves and multi-structure envelopes, on a few hot keys —
// live through a durable executor, logs them, replays the log through
// replayBatch into a fresh registry on its own runtime, and requires the
// two stores to encode to the same snapshot bytes.
func TestPlanLiveMatchesReplay(t *testing.T) {
	const batches, checkEvery = 600, 100
	rng := rand.New(rand.NewSource(58))
	live := newExecHarness(t, true)
	rt, err := pnstm.New(pnstm.Config{Workers: 8, SharedReads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	replayed := stmlib.NewRegistry(stmlib.RegistryConfig{})
	// A read creates the structure it names; replay never sees reads.
	// Create every structure in both stores so that only contents differ.
	for _, reg := range []*stmlib.Registry{live.b.reg, replayed} {
		reg.Map("m0")
		reg.Map("m1")
		reg.Map("m2")
		reg.Queue("q0")
		reg.Counter("c0")
		reg.SortedMap("s0")
	}
	image := func(rt *pnstm.Runtime, reg *stmlib.Registry) []byte {
		var img *stmlib.RegistryImage
		if err := rt.Run(func(c *pnstm.Ctx) { img = reg.Export(c) }); err != nil {
			t.Fatal(err)
		}
		return encodeImage(img, 0)
	}
	var applied uint64
	forked, mutations := 0, 0
	for b := 1; b <= batches; b++ {
		ps := randPlanBatch(rng)
		if live.r.plan.batch(live.b.reg, ps); live.r.plan.chains() >= 2 {
			forked++
		}
		live.run(t, ps...)
		if err := live.r.logBatch(1 << 20); err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if p.logged {
				mutations++
			}
		}
		if b%checkEvery != 0 {
			continue
		}
		if err := live.b.wal.Replay(func(lsn uint64, body []byte) error {
			if lsn <= applied {
				return nil
			}
			applied = lsn
			reqs, err := decodeBatch(body)
			if err != nil {
				return err
			}
			return replayBatch(rt, replayed, reqs)
		}); err != nil {
			t.Fatalf("after batch %d: %v", b, err)
		}
		if got, want := image(rt, replayed), image(live.b.rt, live.b.reg); !bytes.Equal(got, want) {
			t.Fatalf("after batch %d the replayed store differs from the live one (%d vs %d bytes)", b, len(got), len(want))
		}
	}
	t.Logf("%d batches, %d of them forked, %d mutating requests", batches, forked, mutations)
	if forked < batches/4 || mutations < batches*4 {
		t.Fatalf("%d batches forked, %d requests mutated: the programs are too tame", forked, mutations)
	}
}
