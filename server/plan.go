package server

import (
	"slices"

	"pnstm"
	"pnstm/stmlib"
)

// The planner (D58). A batch is one root transaction whose requests run as
// nested children, and an envelope is one nested child whose sub-ops may
// run as grandchildren. Both are ordered op lists — a live batch in
// arrival order, a logged one in commit-ticket order, an envelope in
// envelope order — and every path that runs one cuts it into parallel
// blocks here: a live batch (batchRun.runRoot), an envelope (applyTx) and
// a logged batch replayed by recovery or a replica (replayBatch, which
// runs runRoot).
//
// Every op has conflict keys, and ops that share a key share a chain:
//
//   - a map point op or map guard: its map's bucket, the unit a TMap
//     conflicts on (stmlib.Registry.MapBucket); MapLen reads them all;
//   - any other op: its whole structure — a counter, a queue, a sorted map;
//   - an op that moves a deadline or a lease: the registry's expiry index;
//   - an envelope, as one request of a batch: every key of every sub-op.
//
// A list of n ops has min(n/opsPerBlock, BatchFanout, maxBlocks) blocks.
// Each key maps to one block, and an op whose keys land in several blocks
// merges them. A merged block is a chain: its ops in list order, run one
// after another in one child. So ops on one key keep their order, and
// sibling chains never meet on a key. Chains are numbered in first-touch
// order; a list with one chain runs inline, in list order.

// opsPerBlock is how many ops a parallel block must carry before forking
// it pays for a worker wakeup and a nested begin/commit: a point-sized
// batch or envelope runs inline, a larger one forks at most one block per
// opsPerBlock ops.
const opsPerBlock = 8

// maxBlocks caps the blocks of one plan whatever BatchFanout says, so that
// merging blocks is a union-find over a few bytes.
const maxBlocks = 32

// plan is one op list cut into chains. Its slices are scratch that a
// batchRun keeps from batch to batch.
type plan struct {
	blocks int              // block ids in use
	parent [maxBlocks]uint8 // union-find over block ids
	block  []uint8          // per op: its block, then its chain
	order  []int32          // op indices, chain after chain
	bounds []int32          // chain g is order[bounds[g]:bounds[g+1]]; empty: one chain
}

// batch plans a batch's requests.
func (pl *plan) batch(reg *stmlib.Registry, batch []*pending, fanout int) {
	if pl.reset(len(batch), fanout) {
		for _, p := range batch {
			pl.block = append(pl.block, uint8(pl.request(reg, &p.req)))
		}
		pl.cut()
	}
}

// envelope plans an envelope's sub-ops.
func (pl *plan) envelope(reg *stmlib.Registry, ops []TxOp, fanout int) {
	if pl.reset(len(ops), fanout) {
		for i := range ops {
			pl.block = append(pl.block, uint8(pl.touch(reg, &ops[i])))
		}
		pl.cut()
	}
}

// chains is the number of chains; below 2 the list runs inline, in order.
func (pl *plan) chains() int { return max(len(pl.bounds)-1, 0) }

// fork runs every chain as one parallel block of c: run(c, g, chain)
// executes chain g, given as its ops' list indices in list order.
func (pl *plan) fork(c *pnstm.Ctx, run func(c *pnstm.Ctx, g int, chain []int32)) {
	fns := make([]func(*pnstm.Ctx), pl.chains())
	for g := range fns {
		chain := pl.order[pl.bounds[g]:pl.bounds[g+1]]
		fns[g] = func(c *pnstm.Ctx) { run(c, g, chain) }
	}
	c.Parallel(fns...)
}

// reset starts a plan of n ops and reports whether it has blocks to fork.
func (pl *plan) reset(n, fanout int) bool {
	pl.blocks = min(n/opsPerBlock, fanout, maxBlocks)
	pl.bounds = pl.bounds[:0]
	if pl.blocks < 2 {
		return false
	}
	pl.block = slices.Grow(pl.block[:0], n)
	for b := range pl.blocks {
		pl.parent[b] = uint8(b)
	}
	return true
}

// request returns the block of a request: its point op's, or the merged
// block of every sub-op of an envelope.
func (pl *plan) request(reg *stmlib.Registry, req *Request) int {
	if req.Op != OpTx {
		op := req.pointOp()
		return pl.touch(reg, &op)
	}
	b := 0
	if req.Tx != nil {
		for i := range req.Tx.Ops {
			if x := pl.touch(reg, &req.Tx.Ops[i]); i == 0 {
				b = x
			} else {
				pl.union(b, x)
			}
		}
	}
	return b
}

// touch returns the block of op's first key, with the blocks of its other
// keys merged into it.
func (pl *plan) touch(reg *stmlib.Registry, op *TxOp) int {
	kind := structKind(op)
	at := stmlib.ShardIndex(op.Name, pl.blocks) + int(kind)
	if kind == 'm' && op.Op != OpMapLen {
		at += reg.MapBucket(op.Key)
	}
	b := at % pl.blocks
	if op.Op == OpMapLen {
		for x := range pl.blocks { // every bucket of the map
			pl.union(b, x)
		}
	}
	if opTable[op.Op].expiry {
		pl.union(b, 0) // the expiry index's block
	}
	return b
}

func (pl *plan) find(b int) int {
	for int(pl.parent[b]) != b {
		b = int(pl.parent[b])
	}
	return b
}

func (pl *plan) union(a, b int) { pl.parent[pl.find(a)] = uint8(pl.find(b)) }

// cut turns the ops' merged blocks into chains numbered by first touch and
// lays the ops out chain after chain, each chain in list order.
func (pl *plan) cut() {
	var chainOf [maxBlocks]uint8 // merged block → chain + 1
	var start [maxBlocks + 1]int32
	chains := 0
	for i, b := range pl.block {
		r := pl.find(int(b))
		if chainOf[r] == 0 {
			chains++
			chainOf[r] = uint8(chains)
		}
		g := chainOf[r] - 1
		pl.block[i] = g
		start[g+1]++
	}
	if chains < 2 {
		return
	}
	for g := 1; g <= chains; g++ {
		start[g] += start[g-1]
	}
	pl.bounds = append(pl.bounds, start[:chains+1]...)
	pl.order = slices.Grow(pl.order[:0], len(pl.block))[:len(pl.block)]
	for i, g := range pl.block {
		pl.order[start[g]] = int32(i)
		start[g]++
	}
}
