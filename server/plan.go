package server

import (
	"slices"

	"pnstm/internal/fork"
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
// A list of n ops has min(n/fork.OpsPerBlock, maxBlocks) blocks. Each key
// maps to one block, and an op whose keys land in several blocks merges
// them. A merged block is a chain: its ops in list order, run one after
// another. So ops on one key keep their order, and sibling chains never
// meet on a key. Chains are numbered in first-touch order. fork.Each runs
// them in at most Workers blocks, which open no transaction: every
// request and sub-op is one already. One chain runs inline, in order.

// maxBlocks caps the blocks of one plan, so that merging blocks is a
// union-find over a few bytes.
const maxBlocks = 32

// plan is one op list cut into chains. Its slices are scratch that a
// batchRun keeps from batch to batch.
type plan struct {
	layout
	blocks int              // block ids in use
	parent [maxBlocks]uint8 // union-find over block ids
	block  []uint8          // per op: its block, then its chain
}

// layout is a plan's chains: what a fork job reads, small enough to copy.
type layout struct {
	n      int     // ops in the list
	order  []int32 // op indices, chain after chain
	bounds []int32 // chain g is order[bounds[g]:bounds[g+1]]; empty: one chain
}

// batch plans a batch's requests.
func (pl *plan) batch(reg *stmlib.Registry, batch []*pending) {
	if pl.reset(len(batch)) {
		for _, p := range batch {
			pl.block = append(pl.block, uint8(pl.request(reg, &p.req)))
		}
		pl.cut()
	}
}

// envelope plans an envelope's sub-ops.
func (pl *plan) envelope(reg *stmlib.Registry, ops []TxOp) {
	if pl.reset(len(ops)) {
		for i := range ops {
			pl.block = append(pl.block, uint8(pl.touch(reg, &ops[i])))
		}
		pl.cut()
	}
}

func (l *layout) chains() int { return max(len(l.bounds)-1, 1) }

// span returns the positions [from, to) of chains [lo, hi) in the layout;
// at maps a position to its op's list index.
func (l *layout) span(lo, hi int) (from, to int) {
	if len(l.bounds) == 0 {
		return 0, l.n
	}
	return int(l.bounds[lo]), int(l.bounds[hi])
}

func (l *layout) at(k int) int {
	if len(l.bounds) == 0 {
		return k
	}
	return int(l.order[k])
}

// reset starts a plan of n ops and reports whether it has blocks to fork.
func (pl *plan) reset(n int) bool {
	pl.n, pl.blocks = n, min(n/fork.OpsPerBlock, maxBlocks)
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
