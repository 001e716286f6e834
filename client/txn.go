package client

import (
	"fmt"
	"slices"

	"pnstm/server"
)

// ErrTxAborted is returned by Txn.Commit when the server rejected the
// transaction: the guard (AssertEq/AssertGE/…) at FailedOpIndex was
// false, and EVERY write of the transaction was rolled back — the store
// is exactly as if the transaction never ran.
//
// Retry guidance: a failed guard is the app-level conflict signal —
// the transactional equivalent of a compare-and-swap losing its race.
// The server has already resolved all low-level STM conflicts
// internally (transactions are retried inside their group commit), so
// ErrTxAborted never means "try the identical transaction again": it
// means the state your guards assumed has moved. Re-read the current
// state, rebuild the transaction against it, and bound the retries
// (the classic optimistic-concurrency loop). A guard that keeps
// failing under contention is telling you to restructure — e.g. swap
// an AssertEq version check on a hot key for a commutative MapAddInt.
type ErrTxAborted struct {
	// FailedOpIndex is the envelope index (Txn op order, 0-based) of
	// the sub-op that failed.
	FailedOpIndex int
	// Reason describes the failed assertion.
	Reason string
}

func (e *ErrTxAborted) Error() string {
	return fmt.Sprintf("client: transaction aborted at op %d: %s", e.FailedOpIndex, e.Reason)
}

// Txn builds one atomic multi-structure transaction — the wire OpTx
// envelope. Ops execute in the order they are added, atomically, with
// read-your-writes across ops on the same structure; on the server the
// whole envelope runs as one nested child of a group-commit batch, its
// per-structure op groups fanned as parallel-nested grandchildren. On a
// sharded server an envelope whose structures span several shards is
// still one atomic commit: reads fan, and writes go through the
// cross-shard ordered-commit path (one global sequence number, all
// slices commit or none do).
// Build errors (oversize fields) are deferred to Commit, so chains
// never need intermediate checks:
//
//	res, err := cl.Txn().
//	        AssertGE("stock", "anvil", 2).
//	        MapAddInt("stock", "anvil", -2).
//	        CounterAdd("sold", 2).
//	        Commit()
//
// A Txn is single-use (Commit once) and not safe for concurrent
// building. Results are indexed by op order: capture At() before adding
// an op to know where its result will land.
type Txn struct {
	cl  *Client
	ops []server.TxOp
	err error
}

// Txn starts an empty transaction builder.
func (cl *Client) Txn() *Txn { return &Txn{cl: cl} }

// At returns the index the NEXT op will occupy — capture it before
// adding an op to address that op's result in the committed TxResults.
func (t *Txn) At() int { return len(t.ops) }

func (t *Txn) add(op server.TxOp) *Txn {
	t.ops = append(t.ops, op)
	return t
}

// MapGet reads key from the named map (result: Bytes/Found).
func (t *Txn) MapGet(name, key string) *Txn {
	return t.add(server.TxOp{Op: server.OpMapGet, Name: name, Key: key})
}

// MapPut stores value under key in the named map.
func (t *Txn) MapPut(name, key string, value []byte) *Txn {
	return t.add(server.TxOp{Op: server.OpMapPut, Name: name, Key: key, Value: value})
}

// MapPutInt stores an int64 value (the encoding MapAddInt and the
// integer guards understand).
func (t *Txn) MapPutInt(name, key string, v int64) *Txn {
	return t.MapPut(name, key, server.EncodeInt64(v))
}

// MapDelete removes key from the named map (result: Found).
func (t *Txn) MapDelete(name, key string) *Txn {
	return t.add(server.TxOp{Op: server.OpMapDelete, Name: name, Key: key})
}

// MapLen reads the named map's entry count (result: Num).
func (t *Txn) MapLen(name string) *Txn {
	return t.add(server.TxOp{Op: server.OpMapLen, Name: name})
}

// MapAddInt adds delta to the int64-encoded value under key, treating
// an absent key as 0 (result: Num is the new value, Found whether the
// key existed before).
func (t *Txn) MapAddInt(name, key string, delta int64) *Txn {
	return t.add(server.TxOp{Op: server.OpMapAdd, Name: name, Key: key, Delta: delta})
}

// QueuePush appends value to the named queue.
func (t *Txn) QueuePush(name string, value []byte) *Txn {
	return t.add(server.TxOp{Op: server.OpQueuePush, Name: name, Value: value})
}

// QueuePop removes the named queue's front element (result:
// Bytes/Found).
func (t *Txn) QueuePop(name string) *Txn {
	return t.add(server.TxOp{Op: server.OpQueuePop, Name: name})
}

// QueueLen reads the named queue's length (result: Num).
func (t *Txn) QueueLen(name string) *Txn {
	return t.add(server.TxOp{Op: server.OpQueueLen, Name: name})
}

// CounterAdd adds delta to the named counter. On a sharded server the
// credit lands on the shard the transaction executes on (counter state
// is per-shard partials; top-level Client.CounterSum reads the exact
// cross-shard total).
func (t *Txn) CounterAdd(name string, delta int64) *Txn {
	return t.add(server.TxOp{Op: server.OpCounterAdd, Name: name, Delta: delta})
}

// CounterSum reads the named counter (result: Num). Inside a
// transaction pinned to one shard this is that shard's partial — exact
// on a 1-shard server; in a fanned read-only transaction it is the
// exact cross-shard total.
func (t *Txn) CounterSum(name string) *Txn {
	return t.add(server.TxOp{Op: server.OpCounterSum, Name: name})
}

// AssertEq guards the transaction on a map value: the bytes under key
// must equal value exactly (nil asserts the key is absent), or the
// whole transaction aborts with ErrTxAborted.
func (t *Txn) AssertEq(name, key string, value []byte) *Txn {
	if key == "" {
		t.fail(fmt.Errorf("client: AssertEq needs a key (use AssertCounterEq for counters)"))
		return t
	}
	return t.add(server.TxOp{Op: server.OpAssertEq, Name: name, Key: key, Value: value})
}

// AssertEqInt is AssertEq against an int64-encoded value.
func (t *Txn) AssertEqInt(name, key string, v int64) *Txn {
	return t.AssertEq(name, key, server.EncodeInt64(v))
}

// AssertGE guards the transaction on an int64-encoded map value: the
// value under key (0 when absent) must be ≥ min.
func (t *Txn) AssertGE(name, key string, min int64) *Txn {
	if key == "" {
		t.fail(fmt.Errorf("client: AssertGE needs a key (use AssertCounterGE for counters)"))
		return t
	}
	return t.add(server.TxOp{Op: server.OpAssertGE, Name: name, Key: key, Delta: min})
}

// AssertCounterEq guards the transaction on a counter's sum (the
// executing shard's partial on a sharded server; exact when fanned
// read-only or on a 1-shard server).
func (t *Txn) AssertCounterEq(name string, v int64) *Txn {
	return t.add(server.TxOp{Op: server.OpAssertEq, Name: name, Delta: v})
}

// AssertCounterGE guards the transaction on a counter's sum being ≥ min.
func (t *Txn) AssertCounterGE(name string, min int64) *Txn {
	return t.add(server.TxOp{Op: server.OpAssertGE, Name: name, Delta: min})
}

// SortedGet reads key from the named sorted map (result: Bytes/Found;
// an expired-but-unreaped entry reads as absent).
func (t *Txn) SortedGet(name, key string) *Txn {
	return t.add(server.TxOp{Op: server.OpSortedGet, Name: name, Key: key})
}

// SortedPut stores value under key in the named sorted map.
func (t *Txn) SortedPut(name, key string, value []byte) *Txn {
	return t.add(server.TxOp{Op: server.OpSortedPut, Name: name, Key: key, Value: value})
}

// SortedPutTTL stores value under key expiring at deadline (UnixNano).
// deadline <= 0 stores without a deadline. Reads hide the entry once
// the deadline passes; the server's reaper removes it physically.
func (t *Txn) SortedPutTTL(name, key string, value []byte, deadline int64) *Txn {
	return t.add(server.TxOp{Op: server.OpSortedPutTTL, Name: name, Key: key, Value: value, Delta: deadline})
}

// SortedDelete removes key from the named sorted map (result: Found).
func (t *Txn) SortedDelete(name, key string) *Txn {
	return t.add(server.TxOp{Op: server.OpSortedDelete, Name: name, Key: key})
}

// SortedLen reads the named sorted map's physical entry count —
// expired-but-unreaped entries included (result: Num).
func (t *Txn) SortedLen(name string) *Txn {
	return t.add(server.TxOp{Op: server.OpSortedLen, Name: name})
}

// RangeScan reads the live entries of [lo, hi) from the named sorted
// map in key order, at most limit entries (0: server cap). hi == ""
// scans to the end of the key space. Result: Entries/Num. The server
// executes the scan as parallel-nested children over key subranges, so
// a conflicting point write restarts only the child whose subrange it
// hit. Large ranges page: pass the last returned key + "\x00" as the
// next lo.
func (t *Txn) RangeScan(name, lo, hi string, limit int) *Txn {
	return t.add(server.TxOp{Op: server.OpRangeScan, Name: name, Key: lo, Value: []byte(hi), Delta: int64(limit)})
}

// RangeCount counts the live entries of [lo, hi) — hi == "" counts to
// the end — without materializing values (result: Num).
func (t *Txn) RangeCount(name, lo, hi string) *Txn {
	return t.add(server.TxOp{Op: server.OpRangeCount, Name: name, Key: lo, Value: []byte(hi)})
}

// MapPutTTL stores value under key in the named map expiring at
// deadline (UnixNano); deadline <= 0 stores without a deadline.
func (t *Txn) MapPutTTL(name, key string, value []byte, deadline int64) *Txn {
	return t.add(server.TxOp{Op: server.OpMapPutTTL, Name: name, Key: key, Value: value, Delta: deadline})
}

// LeaseConsume pops one element from the named queue under a lease
// expiring at deadline (UnixNano): the element leaves the queue but is
// requeued by the server's reaper if the lease is neither acked nor
// nacked by the deadline — at-least-once delivery. Result: Found
// whether an element was available, Lease/Num the lease id, Bytes the
// payload.
func (t *Txn) LeaseConsume(name string, deadline int64) *Txn {
	return t.add(server.TxOp{Op: server.OpLeaseConsume, Name: name, Delta: deadline})
}

// LeaseAck retires lease id — the element is done and never redelivered.
// GUARD-LIKE: if the lease no longer exists (its deadline passed and the
// reaper reclaimed it) the WHOLE transaction aborts with ErrTxAborted,
// so an ack bundled with its side effects commits exactly once per
// delivery.
func (t *Txn) LeaseAck(name string, id uint64) *Txn {
	return t.add(server.TxOp{Op: server.OpLeaseAck, Name: name, Delta: int64(id)})
}

// LeaseNack gives lease id's element back to the queue tail immediately
// (result: Found — false when the lease was already reclaimed, which is
// not an error: the element is back in the queue either way).
func (t *Txn) LeaseNack(name string, id uint64) *Txn {
	return t.add(server.TxOp{Op: server.OpLeaseNack, Name: name, Delta: int64(id)})
}

// LeaseReclaim requeues every lease of the named queue whose deadline
// is <= cutoff (result: Num = how many). Normally the server's reaper
// does this; explicit reclaim suits tests and external schedulers.
func (t *Txn) LeaseReclaim(name string, cutoff int64) *Txn {
	return t.add(server.TxOp{Op: server.OpLeaseReclaim, Name: name, Delta: cutoff})
}

// LeaseLen reads the named queue's outstanding-lease count (result: Num).
func (t *Txn) LeaseLen(name string) *Txn {
	return t.add(server.TxOp{Op: server.OpLeaseLen, Name: name})
}

func (t *Txn) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// Commit sends the transaction and waits for its atomic outcome.
//
//   - nil error: every op executed and committed; results are indexed
//     by op order.
//   - *ErrTxAborted (errors.As): a guard was false; nothing committed.
//     The partial results show what the aborted attempt observed.
//   - anything else: transport or server failure; for writes, assume
//     unknown outcome (as with any RPC).
func (t *Txn) Commit() (*TxResults, error) {
	if t.err != nil {
		return nil, t.err
	}
	if len(t.ops) == 0 {
		return &TxResults{}, nil
	}
	req := &server.Request{Op: server.OpTx, Tx: &server.Tx{Ops: t.ops}}
	// A pure-read envelope — every sub-op a read or a guard, by the
	// server's own table — is eligible for replica routing under the
	// pool's read preference; anything mutating is primary-only.
	var resp *server.Response
	var err error
	if slices.ContainsFunc(t.ops, func(op server.TxOp) bool { return server.Mutates(op.Op) }) {
		resp, err = t.cl.roundTrip(req)
	} else {
		resp, err = t.cl.roundTripRead(req)
	}
	if resp != nil && resp.Status == server.StatusRejected {
		return &TxResults{rs: resp.TxResults},
			&ErrTxAborted{FailedOpIndex: int(resp.Num), Reason: resp.Msg}
	}
	if err != nil {
		return nil, err
	}
	return &TxResults{rs: resp.TxResults}, nil
}

// TxResults is the per-op outcome vector of a committed (or, partially,
// an aborted) transaction, indexed by op order.
type TxResults struct {
	rs []server.TxResult
}

// Len is the number of result slots.
func (r *TxResults) Len() int { return len(r.rs) }

func (r *TxResults) at(i int) server.TxResult {
	if i < 0 || i >= len(r.rs) {
		return server.TxResult{}
	}
	return r.rs[i]
}

// Executed reports whether op i ran (false for ops after the failing
// guard of an aborted transaction).
func (r *TxResults) Executed(i int) bool { return r.at(i).Status != 0 }

// Found reports op i's existence answer (map get/delete, queue pop,
// map add's "existed before").
func (r *TxResults) Found(i int) bool { return r.at(i).Found }

// Num reports op i's numeric answer (lengths, sums, map-add results,
// guard observations).
func (r *TxResults) Num(i int) int64 { return r.at(i).Num }

// Bytes reports op i's payload answer (map get, queue pop).
func (r *TxResults) Bytes(i int) []byte { return r.at(i).Value }

// Int decodes op i's payload as an int64-encoded value; ok mirrors
// Found.
func (r *TxResults) Int(i int) (v int64, ok bool, err error) {
	res := r.at(i)
	if !res.Found {
		return 0, false, nil
	}
	v, err = server.DecodeInt64(res.Value)
	return v, true, err
}

// Entry is one decoded RangeScan result: a key and its value, in key
// order within the scan. Its bytes belong to the result it came from
// (see Entries).
type Entry = server.KVEntry

// Entries decodes op i's RangeScan result into its ordered entry list.
// The entries borrow from the result rather than copy it: every Value is
// a slice of the result's payload — the buffer Bytes(i) hands out — so a
// retained Value keeps that whole payload alive, and the keys share one
// string. Copy what must outlive the result.
func (r *TxResults) Entries(i int) ([]Entry, error) {
	res := r.at(i)
	if len(res.Value) == 0 {
		return nil, nil
	}
	kvs, err := server.DecodeKVs(res.Value)
	if err != nil {
		return nil, fmt.Errorf("client: range scan result: %w", err)
	}
	return kvs, nil
}

// Lease reports op i's LeaseConsume outcome: the lease id, the leased
// payload and whether an element was available at all.
func (r *TxResults) Lease(i int) (id uint64, value []byte, ok bool) {
	res := r.at(i)
	return uint64(res.Num), res.Value, res.Found
}
