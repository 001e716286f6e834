package server

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"pnstm"
	"pnstm/stmlib"
)

// The op table (D50): everything the server knows about an opcode is its
// row below plus its case in execOp. The decoder reads top/sub to accept
// a frame, the batcher and the WAL read effect to decide what needs a
// commit ticket and what is logged, routing and the planner read kind, and
// every execution route — point request, envelope, cross-shard slice,
// replay — runs the same execOp case. An opcode with no row reads as the
// zero descriptor: legal nowhere.

// opEffect says when an EXECUTED op changed the store, judged from its
// result — only those are logged.
type opEffect uint8

const (
	effectNever   opEffect = iota // reads and guards
	effectAlways                  // puts, pushes, adds
	effectIfFound                 // deletes, pops, expiries, lease moves: only when something was there
	effectIfNum                   // bulk reclaim: only when it moved something
)

// opDesc is one opcode's row.
type opDesc struct {
	// kind is the structure the op addresses: 'm'ap, 'q'ueue, 'c'ounter,
	// 's'orted map, or 'g' for a guard (see structKind). Zero: none — the
	// op never reaches execOp: the control-plane ops the connection
	// answers itself, and OpTx, which is the executor.
	kind byte
	// top / sub: legal as a request / inside an OpTx envelope. OpTx itself
	// is never sub: envelopes do not nest on the wire — the runtime's
	// nesting is the server's concern.
	top, sub bool
	effect   opEffect
	// composite: the body is more than one stmlib call, so run alone (a
	// point request) it needs an enclosing transaction of its own.
	composite bool
	// expiry: the op can move a deadline in the registry's expiry index
	// (a TTL put or expiry, a lease move), which all such ops share.
	expiry bool
}

// opTable is indexed by the wire byte itself, so a hostile opcode cannot
// index out of range.
var opTable = [256]opDesc{
	OpPing:          {top: true},
	OpStats:         {top: true},
	OpHello:         {top: true},
	OpReplSubscribe: {top: true},
	OpTx:            {top: true},

	OpMapGet:    {kind: 'm', top: true, sub: true},
	OpMapPut:    {kind: 'm', top: true, sub: true, effect: effectAlways},
	OpMapDelete: {kind: 'm', top: true, sub: true, effect: effectIfFound},
	OpMapLen:    {kind: 'm', top: true, sub: true},
	OpMapAdd:    {kind: 'm', top: true, sub: true, effect: effectAlways, composite: true},
	OpMapPutTTL: {kind: 'm', sub: true, effect: effectAlways, expiry: true},
	OpExpire:    {kind: 'm', sub: true, effect: effectIfFound, expiry: true},

	OpQueuePush:    {kind: 'q', top: true, sub: true, effect: effectAlways},
	OpQueuePop:     {kind: 'q', top: true, sub: true, effect: effectIfFound},
	OpQueueLen:     {kind: 'q', top: true, sub: true},
	OpLeaseConsume: {kind: 'q', sub: true, effect: effectIfFound, expiry: true},
	OpLeaseAck:     {kind: 'q', sub: true, effect: effectIfFound, expiry: true},
	OpLeaseNack:    {kind: 'q', sub: true, effect: effectIfFound, expiry: true},
	OpLeaseReclaim: {kind: 'q', sub: true, effect: effectIfNum, expiry: true},
	OpLeaseLen:     {kind: 'q', sub: true},

	OpCounterAdd: {kind: 'c', top: true, sub: true, effect: effectAlways},
	OpCounterSum: {kind: 'c', top: true, sub: true},

	OpAssertEq: {kind: 'g', sub: true},
	OpAssertGE: {kind: 'g', sub: true},

	OpSortedGet:    {kind: 's', sub: true},
	OpSortedPut:    {kind: 's', sub: true, effect: effectAlways},
	OpSortedPutTTL: {kind: 's', sub: true, effect: effectAlways, expiry: true},
	OpSortedDelete: {kind: 's', sub: true, effect: effectIfFound},
	OpSortedLen:    {kind: 's', sub: true},
	OpRangeScan:    {kind: 's', sub: true},
	OpRangeCount:   {kind: 's', sub: true},
	OpSortedExpire: {kind: 's', sub: true, effect: effectIfFound, expiry: true},
}

// execOp is every opcode's body — one stmlib call, or a few — and the one
// place any of them is written: the point path, envelopes, cross-shard
// slices and, through them, replay all come here. It is one switch in a
// directly-called function on purpose: a func value per row would have
// to take and return its TxOp/TxResult by value, because pointers passed
// through a func value escape (two heap objects per call, measured, D50).
// A false guard returns errRejected with msg describing it; any other
// error is a malformed op.
func execOp(c *pnstm.Ctx, reg *stmlib.Registry, scans *scanSlab, op *TxOp) (res TxResult, msg string, err error) {
	res.Status = StatusOK
	switch op.Op {
	case OpMapGet:
		res.Value, res.Found = reg.Map(op.Name).Get(c, op.Key)
	case OpMapPut:
		reg.Map(op.Name).Put(c, op.Key, op.Value)
	case OpMapDelete:
		res.Found = reg.Map(op.Name).Delete(c, op.Key)
	case OpMapLen:
		res.Num = int64(reg.Map(op.Name).Len(c))
	case OpMapAdd:
		// Add Delta to the int64-encoded value under Key (absent reads as
		// 0): Num is the new value, Found whether the key existed before.
		m := reg.Map(op.Name)
		var raw []byte
		if raw, res.Found = m.Get(c, op.Key); res.Found {
			res.Num, err = DecodeInt64(raw)
		}
		if err == nil {
			res.Num += op.Delta
			m.Put(c, op.Key, EncodeInt64(res.Num))
		}
	case OpMapPutTTL:
		reg.Map(op.Name).PutTTL(c, op.Key, op.Value, op.Delta)
	case OpExpire:
		res.Found = reg.Map(op.Name).ExpireThrough(c, op.Key, op.Delta)

	case OpQueuePush:
		reg.Queue(op.Name).Push(c, op.Value)
	case OpQueuePop:
		res.Value, res.Found = reg.Queue(op.Name).Pop(c)
	case OpQueueLen:
		res.Num = int64(reg.Queue(op.Name).Len(c))
	case OpLeaseConsume:
		id, v, ok := reg.Queue(op.Name).ConsumeLease(c, op.Delta)
		res.Num, res.Value, res.Found = int64(id), v, ok
	case OpLeaseAck:
		// Guard-like: acking a lease that no longer exists (the reaper
		// reclaimed it and the element was re-delivered) rejects the WHOLE
		// envelope, so an ack bundled with its side effects commits
		// atomically exactly once per delivery.
		if res.Found = reg.Queue(op.Name).Ack(c, uint64(op.Delta)); !res.Found {
			msg, err = fmt.Sprintf("ack: queue %q lease %d gone (expired and reclaimed?)", op.Name, op.Delta), errRejected
		}
	case OpLeaseNack:
		res.Found = reg.Queue(op.Name).Nack(c, uint64(op.Delta))
	case OpLeaseReclaim:
		res.Num = int64(reg.Queue(op.Name).ReclaimExpired(c, op.Delta))
	case OpLeaseLen:
		res.Num = int64(reg.Queue(op.Name).LeaseLen(c))

	case OpCounterAdd:
		reg.Counter(op.Name).Add(c, op.Delta)
	case OpCounterSum:
		res.Num = reg.Counter(op.Name).Sum(c)

	case OpAssertEq, OpAssertGE:
		var raw []byte
		if op.Key == "" {
			// A counter guard, judged on this shard's partial.
			res.Num = reg.Counter(op.Name).Sum(c)
			if gmsg, ok := judgeCounterGuard(op, res.Num); !ok {
				msg, err = gmsg, errRejected
			}
		} else if raw, res.Found = reg.Map(op.Name).Get(c, op.Key); op.Op == OpAssertEq {
			if res.Found != (op.Value != nil) || !bytes.Equal(raw, op.Value) {
				msg, err = fmt.Sprintf("assert: map %q[%q] differs", op.Name, op.Key), errRejected
			}
		} else {
			if res.Found {
				res.Num, err = DecodeInt64(raw)
			}
			if err == nil && res.Num < op.Delta {
				msg, err = fmt.Sprintf("assert: map %q[%q] = %d, want >= %d", op.Name, op.Key, res.Num, op.Delta), errRejected
			}
		}

	case OpSortedGet:
		res.Value, res.Found = reg.SortedMap(op.Name).Get(c, op.Key)
	case OpSortedPut:
		reg.SortedMap(op.Name).Put(c, op.Key, op.Value)
	case OpSortedPutTTL:
		reg.SortedMap(op.Name).PutTTL(c, op.Key, op.Value, op.Delta)
	case OpSortedDelete:
		res.Found = reg.SortedMap(op.Name).Delete(c, op.Key)
	case OpSortedLen:
		res.Num = int64(reg.SortedMap(op.Name).Len(c))
	case OpRangeScan:
		// The sorted map reads only the leaves that hold the limit and
		// fans them into parallel-nested children per leaf subrange; a
		// conflicting point write restarts only the one child whose
		// subrange it hit. Scans are reads (never logged), so clamping
		// the entry count is invisible to replay. Neither bound is kept,
		// so the upper one borrows op.Value's bytes. The result is encoded
		// straight from the views of the leaves the scan read.
		limit := int(op.Delta)
		if limit <= 0 || limit > maxRangeScanEntries {
			limit = maxRangeScanEntries
		}
		var v stmlib.SortedView[string, []byte]
		if len(op.Value) == 0 {
			v = reg.SortedMap(op.Name).RangeViewFrom(c, op.Key, limit)
		} else {
			v = reg.SortedMap(op.Name).RangeView(c, op.Key, borrowString(op.Value), limit)
		}
		var n int
		res.Value, n, err = encodeView(&v, scans)
		res.Num = int64(n)
	case OpRangeCount:
		if len(op.Value) == 0 {
			res.Num = int64(reg.SortedMap(op.Name).RangeCountFrom(c, op.Key))
		} else {
			res.Num = int64(reg.SortedMap(op.Name).RangeCount(c, op.Key, borrowString(op.Value)))
		}
	case OpSortedExpire:
		res.Found = reg.SortedMap(op.Name).ExpireThrough(c, op.Key, op.Delta)

	default:
		err = fmt.Errorf("opcode %d is not executable", op.Op)
	}
	if errors.Is(err, errRejected) {
		res.Status = StatusRejected
	}
	return res, msg, err
}

// Mutates reports whether op can change the store. A request holding none
// that does is a pure read: it takes no commit ticket, is never logged,
// and a replica may serve it — the client routes by this too.
func Mutates(op uint8) bool { return opTable[op].effect != effectNever }

// effected reports whether an executed op changed the store, given its
// result.
func effected(op uint8, res *TxResult) bool {
	switch opTable[op].effect {
	case effectAlways:
		return true
	case effectIfFound:
		return res.Found
	case effectIfNum:
		return res.Num > 0
	}
	return false
}

// canMutate reports whether a request can change the store at all — the
// static filter deciding which requests need the commit-order ticket
// wrapper. A pure-read envelope (gets, lens, sums, guards) skips the
// wrapper like any other read.
func canMutate(req *Request) bool {
	if req.Op != OpTx {
		return Mutates(req.Op)
	}
	return slices.ContainsFunc(req.Tx.Ops, func(op TxOp) bool { return Mutates(op.Op) })
}

// mutating reports whether the executed request changed the store — only
// those are logged. Rejected envelopes, missed deletes/pops and all pure
// reads left nothing to redo.
func mutating(req *Request, resp *Response) bool {
	if resp.Status != StatusOK {
		return false
	}
	if req.Op != OpTx {
		return effected(req.Op, &TxResult{Found: resp.Found, Num: resp.Num})
	}
	for i := range resp.TxResults {
		if effected(req.Tx.Ops[i].Op, &resp.TxResults[i]) {
			return true
		}
	}
	return false
}

// structKind is the kind of structure a sub-op addresses: its row's kind,
// except that a guard addresses a map when it names a key and a counter
// otherwise.
func structKind(op *TxOp) byte {
	kind := opTable[op.Op].kind
	if kind != 'g' {
		return kind
	}
	if op.Key != "" {
		return 'm'
	}
	return 'c'
}

// pointOp is a point request seen as the sub-op it is.
func (req *Request) pointOp() TxOp {
	return TxOp{Op: req.Op, Name: req.Name, Key: req.Key, Value: req.Value, Delta: req.Delta}
}
