// Package server implements pnstmd: a networked transactional store
// exposing named stmlib structures (maps, queues, counters) over a
// length-prefixed binary protocol, with a group-commit batching engine
// that coalesces concurrent in-flight requests into one root transaction
// per batch — each request runs as a parallel nested child of the batch
// transaction via fork.Each, so server throughput directly exercises
// the paper's parallel-nesting mechanism (batch = root transaction,
// request = nested child).
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"unsafe"
)

// Wire format, all integers big-endian. A frame is a uint32 payload
// length followed by the payload:
//
//	request:  u64 id | u8 op | u16+name | u16+key | u32+value | i64 delta
//	          [op == OpTx: u16 nops, nops ×
//	           (u8 op | u16+name | u16+key | u32+value | i64 delta)]
//	response: u64 id | u8 status | u8 found | i64 num | u32+value | u16+msg
//	          | u16 nresults, nresults × (u8 status | u8 found | i64 num | u32+value)
//
// u16+s / u32+b denote a length-prefixed string / byte slice. Responses
// share one body layout across ops: Found answers map-get / map-delete /
// queue-pop, Num carries lengths and sums, Value carries get/pop payloads
// and the OpStats JSON blob, Msg carries the error text for StatusErr.
// The trailing results vector is non-empty only for OpTx responses: one
// entry per sub-op, in envelope order.

// MaxFrame bounds a single frame's payload; larger frames are rejected
// as malformed (protects both sides from a corrupt length prefix).
const MaxFrame = 16 << 20

// Request opcodes. The numbers are the wire and the WAL format: they are
// positional (iota), so an opcode is only ever appended, and a removed one
// leaves a reserved hole (TestWireNumbersAreGolden pins every value).
// Everything else the server knows about an opcode is its opTable row.
const (
	OpPing uint8 = iota + 1
	OpMapGet
	OpMapPut
	OpMapDelete
	OpMapLen
	OpQueuePush
	OpQueuePop
	OpQueueLen
	OpCounterAdd
	OpCounterSum
	_ // 11: OpCheckout, removed in PR 18; never reuse
	OpStats
	// OpTx is the generalized transaction envelope: an ordered list of
	// sub-ops executed as ONE atomic transaction (one nested child of the
	// group-commit batch, each sub-op a nested grandchild; 16 or more fork
	// their per-key chains as parallel blocks). Sub-ops see earlier writes
	// of the same envelope on the same structure (read-your-writes); a
	// failed guard or malformed sub-op aborts and rolls back the whole
	// envelope.
	OpTx

	// Sub-opcodes valid inside an OpTx envelope (OpMapAdd is also a valid
	// top-level request). Guards never mutate; a false guard aborts the
	// envelope with StatusRejected and Num = the failing op's index.
	//
	// OpMapAdd: add Delta to the int64-encoded map value under Key
	// (absent reads as 0); result Num is the new value, Found whether the
	// key existed before.
	OpMapAdd
	// OpAssertEq: with Key != "", assert the map value under Key equals
	// Value byte-for-byte (nil Value asserts the key is absent); with
	// Key == "", assert the named counter's sum equals Delta.
	OpAssertEq
	// OpAssertGE: with Key != "", assert the int64-encoded map value
	// under Key (absent reads as 0) is ≥ Delta; with Key == "", assert
	// the named counter's sum is ≥ Delta.
	OpAssertGE

	// OpHello is the versioned handshake (D40): the client announces its
	// protocol version, feature bits and read-staleness bound; the server
	// answers with its own version/features, role (primary or replica),
	// shard count and — on a replica — the primary's address, encoded in
	// Response.Value (see EncodeHelloInfo). A raw-protocol client may
	// skip it and is served as a primary's client; the Go client and a
	// replica send it first and refuse a peer that does not answer it.
	OpHello
	// OpReplSubscribe opens a replication stream (D39): the requester
	// names a shard and a resume LSN, and the server answers with a
	// sequence of response frames sharing the request's ID — snapshot
	// chunks when the resume point was compacted, then record frames as
	// group commits append, with heartbeats while idle. The stream ends
	// only with the connection (or a StatusErr frame naming the reason).
	OpReplSubscribe

	// Second-generation sub-opcodes (sorted maps, per-key TTL, queue
	// leases). Valid ONLY inside an OpTx envelope — ParseRequest rejects
	// them top-level, so the dispatch surface (routing, batching,
	// logging) stays the envelope path; clients wrap point uses in
	// single-op envelopes. Deadlines and cutoffs are int64 UnixNano
	// carried in Delta: reads judge expiry against the reader's clock
	// (never logged), but every PHYSICAL removal is one of the explicit
	// cutoff-carrying ops below, so replaying the WAL is deterministic —
	// no wall clock in any logged path.

	// OpSortedGet: Value/Found = the sorted map's live value under Key
	// (an expired-but-unreaped entry reads as absent).
	OpSortedGet
	// OpSortedPut: set Key to Value with no deadline.
	OpSortedPut
	// OpSortedPutTTL: set Key to Value expiring at Delta (UnixNano);
	// Delta <= 0 degrades to a plain put.
	OpSortedPutTTL
	// OpSortedDelete: physically remove Key; Found whether it existed.
	OpSortedDelete
	// OpSortedLen: Num = physical entry count (expired-but-unreaped
	// entries included — the reaper's progress gauge).
	OpSortedLen
	// OpRangeScan: Num/Value = the live entries in [Key, string(Value))
	// in key order, capped at Delta entries (0: unbounded); an empty
	// Value scans to the end of the key space. The result Value is an
	// EncodeKVs list, Num its length. Executes as the sorted map's
	// parallel-nested subrange scan.
	OpRangeScan
	// OpRangeCount: Num = the live-entry count of the same range shape
	// as OpRangeScan (Delta ignored), without materializing values.
	OpRangeCount
	// OpMapPutTTL: TMap put with a deadline, mirroring OpSortedPutTTL.
	OpMapPutTTL
	// OpExpire: physically remove the map Key iff it carries a deadline
	// <= Delta (the reaper's logged cutoff); Found whether it did.
	OpExpire
	// OpSortedExpire: OpExpire for a sorted map key.
	OpSortedExpire
	// OpLeaseConsume: pop one element under a lease expiring at Delta;
	// Found whether an element was available, Num the lease id, Value
	// the payload. Lease ids are minted from transactional state, so
	// replay reproduces them exactly.
	OpLeaseConsume
	// OpLeaseAck: retire lease Delta (id). GUARD-LIKE: an absent lease
	// (already reclaimed and re-delivered) REJECTS the envelope, so an
	// ack bundled with its side effects (done-markers, counters) commits
	// atomically exactly once per delivery.
	OpLeaseAck
	// OpLeaseNack: return lease Delta's element to the queue tail; Found
	// whether the lease still existed (an absent lease is a no-op, not a
	// rejection — reclaim already requeued it).
	OpLeaseNack
	// OpLeaseReclaim: requeue every lease with deadline <= Delta, in
	// lease-id order; Num = how many.
	OpLeaseReclaim
	// OpLeaseLen: Num = outstanding lease count.
	OpLeaseLen
)

// Response statuses; positional like the opcodes.
const (
	// StatusOK: the operation committed (for map get / queue pop, check
	// Found for whether the key/element existed).
	StatusOK uint8 = iota + 1
	// StatusRejected: the operation's own precondition failed (a false
	// OpTx guard) and its transaction was rolled back; the rest of the
	// batch is unaffected. For OpTx, Num is the failing op's index and
	// TxResults holds what executed before the abort.
	StatusRejected
	// StatusErr: the request was malformed or the server is shutting
	// down; Msg carries the reason.
	StatusErr
	_ // 4: StatusCrossShard, removed in PR 18; never reuse
	// StatusNotPrimary: the redirect status (D41). A replica refused to
	// execute a mutation (or a read the caller's staleness bound forbids);
	// Msg names the primary's address. Clients retry against the primary
	// or surface client.ErrNotPrimary.
	StatusNotPrimary
)

// TxOp is one sub-operation of an OpTx envelope. Op is any opcode whose
// opTable row says sub — the structure ops and the guards; Name addresses
// the structure and
// Key/Value/Delta are op-specific exactly as in a top-level Request.
type TxOp struct {
	Op    uint8
	Name  string
	Key   string
	Value []byte
	Delta int64
}

// Tx is the decoded OpTx envelope body.
type Tx struct {
	Ops []TxOp
}

// statusRemovedCrossShard is the number StatusCrossShard held.
const statusRemovedCrossShard = 4

// TxResult is one sub-op's outcome inside an OpTx response. Status 0
// means the op never executed (a preceding failure aborted the
// envelope); StatusOK carries the op's Found/Num/Value exactly as a
// top-level response would; StatusRejected marks the failing guard.
type TxResult struct {
	Status uint8
	Found  bool
	Num    int64
	Value  []byte
}

// CheckoutLine is one (SKU, quantity) order line.
type CheckoutLine struct {
	SKU string
	Qty int64
}

// Checkout is the cross-structure order operation, mirroring
// examples/inventory: atomically decrement every line's stock in the
// request's map (values are EncodeInt64 counts), then credit the Sold
// counter with the total units and the Revenue counter with Cents. If
// any line has insufficient stock the whole checkout — all decrements
// included — is rolled back and the response is StatusRejected.
type Checkout struct {
	Sold    string // units counter name ("" to skip)
	Revenue string // revenue counter name ("" to skip)
	Cents   int64
	Lines   []CheckoutLine
}

// Request is one decoded client operation. Name addresses the structure;
// Key/Value/Delta are op-specific; Tx is non-nil only for OpTx.
type Request struct {
	ID    uint64
	Op    uint8
	Name  string
	Key   string
	Value []byte
	Delta int64
	Tx    *Tx
	Hello *Hello         // non-nil only for OpHello
	Sub   *ReplSubscribe // non-nil only for OpReplSubscribe
}

// Response is one decoded server reply; see the body-layout comment
// above for which fields each op uses. TxResults is per-sub-op outcomes,
// non-empty only for OpTx.
type Response struct {
	ID        uint64
	Status    uint8
	Found     bool
	Num       int64
	Value     []byte
	Msg       string
	TxResults []TxResult
}

// EncodeInt64 renders v as the 8-byte big-endian map value the integer
// helpers (OpMapAdd, the integer guards) use.
func EncodeInt64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// DecodeInt64 parses an EncodeInt64 value.
func DecodeInt64(b []byte) (int64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("server: int64 value has %d bytes, want 8", len(b))
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

func appendU16Str(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendU32Bytes(buf []byte, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendI64(buf []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(buf, uint64(v))
}

// checkRequestLimits rejects values that would not survive their wire
// length prefix (u16 strings, u16 line count, the frame bound itself) —
// encoding them anyway would silently truncate the prefix and corrupt
// the stream.
func checkRequestLimits(req *Request) error {
	const maxStr = 1<<16 - 1
	if len(req.Name) > maxStr || len(req.Key) > maxStr {
		return fmt.Errorf("server: name/key longer than %d bytes", maxStr)
	}
	if len(req.Value) > MaxFrame/2 {
		return fmt.Errorf("server: value of %d bytes exceeds limit %d", len(req.Value), MaxFrame/2)
	}
	if tx := req.Tx; tx != nil {
		if len(tx.Ops) > maxStr {
			return fmt.Errorf("server: transaction with %d ops exceeds limit %d", len(tx.Ops), maxStr)
		}
		for i := range tx.Ops {
			op := &tx.Ops[i]
			if !opTable[op.Op].sub {
				return fmt.Errorf("server: op %d: invalid sub-opcode %d", i, op.Op)
			}
			if len(op.Name) > maxStr || len(op.Key) > maxStr {
				return fmt.Errorf("server: op %d: name/key longer than %d bytes", i, maxStr)
			}
			if len(op.Value) > MaxFrame/2 {
				return fmt.Errorf("server: op %d: value of %d bytes exceeds limit %d", i, len(op.Value), MaxFrame/2)
			}
		}
	}
	return nil
}

// KVEntry is one decoded range-scan result entry. What DecodeKVs returns
// borrows: Value is a sub-slice of the decoder's input (capped at its
// own length, so appending to one reallocates rather than running into
// its neighbour) and Key a substring of one string shared by the list.
type KVEntry struct {
	Key   string
	Value []byte
}

// kvSize is the encoded size of one range-scan result entry.
func kvSize(key string, value []byte) int { return 2 + len(key) + 4 + len(value) }

// appendKV encodes one range-scan result entry: a u16-prefixed key and a
// u32-prefixed value.
func appendKV(buf []byte, key string, value []byte) []byte {
	return appendU32Bytes(appendU16Str(buf, key), value)
}

// AppendKVs encodes a range-scan result list into buf: u32 count, then
// per entry a u16-prefixed key and u32-prefixed value. The encoding is
// carried as an OpRangeScan result Value, so it must survive the same
// frame limits as any other value.
func AppendKVs(buf []byte, kvs []KVEntry) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(kvs)))
	for _, kv := range kvs {
		buf = appendKV(buf, kv.Key, kv.Value)
	}
	return buf
}

// DecodeKVs parses an AppendKVs list, rejecting truncated or oversized
// encodings. It validates the whole list first and then decodes by
// reference (D49): the entries' values alias b, which the caller must
// own for as long as it holds them — a TxResult.Value, which
// ParseResponse copied out of the connection's frame buffer, is — and
// the keys share one allocation. An empty value decodes as nil.
func DecodeKVs(b []byte) ([]KVEntry, error) { return decodeKVs(b, false) }

// DecodeKVsInPlace is DecodeKVs with the keys views of b as well, so the
// list is its one allocation. b must never be written again while an
// entry's key is held — a key is a string, and a string does not change —
// so the caller gives b up: a reply payload no one else can reach.
func DecodeKVsInPlace(b []byte) ([]KVEntry, error) { return decodeKVs(b, true) }

func decodeKVs(b []byte, inPlace bool) ([]KVEntry, error) {
	cur := cursor{b: b}
	raw := cur.take(4)
	if raw == nil {
		return nil, cur.err
	}
	n := binary.BigEndian.Uint32(raw)
	if uint64(n)*6 > uint64(len(b)) { // each entry costs >= 6 prefix bytes
		return nil, fmt.Errorf("server: kv list claims %d entries in %d bytes", n, len(b))
	}
	keyBytes := 0
	for i := uint32(0); i < n; i++ {
		keyBytes += len(cur.raw16())
		cur.raw32()
	}
	if err := cur.done(); err != nil {
		return nil, err
	}
	kvs := make([]KVEntry, n)
	var keys strings.Builder
	if !inPlace {
		keys.Grow(keyBytes) // exact, so the substrings below never move
	}
	cur = cursor{b: b, off: 4}
	for i := range kvs {
		if k := cur.raw16(); inPlace {
			kvs[i].Key = borrowString(k)
		} else {
			at := keys.Len()
			keys.Write(k)
			kvs[i].Key = keys.String()[at:]
		}
		if v := cur.raw32(); len(v) > 0 {
			kvs[i].Value = v[:len(v):len(v)]
		}
	}
	return kvs, nil
}

// AppendRequest appends req as a complete frame (length prefix
// included), rejecting requests whose fields cannot be represented on
// the wire.
func AppendRequest(buf []byte, req *Request) ([]byte, error) {
	if err := checkRequestLimits(req); err != nil {
		return buf, err
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // frame length, patched below
	buf = binary.BigEndian.AppendUint64(buf, req.ID)
	buf = append(buf, req.Op)
	buf = appendU16Str(buf, req.Name)
	buf = appendU16Str(buf, req.Key)
	buf = appendU32Bytes(buf, req.Value)
	buf = appendI64(buf, req.Delta)
	if req.Op == OpTx {
		tx := req.Tx
		if tx == nil {
			tx = &Tx{}
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(tx.Ops)))
		for i := range tx.Ops {
			op := &tx.Ops[i]
			buf = append(buf, op.Op)
			buf = appendU16Str(buf, op.Name)
			buf = appendU16Str(buf, op.Key)
			buf = appendU32Bytes(buf, op.Value)
			buf = appendI64(buf, op.Delta)
		}
	}
	if req.Op == OpHello {
		h := req.Hello
		if h == nil {
			h = &Hello{Version: ProtoVersion}
		}
		buf = binary.BigEndian.AppendUint16(buf, h.Version)
		buf = binary.BigEndian.AppendUint64(buf, h.Features)
		buf = binary.BigEndian.AppendUint32(buf, h.MaxStalenessMs)
	}
	if req.Op == OpReplSubscribe {
		sub := req.Sub
		if sub == nil {
			sub = &ReplSubscribe{}
		}
		buf = binary.BigEndian.AppendUint16(buf, sub.Shard)
		buf = binary.BigEndian.AppendUint64(buf, sub.FromLSN)
	}
	// Per-field limits cannot bound the sum (a many-op envelope can
	// pass each check yet overflow the frame), so enforce the total
	// here: a frame the peer would reject — tearing down the whole
	// pipelined connection — must not leave this side.
	if n := len(buf) - start - 4; n > MaxFrame {
		return buf[:start], fmt.Errorf("server: request encodes to %d bytes, exceeding frame limit %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf, nil
}

// AppendResponse appends resp as a complete frame (length prefix
// included). An over-long Msg (server-generated error text) is clamped
// to its u16 prefix rather than corrupting the frame, as is an
// over-long results vector (a server never produces one: sub-op counts
// are bounded by the request's own u16 prefix).
func AppendResponse(buf []byte, resp *Response) []byte {
	if len(resp.Msg) > 1<<16-1 {
		clamped := *resp
		clamped.Msg = resp.Msg[:1<<16-1]
		resp = &clamped
	}
	if len(resp.TxResults) > 1<<16-1 {
		clamped := *resp
		clamped.TxResults = resp.TxResults[:1<<16-1]
		resp = &clamped
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.BigEndian.AppendUint64(buf, resp.ID)
	buf = append(buf, resp.Status)
	if resp.Found {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendI64(buf, resp.Num)
	buf = appendU32Bytes(buf, resp.Value)
	buf = appendU16Str(buf, resp.Msg)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(resp.TxResults)))
	for i := range resp.TxResults {
		r := &resp.TxResults[i]
		buf = append(buf, r.Status)
		if r.Found {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendI64(buf, r.Num)
		buf = appendU32Bytes(buf, r.Value)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// txResultSize is the encoded size of one sub-op result, as AppendResponse
// writes it.
func txResultSize(r *TxResult) int { return 1 + 1 + 8 + 4 + len(r.Value) }

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// FrameBuf is a reusable frame payload buffer. On the server each pending
// has one, and the keys and values of its read-only ops borrow from it
// until the pending is released (D48); a client connection's reader keeps
// one for the connection, and its decoder copies what it keeps.
type FrameBuf struct{ b []byte }

// maxRetainedFrame bounds the payload a FrameBuf holds on to: larger
// frames get a buffer of their own, so one multi-megabyte request does
// not stay pinned by the buffer it was read into.
const maxRetainedFrame = 64 << 10

// ReadFrame reads one frame's payload from r. With fb non-nil the payload
// of a frame up to maxRetainedFrame bytes lives in fb and is valid only
// until the next ReadFrame with the same fb; with fb nil, or for a larger
// frame, the payload is freshly allocated and the caller's to keep.
func ReadFrame(r *bufio.Reader, fb *FrameBuf) ([]byte, error) {
	// Peek hands out the reader's own buffer: no header array escapes
	// through io.ReadFull.
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	r.Discard(4) // cannot fail: the four bytes are buffered
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	var payload []byte
	if fb == nil || n > maxRetainedFrame {
		payload = make([]byte, n)
	} else {
		if n > cap(fb.b) {
			// Doubling: a connection whose frames creep upwards settles
			// after a few growths.
			fb.b = make([]byte, min(max(n, 2*cap(fb.b), 512), maxRetainedFrame))
		}
		payload = fb.b[:n]
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// cursor is a bounds-checked reader over one frame payload.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("server: truncated frame at offset %d", c.off)
	}
}

func (c *cursor) take(n int) []byte {
	if c.err != nil || c.off+n > len(c.b) {
		c.fail()
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *cursor) u8() uint8 {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (c *cursor) i64() int64 { return int64(c.u64()) }

func (c *cursor) raw16() []byte { return c.take(int(c.u16())) }

func (c *cursor) str16() string { return string(c.raw16()) }

// borrowString is b as a string without a copy. The rule for borrowed
// bytes (D48): they live in a pending's frame until the pending's
// release, so only ops that keep nothing — reads and guards, whose
// opTable effect is effectNever — get them, and nothing may hold them
// past finish.
func borrowString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func (c *cursor) raw32() []byte {
	b := c.take(4)
	if b == nil {
		return nil
	}
	return c.take(int(binary.BigEndian.Uint32(b)))
}

func (c *cursor) bytes32() []byte { return copyBytes(c.raw32()) }

// copyBytes returns a copy of b of exactly its length, nil when b is
// empty.
func copyBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("server: %d trailing bytes in frame", len(c.b)-c.off)
	}
	return nil
}

// maxInternedNames bounds a connection's structure-name table: names past
// it are decoded as fresh strings, so a client cycling through names
// cannot grow the table without limit.
const maxInternedNames = 256

// requestDecoder decodes request frames. It is the one request decoder:
// a connection keeps one with a names table, so the structure names its
// requests repeat are shared strings instead of a copy per request;
// ParseRequest runs the zero value, which shares nothing and copies
// everything. A borrowing decoder — the connection's — leaves the key and
// value of an op that cannot change the store in the frame (see
// borrowString); every op that can gets copies, and so does every name.
type requestDecoder struct {
	names  map[string]string // nil: no interning
	borrow bool
}

// keyValue decodes an op's key and value: views of the frame when the
// decoder borrows and op keeps nothing, copies otherwise. A borrowed
// value is capped at its own length, so an append reallocates rather
// than writing into the frame.
func (d *requestDecoder) keyValue(c *cursor, op uint8) (string, []byte) {
	if !d.borrow || opTable[op].effect != effectNever {
		return c.str16(), c.bytes32()
	}
	key := borrowString(c.raw16())
	if v := c.raw32(); len(v) > 0 {
		return key, v[:len(v):len(v)]
	}
	return key, nil
}

func (d *requestDecoder) name(c *cursor) string {
	raw := c.raw16()
	if s, ok := d.names[string(raw)]; ok { // no allocation: map lookup by converted key
		return s
	}
	s := string(raw)
	if d.names != nil && len(d.names) < maxInternedNames {
		d.names[s] = s
	}
	return s
}

// ParseRequest decodes one request frame payload into a fresh Request;
// see requestDecoder.parse.
func ParseRequest(frame []byte) (*Request, error) {
	req := new(Request)
	if err := new(requestDecoder).parse(frame, req, nil); err != nil {
		return nil, err
	}
	return req, nil
}

// parse decodes one request frame payload into *req, overwriting it, and
// accepts only what the op table says is legal: a top opcode, holding sub
// opcodes if it is an envelope. An envelope's op list is decoded into tx,
// reusing the capacity of the list tx already holds, and req.Tx points at
// it; with tx nil the envelope gets a Tx of its own.
func (d *requestDecoder) parse(frame []byte, req *Request, tx *Tx) error {
	c := cursor{b: frame}
	*req = Request{
		ID: c.u64(),
		Op: c.u8(),
	}
	req.Name = d.name(&c)
	req.Key, req.Value = d.keyValue(&c, req.Op)
	req.Delta = c.i64()
	if req.Op == opRemovedCheckout && c.err == nil {
		// Before the trailing-bytes check: an old client's frame still
		// carries the checkout body, and the caller should hear the reason.
		return fmt.Errorf("server: %w", errOpRemoved)
	}
	if req.Op == OpTx {
		n := int(c.u16())
		// One allocation for the whole op list; the count is untrusted, so
		// it is clamped to what the rest of the frame could hold.
		const minTxOpBytes = 1 + 2 + 2 + 4 + 8
		if tx == nil {
			tx = new(Tx)
		}
		if want := min(n, (len(frame)-c.off)/minTxOpBytes); cap(tx.Ops) < want {
			tx.Ops = make([]TxOp, 0, want)
		} else {
			tx.Ops = tx.Ops[:0]
		}
		for i := 0; i < n && c.err == nil; i++ {
			op := TxOp{Op: c.u8(), Name: d.name(&c)}
			op.Key, op.Value = d.keyValue(&c, op.Op)
			op.Delta = c.i64()
			tx.Ops = append(tx.Ops, op)
		}
		req.Tx = tx
	}
	if req.Op == OpHello {
		req.Hello = &Hello{
			Version:        c.u16(),
			Features:       c.u64(),
			MaxStalenessMs: c.u32(),
		}
	}
	if req.Op == OpReplSubscribe {
		req.Sub = &ReplSubscribe{
			Shard:   c.u16(),
			FromLSN: c.u64(),
		}
	}
	if err := c.done(); err != nil {
		return err
	}
	if !opTable[req.Op].top {
		return fmt.Errorf("server: unknown opcode %d", req.Op)
	}
	if req.Op == OpTx {
		for i := range req.Tx.Ops {
			if !opTable[req.Tx.Ops[i].Op].sub {
				return fmt.Errorf("server: op %d: invalid sub-opcode %d", i, req.Tx.Ops[i].Op)
			}
		}
	}
	return nil
}

// opRemovedCheckout is the number OpCheckout held. A frame carrying it is
// refused by name rather than as an unknown opcode: to a client it says
// what to send instead, and in a WAL record (logs from before the
// envelope era hold them) it fails the boot — see decodeBatch.
const opRemovedCheckout = 11

var errOpRemoved = errors.New("opcode 11 (OpCheckout) was removed: send the OpTx envelope CheckoutTx builds")

// CheckoutTx renders a checkout as its OpTx envelope: per order line an
// OpAssertGE stock guard followed by the OpMapAdd decrement, then the
// counter credits. client.Checkout sends exactly this.
func CheckoutTx(stockMap string, co *Checkout) (*Tx, error) {
	tx := &Tx{Ops: make([]TxOp, 0, 2*len(co.Lines)+2)}
	var units int64
	for _, ln := range co.Lines {
		if ln.Qty <= 0 {
			// A non-positive quantity would mint stock (have − qty grows)
			// and credit negative units; it is a malformed request.
			return nil, fmt.Errorf("server: checkout line %q: quantity %d must be positive", ln.SKU, ln.Qty)
		}
		tx.Ops = append(tx.Ops,
			TxOp{Op: OpAssertGE, Name: stockMap, Key: ln.SKU, Delta: ln.Qty},
			TxOp{Op: OpMapAdd, Name: stockMap, Key: ln.SKU, Delta: -ln.Qty})
		units += ln.Qty
	}
	if co.Sold != "" {
		tx.Ops = append(tx.Ops, TxOp{Op: OpCounterAdd, Name: co.Sold, Delta: units})
	}
	if co.Revenue != "" {
		tx.Ops = append(tx.Ops, TxOp{Op: OpCounterAdd, Name: co.Revenue, Delta: co.Cents})
	}
	return tx, nil
}

// ParseResponse decodes one response frame payload into a fresh
// Response; see DecodeResponse.
func ParseResponse(frame []byte) (*Response, error) {
	resp := new(Response)
	if err := DecodeResponse(frame, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// DecodeResponse decodes one response frame payload into *resp,
// overwriting it, and rejects status bytes no server produces: at top
// level anything but the four live statuses (the reserved 4 included),
// per sub-op result anything past StatusRejected (0 is legal there: the
// op never executed). It copies what it keeps, values and results list
// alike, into memory no later decode writes (fresh slices here; the tails
// of a ReplySlab's slabs with ReplySlab.DecodeResponse): a caller may hand
// the decoded value on and decode the next frame into the same Response.
func DecodeResponse(frame []byte, resp *Response) error {
	return decodeResponse(frame, resp, nil)
}

// ReplySlab holds the append-only arenas one connection's reader decodes
// into: a Value of up to 512 bytes is copied into the tail of an 8 KiB
// byte slab, and an envelope's results list of up to 16 slots is carved
// from a 128-slot result slab, instead of each into an allocation of its
// own. A full slab is replaced, never rewritten, so nothing handed out
// changes, and a caller that keeps a value or a results list pins at
// most one slab. The zero value is ready to use.
type ReplySlab struct {
	b  []byte
	rs resultSlab
}

const (
	replySlabSize = 8 << 10
	maxSlabValue  = 512
)

// DecodeResponse is the package's DecodeResponse with every value of up
// to 512 bytes, and every results list of up to 16 slots, carved from s.
func (s *ReplySlab) DecodeResponse(frame []byte, resp *Response) error {
	return decodeResponse(frame, resp, s)
}

func decodeResponse(frame []byte, resp *Response, s *ReplySlab) error {
	c := &cursor{b: frame}
	*resp = Response{
		ID:     c.u64(),
		Status: c.u8(),
		Found:  c.u8() == 1,
		Num:    c.i64(),
		Value:  s.carve(c.raw32()),
		Msg:    c.str16(),
	}
	if n := int(c.u16()); n > 0 && c.err == nil {
		resp.TxResults = s.results(min(n, 1024))
		for i := 0; i < n && c.err == nil; i++ {
			resp.TxResults = append(resp.TxResults, TxResult{
				Status: c.u8(),
				Found:  c.u8() == 1,
				Num:    c.i64(),
				Value:  s.carve(c.raw32()),
			})
		}
	}
	if err := c.done(); err != nil {
		return err
	}
	if resp.Status == 0 || resp.Status == statusRemovedCrossShard || resp.Status > StatusNotPrimary {
		return fmt.Errorf("server: unknown status %d", resp.Status)
	}
	for i := range resp.TxResults {
		if st := resp.TxResults[i].Status; st > StatusRejected {
			return fmt.Errorf("server: op %d: unknown result status %d", i, st)
		}
	}
	return nil
}

// carve returns a copy of raw (nil when empty): in the slab's tail,
// capped at its own length so an append reallocates, when raw is small
// and s is not nil; in an allocation of its own otherwise.
func (s *ReplySlab) carve(raw []byte) []byte {
	if s == nil || len(raw) == 0 || len(raw) > maxSlabValue {
		return copyBytes(raw)
	}
	if len(raw) > cap(s.b)-len(s.b) {
		s.b = make([]byte, 0, replySlabSize)
	}
	at := len(s.b)
	s.b = append(s.b, raw...)
	return s.b[at:len(s.b):len(s.b)]
}

// results returns an empty results list with room for n: carved from
// s's result slab when s is not nil, a fresh slice otherwise.
func (s *ReplySlab) results(n int) []TxResult {
	if s == nil {
		return make([]TxResult, 0, n)
	}
	return s.rs.carve(n)[:0]
}

// resultSlab is an append-only arena of envelope result slots, the
// server's batch and the client's reader each keeping one: a list of up
// to maxSlabResults slots is carved, zeroed and capped at its length,
// from the tail of a resultSlabSlots-slot slab, and a full slab is
// replaced, never rewritten, so a list handed on — a Response copy the
// connection's writer encodes later, a call's reply — never changes under
// its holder. A longer list gets an allocation of its own. A slot keeps
// its value alive as long as the slab lives, so the last holder of a
// delivered list clears it when done: the server's connection writer once
// it has encoded the reply, the client's call once it has copied the
// results out. A list dropped unsent (a request that failed, a batch
// whose WAL write failed) is not cleared, and keeps its values until its
// slab is collected. The zero value is ready to use.
type resultSlab struct{ s []TxResult }

const (
	resultSlabSlots = 128 // 5 KiB
	maxSlabResults  = 16
)

func (s *resultSlab) carve(n int) []TxResult {
	if n > maxSlabResults {
		return make([]TxResult, n)
	}
	if n > cap(s.s)-len(s.s) {
		s.s = make([]TxResult, 0, resultSlabSlots)
	}
	at := len(s.s)
	s.s = s.s[:at+n]
	return s.s[at : at+n : at+n]
}
