// Package client is the Go client for pnstmd: a pool of pipelined
// connections speaking the server's length-prefixed binary protocol,
// with typed helpers for the named structures (maps, queues, counters)
// and a fluent transaction builder (Txn) composing arbitrary atomic
// multi-structure operations — guards included — over the generic wire
// envelope. Checkout is one such composition, kept as a convenience.
//
// Connect is the construction path: it dials every address in
// Options.Addrs, handshakes each connection (a versioned Hello with
// feature bits; a peer that does not answer it fails Connect), and
// learns which endpoints are primaries and which are read replicas.
// Writes always go to a primary; read-only operations are routed by
// Options.ReadPreference, within the Options.MaxStaleness bound the
// handshake declares — a replica that cannot meet the bound answers
// StatusNotPrimary and the client falls back or surfaces ErrNotPrimary.
//
// A Client is safe for concurrent use; that is the intended shape.
// Every in-flight request from every goroutine rides one of the pooled
// connections and is matched to its response by id, so N concurrent
// callers pipeline naturally — and on the server side, concurrent
// requests are what the group-commit batcher coalesces into one root
// transaction with a parallel nested child per request.
//
// Sharding is transparent to the client: a pnstmd running with -shards
// routes each request to its structure's shard server-side, answers
// counter reads with the cross-shard total, and responses still match
// by id whatever shard they committed on. Stats() exposes the
// per-shard breakdown via ServerStats.PerShard.
//
// Returned bytes are the caller's and never change, but they may share
// memory. A reply value of up to 512 bytes (a MapGet value, a QueuePop
// payload, TxResults.Bytes) is carved from its connection's 8 KiB reply
// slab, so keeping one pins at most that slab; copy a small value that is
// kept for long. An Entry's bytes belong to the scan result it came from
// (see TxResults.Entries).
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pnstm/server"
)

// ReadPreference selects where read-only operations execute.
type ReadPreference int

const (
	// ReadPrimary (the default) serves reads from a primary — the
	// strongest freshness; replicas are used only when the pool holds no
	// primary at all.
	ReadPrimary ReadPreference = iota
	// ReadPreferReplica serves reads from a replica when one is pooled,
	// falling back to a primary when none is (or when the replica
	// refuses for staleness).
	ReadPreferReplica
	// ReadReplicaRequired serves reads ONLY from replicas — reads fail
	// rather than load the primary (capacity isolation).
	ReadReplicaRequired
)

// ErrNotPrimary is wrapped into errors for operations a replica refused
// with a redirect (mutations on a replica, or reads beyond the
// connection's staleness bound). The error text names the primary.
// Test with errors.Is.
var ErrNotPrimary = errors.New("not the primary")

// Options configures Connect.
type Options struct {
	// Addrs lists every endpoint — primaries and replicas in any order;
	// roles are discovered by the handshake, not declared here.
	Addrs []string

	// PoolSize is the number of connections dialed PER address
	// (default 1). More connections help when a single TCP stream's
	// serialization becomes the bottleneck; requests spread round-robin.
	PoolSize int

	// ReadPreference routes read-only operations (see the constants).
	ReadPreference ReadPreference

	// MaxStaleness, when positive, is the read-staleness bound declared
	// to every replica connection: a replica whose replication watermark
	// is older refuses reads with a redirect instead of serving stale
	// state. Zero: any replica staleness is acceptable.
	MaxStaleness time.Duration

	// Timeout bounds each connection attempt (default 5s).
	Timeout time.Duration
}

// Client is a pooled, pipelined pnstmd client with read-preference
// routing across primaries and replicas.
type Client struct {
	pref      ReadPreference
	conns     []*conn // every pooled connection (Close)
	primaries []*conn
	replicas  []*conn
	nextP     atomic.Uint64
	nextR     atomic.Uint64
}

// conn is one pooled connection with an id-demultiplexed reader.
type conn struct {
	nc net.Conn

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	mu      sync.Mutex
	pending map[uint64]chan server.Response
	err     error
	closed  chan struct{}

	nextID atomic.Uint64
}

// replyChans recycles the one-slot channels calls wait on. A reply
// travels through the channel by value: the reader decodes every frame
// into one Response of its own and sends a copy, which the receiving call
// copies into its caller's Response. The reader sends on a call's channel
// at most once, after taking it out of the pending table; a channel goes
// back to the pool only from the call that received that send, when
// nobody else can still hold it. A call that gives up because the
// connection failed drops its channel instead — the reader may have taken
// it out of the table and not sent yet.
var replyChans = sync.Pool{New: func() any { return make(chan server.Response, 1) }}

// Connect dials PoolSize connections to every address, handshakes each
// one, and returns the routing pool. Any address failing to dial or
// handshake fails the whole Connect (no silently degraded pools).
func Connect(opts Options) (*Client, error) {
	if len(opts.Addrs) == 0 {
		return nil, fmt.Errorf("client: Connect needs at least one address in Options.Addrs")
	}
	pool := opts.PoolSize
	if pool <= 0 {
		pool = 1
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	cl := &Client{pref: opts.ReadPreference}
	for _, addr := range opts.Addrs {
		for i := 0; i < pool; i++ {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				cl.Close()
				return nil, fmt.Errorf("client: dial %s: %w", addr, err)
			}
			c := &conn{
				nc:      nc,
				bw:      bufio.NewWriter(nc),
				pending: make(map[uint64]chan server.Response),
				closed:  make(chan struct{}),
			}
			go c.readLoop()
			info, err := handshake(c, opts.MaxStaleness)
			if err != nil {
				cl.Close()
				c.nc.Close()
				return nil, fmt.Errorf("client: handshake %s: %w", addr, err)
			}
			cl.conns = append(cl.conns, c)
			if info.Role == server.RoleReplica {
				cl.replicas = append(cl.replicas, c)
			} else {
				cl.primaries = append(cl.primaries, c)
			}
		}
	}
	return cl, nil
}

// handshake sends the versioned Hello on one connection, declaring the
// read-staleness bound the server will enforce for that connection's
// reads. Every pnstmd answers it (D40), so a refusal is an error like
// a transport failure: the peer is not a server this client can route.
func handshake(c *conn, maxStaleness time.Duration) (*server.HelloInfo, error) {
	hello := &server.Hello{Version: server.ProtoVersion}
	if maxStaleness > 0 {
		hello.MaxStalenessMs = uint32(maxStaleness.Milliseconds())
	}
	var resp server.Response
	if err := c.do(&server.Request{Op: server.OpHello, Hello: hello}, &resp); err != nil {
		return nil, err
	}
	return server.ParseHelloInfo(resp.Value)
}

// Close tears down every pooled connection; in-flight calls fail.
func (cl *Client) Close() {
	for _, c := range cl.conns {
		c.fail(fmt.Errorf("client: closed"))
		c.nc.Close()
	}
}

// pickWrite returns the connection mutations ride: a primary when the
// pool has one, otherwise any connection — the server is authoritative
// (a promoted replica accepts; an un-promoted one answers
// StatusNotPrimary, surfaced as ErrNotPrimary).
func (cl *Client) pickWrite() *conn {
	if len(cl.primaries) > 0 {
		return cl.primaries[cl.nextP.Add(1)%uint64(len(cl.primaries))]
	}
	return cl.conns[cl.nextP.Add(1)%uint64(len(cl.conns))]
}

// pickReplica returns the next replica connection, nil when none.
func (cl *Client) pickReplica() *conn {
	if len(cl.replicas) == 0 {
		return nil
	}
	return cl.replicas[cl.nextR.Add(1)%uint64(len(cl.replicas))]
}

// readLoop demultiplexes responses to their waiting callers.
func (c *conn) readLoop() {
	br := bufio.NewReader(c.nc)
	var fb server.FrameBuf    // nothing decoded points into it, so frames share one buffer
	var slab server.ReplySlab // where small reply values are copied to
	var resp server.Response  // every frame is decoded here; each call gets a copy
	for {
		frame, err := server.ReadFrame(br, &fb)
		if err != nil {
			c.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		if err := slab.DecodeResponse(frame, &resp); err != nil {
			c.fail(err)
			c.nc.Close()
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch == nil {
			// Every response must answer a registered request (ids are
			// assigned before the frame is written). An unmatched id —
			// e.g. the server could not recover the id from a corrupt
			// request — means the stream contract is broken: fail the
			// connection so every waiter errors out instead of one of
			// them hanging forever.
			c.fail(fmt.Errorf("client: unmatched response id %d, closing connection", resp.ID))
			c.nc.Close()
			return
		}
		ch <- resp
	}
}

// fail marks the connection broken and releases every waiter. Idempotent.
func (c *conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.closed)
	}
	c.pending = make(map[uint64]chan server.Response)
	c.mu.Unlock()
}

// do sends req on this connection and waits for its reply, which it
// decodes into *resp. A StatusErr or StatusNotPrimary reply comes back as
// an error with *resp filled in; *resp is left alone when the call fails
// before a reply arrives.
func (c *conn) do(req *server.Request, resp *server.Response) error {
	req.ID = c.nextID.Add(1)

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	ch := replyChans.Get().(chan server.Response)
	c.pending[req.ID] = ch
	c.mu.Unlock()

	// Encode straight into the writer's free space: a request that fits
	// there (the buffer is empty after every flush) costs no buffer of
	// its own, a larger one gets a temporary from append.
	c.wmu.Lock()
	buf, err := server.AppendRequest(c.bw.AvailableBuffer(), req)
	if err != nil {
		// Unencodable request: fail just this call, not the connection.
		c.wmu.Unlock()
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return err
	}
	_, err = c.bw.Write(buf)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("client: write: %w", err))
		return err
	}

	select {
	case *resp = <-ch:
		replyChans.Put(ch)
		switch resp.Status {
		case server.StatusErr:
			return fmt.Errorf("client: server error: %s", resp.Msg)
		case server.StatusNotPrimary:
			return fmt.Errorf("client: %s: %w", resp.Msg, ErrNotPrimary)
		}
		return nil
	case <-c.closed:
		return c.connErr()
	}
}

// roundTrip routes a mutating (or primary-affine) request.
func (cl *Client) roundTrip(req *server.Request, resp *server.Response) error {
	return cl.pickWrite().do(req, resp)
}

// roundTripRead routes a read-only request by the pool's read
// preference. A replica's refusal (staleness, promotion races) or
// connection failure falls back to a primary except under
// ReadReplicaRequired, where replicas are the only legal target.
func (cl *Client) roundTripRead(req *server.Request, resp *server.Response) error {
	switch cl.pref {
	case ReadReplicaRequired:
		c := cl.pickReplica()
		if c == nil {
			return fmt.Errorf("client: ReadReplicaRequired but the pool has no replica connection: %w", ErrNotPrimary)
		}
		return c.do(req, resp)
	case ReadPreferReplica:
		if c := cl.pickReplica(); c != nil {
			err := c.do(req, resp)
			if err == nil || len(cl.primaries) == 0 {
				return err
			}
			// Stale or broken replica: retry once on a primary (fresh id),
			// with nothing of the replica's refusal left in resp.
			*resp = server.Response{}
			return cl.primaries[cl.nextP.Add(1)%uint64(len(cl.primaries))].do(req, resp)
		}
		return cl.pickWrite().do(req, resp)
	default: // ReadPrimary
		return cl.pickWrite().do(req, resp)
	}
}

func (c *conn) connErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// ---------------------------------------------------------------------------
// Typed helpers
// ---------------------------------------------------------------------------

// Ping round-trips a no-op (liveness, warmup) on a write-path
// connection.
func (cl *Client) Ping() error {
	var resp server.Response
	return cl.roundTrip(&server.Request{Op: server.OpPing}, &resp)
}

// MapGet reads key from the named map.
func (cl *Client) MapGet(name, key string) ([]byte, bool, error) {
	var resp server.Response
	if err := cl.roundTripRead(&server.Request{Op: server.OpMapGet, Name: name, Key: key}, &resp); err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// MapPut stores value under key in the named map.
func (cl *Client) MapPut(name, key string, value []byte) error {
	var resp server.Response
	return cl.roundTrip(&server.Request{Op: server.OpMapPut, Name: name, Key: key, Value: value}, &resp)
}

// MapDelete removes key; reports whether it was present.
func (cl *Client) MapDelete(name, key string) (bool, error) {
	var resp server.Response
	if err := cl.roundTrip(&server.Request{Op: server.OpMapDelete, Name: name, Key: key}, &resp); err != nil {
		return false, err
	}
	return resp.Found, nil
}

// MapLen returns the named map's entry count.
func (cl *Client) MapLen(name string) (int64, error) {
	var resp server.Response
	if err := cl.roundTripRead(&server.Request{Op: server.OpMapLen, Name: name}, &resp); err != nil {
		return 0, err
	}
	return resp.Num, nil
}

// MapPutInt stores an integer value (the encoding MapAddInt and the
// integer guards understand).
func (cl *Client) MapPutInt(name, key string, v int64) error {
	return cl.MapPut(name, key, server.EncodeInt64(v))
}

// MapGetInt reads an integer value stored with MapPutInt.
func (cl *Client) MapGetInt(name, key string) (int64, bool, error) {
	raw, ok, err := cl.MapGet(name, key)
	if err != nil || !ok {
		return 0, ok, err
	}
	v, err := server.DecodeInt64(raw)
	if err != nil {
		return 0, true, err
	}
	return v, true, nil
}

// QueuePush appends value to the named queue.
func (cl *Client) QueuePush(name string, value []byte) error {
	var resp server.Response
	return cl.roundTrip(&server.Request{Op: server.OpQueuePush, Name: name, Value: value}, &resp)
}

// QueuePop removes and returns the named queue's front element.
func (cl *Client) QueuePop(name string) ([]byte, bool, error) {
	var resp server.Response
	if err := cl.roundTrip(&server.Request{Op: server.OpQueuePop, Name: name}, &resp); err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// QueueLen returns the named queue's length.
func (cl *Client) QueueLen(name string) (int64, error) {
	var resp server.Response
	if err := cl.roundTripRead(&server.Request{Op: server.OpQueueLen, Name: name}, &resp); err != nil {
		return 0, err
	}
	return resp.Num, nil
}

// CounterAdd adds delta to the named counter.
func (cl *Client) CounterAdd(name string, delta int64) error {
	var resp server.Response
	return cl.roundTrip(&server.Request{Op: server.OpCounterAdd, Name: name, Delta: delta}, &resp)
}

// CounterSum reads the named counter.
func (cl *Client) CounterSum(name string) (int64, error) {
	var resp server.Response
	if err := cl.roundTripRead(&server.Request{Op: server.OpCounterSum, Name: name}, &resp); err != nil {
		return 0, err
	}
	return resp.Num, nil
}

// SortedPut stores value under key in the named sorted map.
func (cl *Client) SortedPut(name, key string, value []byte) error {
	_, err := cl.do1(server.TxOp{Op: server.OpSortedPut, Name: name, Key: key, Value: value})
	return err
}

// SortedPutTTL stores value under key in the named sorted map, expiring
// at deadline (UnixNano); deadline <= 0 stores without a deadline.
func (cl *Client) SortedPutTTL(name, key string, value []byte, deadline int64) error {
	_, err := cl.do1(server.TxOp{Op: server.OpSortedPutTTL, Name: name, Key: key, Value: value, Delta: deadline})
	return err
}

// SortedGet reads key from the named sorted map (expired entries read
// as absent).
func (cl *Client) SortedGet(name, key string) ([]byte, bool, error) {
	res, err := cl.do1(server.TxOp{Op: server.OpSortedGet, Name: name, Key: key})
	if err != nil {
		return nil, false, err
	}
	return res.Value, res.Found, nil
}

// SortedDelete removes key from the named sorted map; reports whether
// it was present.
func (cl *Client) SortedDelete(name, key string) (bool, error) {
	res, err := cl.do1(server.TxOp{Op: server.OpSortedDelete, Name: name, Key: key})
	if err != nil {
		return false, err
	}
	return res.Found, nil
}

// RangeScan reads the live entries of [lo, hi) from the named sorted
// map in key order, at most limit entries (0: server cap; hi == ""
// scans to the end of the key space).
func (cl *Client) RangeScan(name, lo, hi string, limit int) ([]Entry, error) {
	res, err := cl.do1(server.TxOp{Op: server.OpRangeScan, Name: name, Key: lo, Value: hiBound(hi), Delta: int64(limit)})
	if err != nil {
		return nil, err
	}
	return entries(res)
}

// RangeCount counts the live entries of [lo, hi) in the named sorted
// map (hi == "" counts to the end).
func (cl *Client) RangeCount(name, lo, hi string) (int64, error) {
	res, err := cl.do1(server.TxOp{Op: server.OpRangeCount, Name: name, Key: lo, Value: hiBound(hi)})
	if err != nil {
		return 0, err
	}
	return res.Num, nil
}

// MapPutTTL stores value under key in the named map, expiring at
// deadline (UnixNano); deadline <= 0 stores without a deadline.
func (cl *Client) MapPutTTL(name, key string, value []byte, deadline int64) error {
	_, err := cl.do1(server.TxOp{Op: server.OpMapPutTTL, Name: name, Key: key, Value: value, Delta: deadline})
	return err
}

// LeaseConsume pops one element from the named queue under a lease
// expiring at deadline (at-least-once delivery: an unacked lease is
// requeued by the server's reaper after the deadline). ok is false when
// the queue had nothing to lease.
func (cl *Client) LeaseConsume(name string, deadline int64) (id uint64, value []byte, ok bool, err error) {
	res, err := cl.do1(server.TxOp{Op: server.OpLeaseConsume, Name: name, Delta: deadline})
	if err != nil {
		return 0, nil, false, err
	}
	return uint64(res.Num), res.Value, res.Found, nil
}

// LeaseAck retires lease id. ok is false — with nil error — when the
// lease no longer existed (its deadline passed and the element was
// reclaimed for redelivery): the work will run again, which is the
// at-least-once contract. To bundle the ack atomically with its side
// effects, build a Txn with LeaseAck and the other ops instead.
func (cl *Client) LeaseAck(name string, id uint64) (bool, error) {
	_, err := cl.do1(server.TxOp{Op: server.OpLeaseAck, Name: name, Delta: int64(id)})
	if _, aborted := err.(*ErrTxAborted); aborted { // bare, see envelope
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// LeaseNack returns lease id's element to the queue tail immediately.
func (cl *Client) LeaseNack(name string, id uint64) (bool, error) {
	res, err := cl.do1(server.TxOp{Op: server.OpLeaseNack, Name: name, Delta: int64(id)})
	if err != nil {
		return false, err
	}
	return res.Found, nil
}

// Checkout atomically decrements every line's stock in the named map and
// credits the checkout's counters. ok is false — with nil error — when
// the server rejected the order for insufficient stock (the whole
// checkout rolled back; failedSKU names the first short line).
//
// Checkout is a convenience over the generic transaction path: it
// submits the envelope server.CheckoutTx builds (per line an AssertGE
// stock guard then a MapAdd decrement, ops 2i and 2i+1, then the counter
// credits).
func (cl *Client) Checkout(stockMap string, co server.Checkout) (ok bool, failedSKU string, err error) {
	built, err := server.CheckoutTx(stockMap, &co)
	if err != nil {
		return false, "", err
	}
	tx := cl.Txn()
	tx.ops = built.Ops
	_, err = tx.Commit()
	if aborted, ok := err.(*ErrTxAborted); ok { // bare, see envelope
		// Guards sit at the even indices, one per order line.
		if i := aborted.FailedOpIndex / 2; i < len(co.Lines) {
			return false, co.Lines[i].SKU, nil
		}
		return false, "", nil
	}
	if err != nil {
		return false, "", err
	}
	return true, "", nil
}

// Stats fetches the server's activity snapshot (primary-affine: the
// figures describe one process, and the primary's are the ones the
// benchmarks and verifiers reason about).
func (cl *Client) Stats() (server.ServerStats, error) {
	var st server.ServerStats
	var resp server.Response
	if err := cl.roundTrip(&server.Request{Op: server.OpStats}, &resp); err != nil {
		return st, err
	}
	if err := json.Unmarshal(resp.Value, &st); err != nil {
		return st, fmt.Errorf("client: decode stats: %w", err)
	}
	return st, nil
}
