package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pnstm"
	"pnstm/stmlib"
)

// WAL-shipping replica (D39, D41–D42). A replica is an in-memory server
// whose per-shard stores are driven not by client mutations but by the
// primary's WAL streams: one tailing connection per shard subscribes
// from applied+1, applies every record on the shard's loop, between two
// read batches, the way recovery replays one (shard.applyShipped: a batch
// record runs as a batch, planned like a live one, D58), and tracks a staleness watermark (applied LSN vs. the
// primary's head, freshness-stamped by heartbeats). Read-only envelopes
// are served from local state off the normal group-commit read path —
// multiplying the primary's read capacity, which is the point — while
// mutations are refused with StatusNotPrimary naming the primary.
// Promote() flips the replica into an ordinary (in-memory) primary for
// fast failover.

const (
	replDialTimeout    = 5 * time.Second
	replBackoffFloor   = 100 * time.Millisecond
	replBackoffCeiling = 3 * time.Second
)

// replicator owns the per-shard tailing loops of a replica server.
type replicator struct {
	s       *Server
	primary string

	promoted atomic.Bool

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	shards []*shardRepl
}

// shardRepl is one shard's replication cursor and health.
type shardRepl struct {
	mu        sync.Mutex
	connected bool
	applied   uint64 // last LSN replayed into the local store
	head      uint64 // primary's durable tail, as last reported
	caughtAt  time.Time
	// caughtAt is the last instant applied >= head held with the stream
	// live — the zero of the staleness clock. Zero value: never caught
	// up, staleness unknown.
	lastErr string
	// forceResync wipes the local shard and resyncs from scratch on the
	// next connection — set when replay diverged (the local state can no
	// longer be trusted to extend).
	forceResync bool
}

func newReplicator(s *Server, primary string) *replicator {
	r := &replicator{
		s:       s,
		primary: primary,
		stopCh:  make(chan struct{}),
		shards:  make([]*shardRepl, len(s.shards)),
	}
	for i := range r.shards {
		r.shards[i] = &shardRepl{}
	}
	for i := range s.shards {
		r.wg.Add(1)
		go r.run(i)
	}
	return r
}

// stop halts every tailing loop and waits them out. Idempotent.
func (r *replicator) stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
}

func (r *replicator) stopped() bool {
	select {
	case <-r.stopCh:
		return true
	default:
		return false
	}
}

// run is one shard's reconnect loop: stream until the connection or the
// primary fails, back off exponentially (floor on every success so a
// long-lived stream's eventual drop retries fast), repeat until stop.
func (r *replicator) run(i int) {
	defer r.wg.Done()
	backoff := replBackoffFloor
	for {
		if r.stopped() {
			return
		}
		err := r.stream(i)
		if r.stopped() {
			return
		}
		sr := r.shards[i]
		sr.mu.Lock()
		if err != nil {
			sr.lastErr = err.Error()
		}
		sr.mu.Unlock()
		if err != nil {
			r.s.log.Warn("replication stream failed; reconnecting", "shard", i, "primary", r.primary, "backoff", backoff, "err", err)
		}
		select {
		case <-time.After(backoff):
		case <-r.stopCh:
			return
		}
		if backoff *= 2; backoff > replBackoffCeiling {
			backoff = replBackoffCeiling
		}
	}
}

// stream runs one connection's life: dial, handshake, subscribe from
// applied+1, then apply frames until the stream breaks.
func (r *replicator) stream(i int) error {
	sr := r.shards[i]
	d := net.Dialer{Timeout: replDialTimeout}
	nc, err := d.Dial("tcp", r.primary)
	if err != nil {
		return err
	}
	defer nc.Close()
	// Watchdog: stop must unblock a read parked on an idle stream.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-r.stopCh:
			nc.Close()
		case <-watchDone:
		}
	}()

	bw := bufio.NewWriter(nc)
	br := bufio.NewReader(nc)
	send := func(req *Request) error {
		buf, err := AppendRequest(nil, req)
		if err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		return bw.Flush()
	}
	recv := func() (*Response, error) {
		// A fresh payload per frame: the stream's frames are large and
		// this path is not worth proving alias-free.
		frame, err := ReadFrame(br, nil)
		if err != nil {
			return nil, err
		}
		return ParseResponse(frame)
	}

	// Handshake: the primary must speak the replication protocol, be an
	// actual primary, and run the same shard count (structure routing is
	// a function of the count; a mismatched replica would file records
	// under the wrong shards).
	if err := send(&Request{ID: 1, Op: OpHello, Hello: &Hello{Version: ProtoVersion, Features: FeatureCrossShard | FeatureReplStream}}); err != nil {
		return err
	}
	resp, err := recv()
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("primary %s rejected the handshake (%s) — a build without replication support?", r.primary, resp.Msg)
	}
	info, err := ParseHelloInfo(resp.Value)
	if err != nil {
		return err
	}
	if info.Features&FeatureReplStream == 0 {
		return fmt.Errorf("primary %s serves no replication stream (running without a data directory?)", r.primary)
	}
	if info.Role != RolePrimary {
		return fmt.Errorf("%s is itself a replica (of %s); replicate from the primary", r.primary, info.Primary)
	}
	if int(info.Shards) != len(r.s.shards) {
		return fmt.Errorf("shard count mismatch: primary %s runs %d shards, this replica runs %d", r.primary, info.Shards, len(r.s.shards))
	}

	sr.mu.Lock()
	resync := sr.forceResync
	sr.forceResync = false
	if resync {
		sr.applied = 0
	}
	from := sr.applied + 1
	sr.mu.Unlock()
	if resync {
		if err := r.installImage(i, nil, 0, 0); err != nil {
			return err
		}
	}

	if err := send(&Request{ID: 2, Op: OpReplSubscribe, Sub: &ReplSubscribe{Shard: uint16(i), FromLSN: from}}); err != nil {
		return err
	}
	sr.mu.Lock()
	sr.connected = true
	sr.lastErr = ""
	sr.mu.Unlock()
	defer func() {
		sr.mu.Lock()
		sr.connected = false
		sr.mu.Unlock()
	}()

	var snapBuf, recBuf []byte
	for {
		resp, err := recv()
		if err != nil {
			return err
		}
		if resp.Status != StatusOK {
			return fmt.Errorf("stream error from %s: %s", r.primary, resp.Msg)
		}
		f, err := parseReplFrame(resp.Value)
		if err != nil {
			return err
		}
		switch f.Kind {
		case replFrameHeartbeat:
			r.observe(i, 0, f.HeadLSN, false)
		case replFrameSnapshot:
			snapBuf = append(snapBuf, f.Chunk...)
			if !f.Last {
				continue
			}
			img, watermark, err := decodeImage(snapBuf)
			snapBuf = nil
			if err != nil {
				return fmt.Errorf("snapshot from %s: %w", r.primary, err)
			}
			if err := r.installImage(i, img, watermark, f.LSN); err != nil {
				return err
			}
			r.observe(i, f.LSN, f.LSN, true)
		case replFrameRecord:
			recBuf = append(recBuf, f.Chunk...)
			if !f.Last {
				continue
			}
			body := recBuf
			recBuf = nil
			if err := r.s.shards[i].applyShipped(body); err != nil {
				// Replay diverged: local state can no longer be trusted to
				// extend. Wipe and resync from scratch on the next connect.
				sr.mu.Lock()
				sr.forceResync = true
				sr.mu.Unlock()
				return fmt.Errorf("apply lsn %d: %w", f.LSN, err)
			}
			r.observe(i, f.LSN, f.HeadLSN, true)
		}
	}
}

// observe folds a frame's progress into the shard's watermark. applied
// is taken only when setApplied (heartbeats carry none).
func (r *replicator) observe(i int, applied, head uint64, setApplied bool) {
	sr := r.shards[i]
	sr.mu.Lock()
	if setApplied && applied > sr.applied {
		sr.applied = applied
	}
	if head > sr.head {
		sr.head = head
	}
	if sr.applied >= sr.head {
		sr.caughtAt = time.Now()
	}
	sr.mu.Unlock()
}

// installImage swaps shard i's store for a fresh registry loaded with
// img (nil: empty — the divergence wipe). The fill happens on a private
// registry outside the loop; only the pointer swap is a task on it, so
// reads stall for microseconds, not for the import.
func (r *replicator) installImage(i int, img *stmlib.RegistryImage, watermark, covered uint64) error {
	sh := r.s.shards[i]
	fresh := stmlib.NewRegistry(r.s.cfg.Load().Registry)
	if img != nil {
		if err := sh.rt.Run(func(c *pnstm.Ctx) { fresh.Import(c, img) }); err != nil {
			return fmt.Errorf("install snapshot: %w", err)
		}
	}
	if err := sh.do(func() error {
		sh.reg = fresh
		sh.maxGSN.Store(watermark)
		return nil
	}); err != nil {
		return err
	}
	sr := r.shards[i]
	sr.mu.Lock()
	sr.applied = covered
	sr.mu.Unlock()
	return nil
}

// shardStaleness is shard i's watermark age: how old the served state
// might be. 0-ish while caught up with live heartbeats; growing once
// the stream lags or drops; unknown (ok=false) before the first catch-
// up. The clock anchors at caughtAt, so a replica that WAS current and
// lost its primary reports honestly growing staleness.
func (r *replicator) shardStaleness(i int) (time.Duration, bool) {
	sr := r.shards[i]
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.caughtAt.IsZero() {
		return 0, false
	}
	return time.Since(sr.caughtAt), true
}

// staleness is the server-wide watermark: the max across shards,
// unknown until every shard has caught up once.
func (r *replicator) staleness() (time.Duration, bool) {
	var worst time.Duration
	for i := range r.shards {
		st, ok := r.shardStaleness(i)
		if !ok {
			return 0, false
		}
		if st > worst {
			worst = st
		}
	}
	return worst, true
}

// isReplica reports whether the server currently refuses mutations —
// a -replica-of server that has not been promoted.
func (s *Server) isReplica() bool {
	return s.repl != nil && !s.repl.promoted.Load()
}

// replicaGate screens one parsed request on a replica: mutations are
// redirected with StatusNotPrimary, and reads are refused the same way
// when the connection's Hello declared a staleness bound the replica
// cannot currently meet. Control-plane ops always pass.
func (s *Server) replicaGate(req *Request, bound time.Duration) (Response, bool) {
	if req.Op != OpTx && opTable[req.Op].kind == 0 {
		return Response{}, false
	}
	if canMutate(req) {
		return Response{ID: req.ID, Status: StatusNotPrimary, Msg: "read-only replica; primary is " + s.cfg.Load().ReplicaOf}, true
	}
	if bound > 0 {
		st, ok := s.repl.staleness()
		if !ok || st > bound {
			return Response{ID: req.ID, Status: StatusNotPrimary, Msg: fmt.Sprintf("replica too stale (bound %s); primary is %s", bound, s.cfg.Load().ReplicaOf)}, true
		}
	}
	return Response{}, false
}

// Promote flips a replica into a primary (D42): mutations are accepted
// from the instant the flag flips, the tailing loops are stopped and
// waited out, and the staleness gates disarm. The store keeps serving
// throughout — failover is the flip of one atomic. Returns false on a
// primary or an already-promoted replica. The promoted server remains
// in-memory; re-point durable clients (or restart it with a data dir)
// as a follow-up operation.
func (s *Server) Promote() bool {
	if s.repl == nil {
		return false
	}
	if !s.repl.promoted.CompareAndSwap(false, true) {
		return false
	}
	s.repl.stop()
	s.log.Info("promoted to primary", "former_primary", s.cfg.Load().ReplicaOf)
	return true
}

// ReplicaShardStatus is one shard's row in ReplicaStatus.
type ReplicaShardStatus struct {
	Shard      int    `json:"shard"`
	Connected  bool   `json:"connected"`
	AppliedLSN uint64 `json:"applied_lsn"`
	HeadLSN    uint64 `json:"head_lsn"`
	// StalenessMs is the shard's watermark age in milliseconds; -1 until
	// the shard has caught up with the primary once.
	StalenessMs int64  `json:"staleness_ms"`
	LastError   string `json:"last_error,omitempty"`
}

// ReplicaStatus is the GET /replica payload: the server's role and, on
// replicas, the per-shard replication watermarks.
type ReplicaStatus struct {
	Role           string               `json:"role"`
	Primary        string               `json:"primary,omitempty"`
	Promoted       bool                 `json:"promoted,omitempty"`
	MaxStalenessMs int64                `json:"max_staleness_ms,omitempty"`
	Shards         []ReplicaShardStatus `json:"shards,omitempty"`
}

// ReplicaStatus reports the replication state (meaningful on any
// server: a plain primary answers {"role":"primary"}).
func (s *Server) ReplicaStatus() ReplicaStatus {
	if s.repl == nil {
		return ReplicaStatus{Role: "primary"}
	}
	cfg := s.cfg.Load()
	st := ReplicaStatus{
		Role:           "replica",
		Primary:        cfg.ReplicaOf,
		Promoted:       s.repl.promoted.Load(),
		MaxStalenessMs: cfg.ReplicaMaxStaleness.Milliseconds(),
	}
	if st.Promoted {
		st.Role = "primary"
	}
	for i, sr := range s.repl.shards {
		sr.mu.Lock()
		row := ReplicaShardStatus{
			Shard:      i,
			Connected:  sr.connected,
			AppliedLSN: sr.applied,
			HeadLSN:    sr.head,
			LastError:  sr.lastErr,
		}
		sr.mu.Unlock()
		row.StalenessMs = -1
		if stale, ok := s.repl.shardStaleness(i); ok {
			row.StalenessMs = stale.Milliseconds()
		}
		st.Shards = append(st.Shards, row)
	}
	return st
}
