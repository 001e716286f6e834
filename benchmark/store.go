package main

import (
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"pnstm"
	"pnstm/client"
	"pnstm/server"
)

// counters is one snapshot of every layer's public counters, read from
// outside: Runtime.Stats, Server.Stats and the log files' sizes.
type counters struct {
	rt           pnstm.Stats
	batches      uint64
	requests     uint64
	largestBatch uint64
	walAppends   uint64
	walSyncs     uint64
	walBytes     uint64
}

// counts renders the snapshot for the trace file's count events.
func (c counters) counts() map[string]uint64 {
	return map[string]uint64{
		"core.begun": c.rt.Begun, "core.committed": c.rt.Committed, "core.aborted": c.rt.Aborted,
		"core.conflicts": c.rt.Conflicts, "core.escalations": c.rt.Escalations,
		"server.batches": c.batches, "server.requests": c.requests,
		"wal.appends": c.walAppends, "wal.syncs": c.walSyncs,
	}
}

// store is one repetition's fresh system under test.
type store interface {
	// do runs one operation and reports whether its answer was correct.
	// Lanes are driven by distinct goroutines.
	do(lane int, o op) bool
	counters() counters
	// finish runs the end-of-repetition checks, stops the system and
	// returns how many operations the checks found wrong, plus the
	// metrics only the end can measure.
	finish() (failed int64, extra map[string]float64, err error)
	// dataDir is the durable store's directory, "" for a memory-only one;
	// it outlives finish and is removed by cleanup.
	dataDir() string
	cleanup()
}

// ---------------------------------------------------------------------------
// core-nest: the paper's §7 synthetic on one runtime, no server.
// ---------------------------------------------------------------------------

type coreStore struct {
	rt      *pnstm.Runtime
	objs    []*pnstm.TVar[int]
	lastTag uint32
	base    pnstm.Stats // at construction, for the UserAbort check
}

func newCoreStore() (*coreStore, error) {
	rt, err := pnstm.New(pnstm.Config{Workers: 8})
	if err != nil {
		return nil, err
	}
	s := &coreStore{rt: rt, objs: make([]*pnstm.TVar[int], coreObjectCount)}
	for i := range s.objs {
		s.objs[i] = pnstm.NewTVar(0)
	}
	s.base = rt.Stats()
	return s, nil
}

// do runs one root transaction forking a depth-coreDepth binary tree of
// nested transactions; the tree's leaves run the coreLeaves leaf
// transactions in parallel, each writing its window of objects. Windows do
// not wrap around (a ring of cross-subtree waits could deadlock; a chain
// cannot — see internal/bench).
func (s *coreStore) do(_ int, o op) bool {
	tag := o.Tag
	leaf := func(id int) func(*pnstm.Ctx) {
		return func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error { // the body never returns an error
				mark := leafMark(tag, id)
				for _, v := range s.objs[id*coreStride : id*coreStride+coreObjects] {
					pnstm.Store(c, v, mark)
				}
				return nil
			})
		}
	}
	var node func(c *pnstm.Ctx, d, lo, hi int)
	node = func(c *pnstm.Ctx, d, lo, hi int) {
		_ = c.Atomic(func(c *pnstm.Ctx) error { // the body never returns an error
			if d == 0 {
				fns := make([]func(*pnstm.Ctx), hi-lo)
				for i := lo; i < hi; i++ {
					fns[i-lo] = leaf(i)
				}
				c.Parallel(fns...)
				return nil
			}
			mid := (lo + hi) / 2
			c.Parallel(
				func(c *pnstm.Ctx) { node(c, d-1, lo, mid) },
				func(c *pnstm.Ctx) { node(c, d-1, mid, hi) },
			)
			return nil
		})
	}
	err := s.rt.Run(func(c *pnstm.Ctx) { node(c, coreDepth, 0, coreLeaves) })
	s.lastTag = tag
	return err == nil
}

func (s *coreStore) counters() counters { return counters{rt: s.rt.Stats()} }

func (s *coreStore) finish() (int64, map[string]float64, error) {
	vals := make([]int, len(s.objs))
	for i, v := range s.objs {
		vals[i] = v.Peek()
	}
	failed := int64(checkMarks(vals, s.lastTag))
	failed += int64(s.rt.Stats().UserAbort - s.base.UserAbort)
	s.rt.Close()
	return failed, nil, nil
}

func (s *coreStore) dataDir() string { return "" }
func (s *coreStore) cleanup()        {}

// ---------------------------------------------------------------------------
// Wire workloads: an embedded server in pnstmd's default configuration,
// driven over loopback by the pooled, pipelined client.
// ---------------------------------------------------------------------------

// quietLogger keeps the server's info lines out of the result; warnings
// and errors still reach standard error.
var quietLogger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

// serverConfig is pnstmd's flag defaults with every time-triggered
// background task off (no admin listener, no checkpointer cadence, no
// reaper, no adaptive controller), so a repetition is the same work every
// time. Durable servers fsync for real, once per group commit.
func serverConfig(dataDir string) server.Config {
	return server.Config{
		Addr:        "127.0.0.1:0",
		Shards:      1,
		Workers:     8,
		MaxBatch:    64,
		MaxInflight: 1,
		SharedReads: true,
		DataDir:     dataDir,
		Fsync:       true,
		Logger:      quietLogger,
	}
}

// laneState is what one caller goroutine owns: its value buffer and, for
// the transfer ledger, the balance changes its acknowledged envelopes
// imply. One allocation per lane keeps callers off each other's cache
// lines.
type laneState struct {
	val   [valueLen]byte
	delta []int64
	acked int64
}

type wireStore struct {
	w      workloadDef
	d      *dataset
	cfg    server.Config
	srv    *server.Server
	served chan struct{} // closed when Serve returns
	cl     *client.Client
	lanes  []*laneState
}

// newWireStore boots the server, connects poolSize connections and
// preloads the workload's structure through 64-op envelopes (so the
// server's per-class latency histogram of point ops holds only the
// workload's own ops).
func newWireStore(w workloadDef, d *dataset, lanes, poolSize int) (*wireStore, error) {
	s := &wireStore{w: w, d: d, lanes: make([]*laneState, lanes)}
	for i := range s.lanes {
		s.lanes[i] = &laneState{delta: make([]int64, numAccounts)}
	}
	dir := ""
	if w.Durable {
		var err error
		if dir, err = os.MkdirTemp("", "pnstm-benchmark-*"); err != nil {
			return nil, err
		}
	}
	s.cfg = serverConfig(dir)
	if err := s.boot(poolSize); err != nil {
		s.cleanup()
		return nil, err
	}
	if err := s.preload(); err != nil {
		s.stop(false)
		s.cleanup()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return s, nil
}

func (s *wireStore) boot(poolSize int) error {
	srv, err := server.New(s.cfg)
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		srv.Close()
		return err
	}
	s.srv = srv
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = srv.Serve() // returns nil once Close or Kill runs
	}()
	cl, err := client.Connect(client.Options{Addrs: []string{srv.Addr().String()}, PoolSize: poolSize})
	if err != nil {
		s.stop(false)
		return err
	}
	s.cl = cl
	return nil
}

// stop closes the client and the server (kill: without flushing, as a
// crash would) and waits for the accept loop to end.
func (s *wireStore) stop(kill bool) {
	if s.cl != nil {
		s.cl.Close()
	}
	if kill {
		s.srv.Kill()
	} else {
		s.srv.Close()
	}
	<-s.served
}

func (s *wireStore) preload() error {
	const perEnvelope = 64
	var val [valueLen]byte
	n := numKeys
	if s.w.Name == "txn-durable" {
		n = numAccounts
	}
	for lo := 0; lo < n; lo += perEnvelope {
		tx := s.cl.Txn()
		for i := lo; i < lo+perEnvelope; i++ {
			switch s.w.Name {
			case "point-mem":
				s.d.fillValue(val[:], uint32(i), 0)
				tx.MapPut("kv", s.d.keys[i], append([]byte(nil), val[:]...))
			case "scan-mem":
				s.d.fillValue(val[:], uint32(i), 0)
				tx.SortedPut("lb", s.d.keys[i], append([]byte(nil), val[:]...))
			case "txn-durable":
				tx.MapPutInt("acct", s.d.accts[i], startBal)
			}
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func (s *wireStore) do(lane int, o op) bool {
	ls := s.lanes[lane]
	switch o.Kind {
	case opGet:
		v, found, err := s.cl.MapGet("kv", s.d.keys[o.A])
		return err == nil && checkGet(o.A, v, found)
	case opPut:
		s.d.fillValue(ls.val[:], o.A, o.Tag)
		return s.cl.MapPut("kv", s.d.keys[o.A], ls.val[:]) == nil
	case opSortedPut:
		s.d.fillValue(ls.val[:], o.A, o.Tag)
		return s.cl.SortedPut("lb", s.d.keys[o.A], ls.val[:]) == nil
	case opScan:
		lo, hi := s.d.keys[o.A], s.d.keys[o.A+scanSpan]
		es, err := s.cl.RangeScan("lb", lo, hi, scanLimit)
		return err == nil && checkScan(es, lo, hi, scanLimit)
	case opTransfer:
		from, to := s.d.accts[o.A], s.d.accts[o.B]
		res, err := s.cl.Txn().
			AssertGE("acct", from, 1).
			MapAddInt("acct", from, -1).
			MapAddInt("acct", to, 1).
			CounterAdd("xfers", 1).
			Commit()
		if err != nil || res.Len() != 4 || !res.Executed(3) {
			return false
		}
		ls.delta[o.A]--
		ls.delta[o.B]++
		ls.acked++
		return true
	}
	return false
}

func (s *wireStore) counters() counters {
	st := s.srv.Stats()
	c := counters{rt: st.Runtime, batches: st.Batches, requests: st.Requests, largestBatch: st.LargestBatch}
	if st.WAL != nil {
		c.walAppends, c.walSyncs = st.WAL.Appends, st.WAL.Syncs
		c.walBytes = logBytes(s.cfg.DataDir)
	}
	return c
}

// logBytes is the size on disk of a data directory's WAL segments.
func logBytes(dir string) uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total uint64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			if info, err := e.Info(); err == nil {
				total += uint64(info.Size())
			}
		}
	}
	return total
}

func (s *wireStore) finish() (int64, map[string]float64, error) {
	st := s.srv.Stats()
	lat := st.Latency[s.w.Class]
	extra := map[string]float64{
		"server.req_p50_us":          lat.P50us,
		"server.req_p99_us":          lat.P99us,
		"server.runtime_abort_ratio": st.RuntimeAborts,
	}
	if s.w.Durable {
		failed, recoverS, err := s.crashAndVerify()
		extra["server.recover_s"] = recoverS
		return failed, extra, err
	}
	var n int64
	var err error
	if s.w.Name == "point-mem" {
		n, err = s.cl.MapLen("kv")
	} else {
		var res *client.TxResults
		if res, err = s.cl.Txn().SortedLen("lb").Commit(); err == nil {
			n = res.Num(0)
		}
	}
	s.stop(false)
	if err != nil {
		return 0, extra, fmt.Errorf("final length: %w", err)
	}
	if n != numKeys {
		return 1, extra, nil
	}
	return 0, extra, nil
}

// crashAndVerify kills the server as a crash would, reopens the same
// directory (timed: snapshot import plus WAL replay) and checks that the
// recovered ledger holds every acknowledged transfer.
func (s *wireStore) crashAndVerify() (failed int64, recoverS float64, err error) {
	s.stop(true)
	t0 := time.Now()
	srv, err := server.New(s.cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen after kill: %w", err)
	}
	recoverS = time.Since(t0).Seconds()
	defer srv.Close()

	want := make([]int64, numAccounts)
	var acked int64
	for a := range want {
		want[a] = startBal
	}
	for _, ls := range s.lanes {
		acked += ls.acked
		for a, d := range ls.delta {
			want[a] += d
		}
	}
	got := make([]int64, numAccounts)
	var xfers int64
	err = srv.Runtime().Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error { // the body never returns an error
			snap := srv.Registry().Map("acct").Snapshot(c)
			for a, name := range s.d.accts {
				v, err := server.DecodeInt64(snap[name])
				if err != nil {
					v = -1 // absent or malformed: counted as a wrong balance
				}
				got[a] = v
			}
			xfers = srv.Registry().Counter("xfers").Sum(c)
			return nil
		})
	})
	if err != nil {
		return 0, recoverS, fmt.Errorf("read back ledger: %w", err)
	}
	return checkLedger(got, want, xfers, acked), recoverS, nil
}

func (s *wireStore) dataDir() string { return s.cfg.DataDir }

func (s *wireStore) cleanup() {
	if s.cfg.DataDir != "" {
		os.RemoveAll(s.cfg.DataDir)
	}
}
