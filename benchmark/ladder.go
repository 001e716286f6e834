package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"pnstm"
	"pnstm/internal/wal"
	"pnstm/server"
	"pnstm/stmlib"
)

// The rung pass: single goroutine, each rung alone, a span around each
// public call. A rung's figure is the median self time of its spans, so
// the cost of a layer is read as the difference between two rungs, and
// the span and allocation counts repeat exactly from run to run.

const (
	nestedPerTx  = 100  // nested transactions inside one atomic_nested span
	accessPerTx  = 1000 // stores (loads) inside one store (load) span
	forkChildren = 8
	ladderOps    = 4000 // ops of the seeded stream the codec and unloaded-RTT rungs replay
	walRecords   = 2000 // log records re-appended per wal rung
)

// mallocsDuring is the number of heap allocations fn made.
func mallocsDuring(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// ladderOp numbers the rung pass's operations so that the spans of one
// call share an op id.
type ladderOp struct{ n int64 }

func (l *ladderOp) next() int64 { l.n++; return l.n }

// empty is the transaction body of the rungs that measure begin/commit
// alone.
func empty(*pnstm.Ctx) error { return nil }

// coreLadder times the runtime's own operations: an empty root, fork/join
// of empty children, nested begin/commit, first stores and first loads.
func coreLadder(tr *tracer, ops *ladderOp, iters int) (map[string]float64, error) {
	rt, err := pnstm.New(pnstm.Config{Workers: 8})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	m := make(map[string]float64)
	var runErr error
	run := func(fn func(*pnstm.Ctx)) {
		if err := rt.Run(fn); err != nil && runErr == nil {
			runErr = err
		}
	}

	m["core.root_allocs"] = mallocsDuring(func() {
		for i := 0; i < iters; i++ {
			sp := tr.begin(0, ops.next(), "core", "root_empty")
			run(func(c *pnstm.Ctx) { _ = c.Atomic(empty) })
			tr.end(sp)
		}
	}) / float64(iters)

	children := make([]func(*pnstm.Ctx), forkChildren)
	for i := range children {
		children[i] = func(c *pnstm.Ctx) { _ = c.Atomic(empty) }
	}
	for i := 0; i < iters; i++ {
		sp := tr.begin(0, ops.next(), "core", "fork_join")
		run(func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				c.Parallel(children...)
				return nil
			})
		})
		tr.end(sp)
	}

	vars := make([]*pnstm.TVar[int], accessPerTx)
	for i := range vars {
		vars[i] = pnstm.NewTVar(0)
	}
	// inRoot runs body inside one root transaction, under a core.root span
	// that parents body's own span.
	inRoot := func(name string, body func(c *pnstm.Ctx)) {
		op := ops.next()
		root := tr.begin(0, op, "core", "root")
		run(func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				tr.within(tr.id(root), op, "core", name, func() { body(c) })
				return nil
			})
		})
		tr.end(root)
	}
	for i := 0; i < max(iters/10, 1); i++ {
		inRoot("atomic_nested", func(c *pnstm.Ctx) {
			for j := 0; j < nestedPerTx; j++ {
				_ = c.Atomic(empty)
			}
		})
		inRoot("store", func(c *pnstm.Ctx) {
			for _, v := range vars {
				pnstm.Store(c, v, i)
			}
		})
		inRoot("load", func(c *pnstm.Ctx) {
			for _, v := range vars {
				loadSink += pnstm.Load(c, v)
			}
		})
	}
	if runErr != nil {
		return nil, fmt.Errorf("core ladder: %w", runErr)
	}
	return m, nil
}

// loadSink keeps the load rung's reads live.
var loadSink int

// stmlibLadder times one structure operation per root transaction on a
// registry sized as the server sizes it (server.Config's zero Registry:
// 64 buckets, 8 stripes, default fanout), on the server's runtime shape.
// The figure is the self time of the span around the stmlib call; the
// enclosing core.root span's self time is that call's begin/commit.
func stmlibLadder(tr *tracer, ops *ladderOp, d *dataset, seed int64, iters int) (map[string]float64, error) {
	rt, err := pnstm.New(pnstm.Config{Workers: 8, SharedReads: true})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	reg := stmlib.NewRegistry(stmlib.RegistryConfig{})
	kv, lb, acct, xfers := reg.Map("kv"), reg.SortedMap("lb"), reg.Map("acct"), reg.Counter("xfers")

	vals := make([][]byte, numTails)
	for t := range vals {
		vals[t] = make([]byte, valueLen)
		d.fillValue(vals[t], 0, uint32(t))
	}
	var runErr error
	run := func(fn func(*pnstm.Ctx) error) {
		if err := rt.Run(func(c *pnstm.Ctx) { _ = c.Atomic(fn) }); err != nil && runErr == nil {
			runErr = err
		}
	}
	for lo := 0; lo < numKeys; lo += 64 {
		run(func(c *pnstm.Ctx) error {
			for i := lo; i < lo+64; i++ {
				kv.Put(c, d.keys[i], vals[0])
				lb.Put(c, d.keys[i], vals[0])
				if i < numAccounts {
					acct.Put(c, d.accts[i], server.EncodeInt64(startBal))
				}
			}
			return nil
		})
	}

	m := make(map[string]float64)
	r := laneRNG(seed, "stmlib-ladder", 0)
	rung := func(name string, call func(c *pnstm.Ctx, k uint32)) {
		keys := make([]uint32, iters)
		for i := range keys {
			keys[i] = r.intn(numKeys - scanSpan)
		}
		m["stmlib."+name+"_allocs"] = mallocsDuring(func() {
			for _, k := range keys {
				op := ops.next()
				root := tr.begin(0, op, "core", "root")
				run(func(c *pnstm.Ctx) error {
					tr.within(tr.id(root), op, "stmlib", name, func() { call(c, k) })
					return nil
				})
				tr.end(root)
			}
		}) / float64(iters)
	}
	rung("map_get", func(c *pnstm.Ctx, k uint32) { kv.Get(c, d.keys[k]) })
	rung("map_put", func(c *pnstm.Ctx, k uint32) { kv.Put(c, d.keys[k], vals[k%numTails]) })
	// map_add is the server's OpMapAdd primitive spelled with the public
	// calls it makes: read, decode, add, encode, write.
	rung("map_add", func(c *pnstm.Ctx, k uint32) {
		name := d.accts[k%numAccounts]
		raw, _ := acct.Get(c, name)
		v, _ := server.DecodeInt64(raw) // preloaded above, always 8 bytes
		acct.Put(c, name, server.EncodeInt64(v+1))
	})
	rung("counter_add", func(c *pnstm.Ctx, _ uint32) { xfers.Add(c, 1) })
	rung("sorted_put", func(c *pnstm.Ctx, k uint32) { lb.Put(c, d.keys[k], vals[k%numTails]) })
	rung("sorted_scan", func(c *pnstm.Ctx, k uint32) {
		lb.RangeScan(c, d.keys[k], d.keys[k+scanSpan], scanLimit)
	})
	if runErr != nil {
		return nil, fmt.Errorf("stmlib ladder: %w", runErr)
	}
	return m, nil
}

// wireFrames builds the request and response a client and server exchange
// for o: the same opcodes, names, keys and value sizes as the workload's
// real frames (every integer field is fixed-width, so sizes are exact).
func wireFrames(d *dataset, o op) (*server.Request, *server.Response) {
	val := make([]byte, valueLen)
	d.fillValue(val, o.A, o.Tag)
	okTx := func(rs ...server.TxResult) *server.Response {
		return &server.Response{ID: 1, Status: server.StatusOK, TxResults: rs}
	}
	tx := func(ops ...server.TxOp) *server.Request {
		return &server.Request{ID: 1, Op: server.OpTx, Tx: &server.Tx{Ops: ops}}
	}
	ok := server.TxResult{Status: server.StatusOK}
	switch o.Kind {
	case opGet:
		return &server.Request{ID: 1, Op: server.OpMapGet, Name: "kv", Key: d.keys[o.A]},
			&server.Response{ID: 1, Status: server.StatusOK, Found: true, Value: val}
	case opPut:
		return &server.Request{ID: 1, Op: server.OpMapPut, Name: "kv", Key: d.keys[o.A], Value: val},
			&server.Response{ID: 1, Status: server.StatusOK}
	case opSortedPut:
		return tx(server.TxOp{Op: server.OpSortedPut, Name: "lb", Key: d.keys[o.A], Value: val}), okTx(ok)
	case opScan:
		kvs := make([]server.KVEntry, scanLimit)
		for i := range kvs {
			kvs[i] = server.KVEntry{Key: d.keys[int(o.A)+i], Value: val}
		}
		return tx(server.TxOp{Op: server.OpRangeScan, Name: "lb", Key: d.keys[o.A],
				Value: []byte(d.keys[o.A+scanSpan]), Delta: scanLimit}),
			okTx(server.TxResult{Status: server.StatusOK, Num: scanLimit, Value: server.AppendKVs(nil, kvs)})
	case opTransfer:
		from, to := d.accts[o.A], d.accts[o.B]
		bal := server.TxResult{Status: server.StatusOK, Found: true, Num: startBal}
		return tx(
			server.TxOp{Op: server.OpAssertGE, Name: "acct", Key: from, Delta: 1},
			server.TxOp{Op: server.OpMapAdd, Name: "acct", Key: from, Delta: -1},
			server.TxOp{Op: server.OpMapAdd, Name: "acct", Key: to, Delta: 1},
			server.TxOp{Op: server.OpCounterAdd, Name: "xfers", Delta: 1},
		), okTx(bal, bal, bal, ok)
	}
	return nil, nil
}

// codecLadder times the protocol codec on the workload's frames: encode
// and parse of the request, encode and parse of the response. The frames
// are built first, so the allocation count is the codec's alone.
func codecLadder(tr *tracer, lops *ladderOp, d *dataset, ops []op) (map[string]float64, error) {
	reqs := make([]*server.Request, len(ops))
	resps := make([]*server.Response, len(ops))
	for i, o := range ops {
		reqs[i], resps[i] = wireFrames(d, o)
	}
	var reqBytes, respBytes int
	var buf []byte
	var codecErr error
	allocs := mallocsDuring(func() {
		for i := range ops {
			id := lops.next()
			var err error

			sp := tr.begin(0, id, "server", "codec_req_encode")
			buf, err = server.AppendRequest(buf[:0], reqs[i])
			tr.end(sp)
			if err != nil {
				codecErr = err
				return
			}
			reqBytes += len(buf)

			sp = tr.begin(0, id, "server", "codec_req_parse")
			_, err = server.ParseRequest(buf[4:])
			tr.end(sp)
			if err != nil {
				codecErr = err
				return
			}

			sp = tr.begin(0, id, "server", "codec_resp_encode")
			buf = server.AppendResponse(buf[:0], resps[i])
			tr.end(sp)
			respBytes += len(buf)

			sp = tr.begin(0, id, "server", "codec_resp_parse")
			_, err = server.ParseResponse(buf[4:])
			tr.end(sp)
			if err != nil {
				codecErr = err
				return
			}
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("codec ladder: %w", codecErr)
	}
	n := float64(len(ops))
	return map[string]float64{
		"server.codec_allocs_per_op": allocs / n,
		"server.frame_bytes_req":     float64(reqBytes) / n,
		"server.frame_bytes_resp":    float64(respBytes) / n,
	}, nil
}

// walLadder reads the record bodies back from a repetition's own log
// (timed: replay rate) and re-appends them to scratch logs, without and
// with fsync.
func walLadder(tr *tracer, ops *ladderOp, dir string) (map[string]float64, error) {
	src, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("wal ladder: %w", err)
	}
	var bodies [][]byte
	records := 0
	t0 := time.Now()
	err = src.Replay(func(_ uint64, body []byte) error {
		records++
		if len(bodies) < walRecords {
			bodies = append(bodies, append([]byte(nil), body...))
		}
		return nil
	})
	replay := time.Since(t0)
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("wal ladder: replay: %w", err)
	}
	m := map[string]float64{"wal.replay_rec_s": ratio(float64(records), replay.Seconds())}

	for _, rung := range []struct {
		name  string
		fsync bool
	}{{"append_nosync", false}, {"append_fsync", true}} {
		scratch, err := os.MkdirTemp("", "pnstm-benchmark-wal-*")
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer os.RemoveAll(scratch)
			l, err := wal.Open(wal.Options{Dir: scratch, Fsync: rung.fsync})
			if err != nil {
				return err
			}
			for _, body := range bodies {
				sp := tr.begin(0, ops.next(), "wal", rung.name)
				_, err := l.Append(body)
				tr.end(sp)
				if err != nil {
					l.Abandon()
					return err
				}
			}
			return l.Close()
		}()
		if err != nil {
			return nil, fmt.Errorf("wal ladder: %s: %w", rung.name, err)
		}
	}
	return m, nil
}

// rungTimings maps each ladder timing to the spans it is read from: the
// metric is the median self time of the named spans, divided by how many
// calls one span covers (or by 1000 for a figure in microseconds).
var rungTimings = []struct {
	metric, span string
	div          float64
}{
	{"core.root_empty_ns", "core.root_empty", 1},
	{"core.fork_join_ns", "core.fork_join", forkChildren},
	{"core.atomic_nested_ns", "core.atomic_nested", nestedPerTx},
	{"core.store_ns", "core.store", accessPerTx},
	{"core.load_ns", "core.load", accessPerTx},
	{"stmlib.map_get_ns", "stmlib.map_get", 1},
	{"stmlib.map_put_ns", "stmlib.map_put", 1},
	{"stmlib.map_add_ns", "stmlib.map_add", 1},
	{"stmlib.counter_add_ns", "stmlib.counter_add", 1},
	{"stmlib.sorted_put_ns", "stmlib.sorted_put", 1},
	{"stmlib.sorted_scan_ns", "stmlib.sorted_scan", 1},
	{"server.codec_req_encode_ns", "server.codec_req_encode", 1},
	{"server.codec_req_parse_ns", "server.codec_req_parse", 1},
	{"server.codec_resp_encode_ns", "server.codec_resp_encode", 1},
	{"server.codec_resp_parse_ns", "server.codec_resp_parse", 1},
	{"wal.append_nosync_us", "wal.append_nosync", 1e3},
	{"wal.append_fsync_us", "wal.append_fsync", 1e3},
	{"client.rtt_unloaded_us", "client.unloaded", 1e3},
}

// ladderTimings reads every rung's figure off the rung pass's spans.
func ladderTimings(spans []span) map[string]float64 {
	self := selfTimes(spans)
	m := make(map[string]float64, len(rungTimings))
	for _, r := range rungTimings {
		m[r.metric] = medianInt64(self[r.span]) / r.div
	}
	return m
}
