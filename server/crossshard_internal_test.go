package server

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pnstm/internal/wal"
	"pnstm/stmlib"
)

// White-box tests for the cross-shard ordered-commit internals: the
// classifyTx routing function, the GSN record codec, the on-disk GSN
// relative-order invariant, and recovery's reconciliation of records an
// interrupted commit left on only some shards.

// namesFor finds one map name per requested shard of an n-shard layout.
func namesFor(t *testing.T, prefix string, n int, want []int) map[int]string {
	t.Helper()
	out := make(map[int]string, len(want))
	need := make(map[int]bool, len(want))
	for _, sh := range want {
		need[sh] = true
	}
	for i := 0; i < 4096 && len(out) < len(need); i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		sh := stmlib.ShardIndex(name, n)
		if need[sh] && out[sh] == "" {
			out[sh] = name
		}
	}
	if len(out) < len(need) {
		t.Fatalf("could not find names for shards %v", want)
	}
	return out
}

func TestClassifyTx(t *testing.T) {
	const n = 4
	names := namesFor(t, "ct", n, []int{0, 1, 2, 3})

	// Single pinned shard → single, even with a counter riding along.
	plan := classifyTx(&Tx{Ops: []TxOp{
		{Op: OpMapPut, Name: names[2], Key: "k", Value: []byte("v")},
		{Op: OpCounterAdd, Name: "c", Delta: 1},
	}}, n)
	if plan.kind != planSingle || plan.target != 2 {
		t.Errorf("single-shard plan = %+v", plan)
	}

	// Nothing pinned (counter-only) → single, routed by the first name.
	plan = classifyTx(&Tx{Ops: []TxOp{{Op: OpCounterAdd, Name: "solo", Delta: 1}}}, n)
	if plan.kind != planSingle || plan.target != stmlib.ShardIndex("solo", n) {
		t.Errorf("counter-only plan = %+v", plan)
	}

	// Multi-shard, read-only → cross too, marked read-only.
	plan = classifyTx(&Tx{Ops: []TxOp{
		{Op: OpMapGet, Name: names[0], Key: "k"},
		{Op: OpMapGet, Name: names[1], Key: "k"},
	}}, n)
	if plan.kind != planCross || !plan.readOnly || !reflect.DeepEqual(plan.participants, []int{0, 1}) {
		t.Errorf("read-only multi-shard plan = %+v", plan)
	}

	// Multi-shard mutating → cross, slices in envelope order.
	plan = classifyTx(&Tx{Ops: []TxOp{
		{Op: OpAssertGE, Name: names[0], Key: "bal", Delta: 5},
		{Op: OpMapAdd, Name: names[0], Key: "bal", Delta: -5},
		{Op: OpMapAdd, Name: names[3], Key: "bal", Delta: 5},
	}}, n)
	if plan.kind != planCross || plan.readOnly {
		t.Fatalf("mutating multi-shard plan = %+v", plan)
	}
	if !reflect.DeepEqual(plan.participants, []int{0, 3}) {
		t.Errorf("participants = %v want [0 3]", plan.participants)
	}
	if !reflect.DeepEqual(plan.slices[0], []sliceItem{{idx: 0}, {idx: 1}}) {
		t.Errorf("slice[0] = %+v", plan.slices[0])
	}
	if !reflect.DeepEqual(plan.slices[3], []sliceItem{{idx: 2}}) {
		t.Errorf("slice[3] = %+v", plan.slices[3])
	}

	// A global counter read (sum or guard with Key=="") inside a cross
	// envelope makes EVERY shard a participant, partial items at the
	// read's envelope position.
	plan = classifyTx(&Tx{Ops: []TxOp{
		{Op: OpMapPut, Name: names[0], Key: "k", Value: []byte("v")},
		{Op: OpAssertGE, Name: "gc", Delta: 1}, // counter guard, Key == ""
		{Op: OpMapPut, Name: names[1], Key: "k", Value: []byte("v")},
	}}, n)
	if plan.kind != planCross {
		t.Fatalf("global-read cross plan = %+v", plan)
	}
	if !reflect.DeepEqual(plan.participants, []int{0, 1, 2, 3}) {
		t.Errorf("participants = %v want all shards", plan.participants)
	}
	if !reflect.DeepEqual(plan.slices[2], []sliceItem{{idx: 1, partial: true}}) {
		t.Errorf("read-only participant slice = %+v", plan.slices[2])
	}
	if !reflect.DeepEqual(plan.slices[0], []sliceItem{{idx: 0}, {idx: 1, partial: true}}) {
		t.Errorf("writing participant slice = %+v", plan.slices[0])
	}

	// One shard (or a nil/empty envelope) can never cross.
	if p := classifyTx(nil, 4); p.kind != planSingle {
		t.Errorf("nil tx plan = %+v", p)
	}
	if p := classifyTx(&Tx{Ops: []TxOp{
		{Op: OpMapPut, Name: names[0], Key: "k"},
		{Op: OpMapPut, Name: names[3], Key: "k"},
	}}, 1); p.kind != planSingle || p.target != 0 {
		t.Errorf("1-shard plan = %+v", p)
	}
}

func TestGSNRecordRoundTrip(t *testing.T) {
	req := &Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{
		{Op: OpMapAdd, Name: "m", Key: "bal", Delta: -5},
		{Op: OpQueuePush, Name: "q", Value: []byte("x")},
	}}}
	body, err := encodeGSNRecord(42, []int{1, 3}, req)
	if err != nil {
		t.Fatal(err)
	}
	if !isGSNRecord(body) {
		t.Fatal("encoded record not recognized")
	}
	gsn, logSet, got, err := decodeGSNRecord(body)
	if err != nil {
		t.Fatal(err)
	}
	if gsn != 42 || !reflect.DeepEqual(logSet, []int{1, 3}) {
		t.Errorf("decoded gsn=%d logSet=%v", gsn, logSet)
	}
	if !reflect.DeepEqual(got.Tx, req.Tx) {
		t.Errorf("decoded tx = %+v want %+v", got.Tx, req.Tx)
	}

	// A plain batch record must never be mistaken for a GSN record, and
	// vice versa: decodeBatch must reject the magic as an overrun.
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if isGSNRecord(frame) {
		t.Error("batch record misread as GSN record")
	}
	if _, err := decodeBatch(body); err == nil {
		t.Error("GSN record decoded as a batch record")
	}

	for name, corrupt := range map[string][]byte{
		"truncated header":  body[:8],
		"truncated frame":   body[:len(body)-3],
		"trailing garbage":  append(append([]byte(nil), body...), 0xFF),
		"empty logging set": mustGSN(t, 7, nil, req),
		"zero gsn":          mustGSN(t, 0, []int{0, 1}, req),
	} {
		if _, _, _, err := decodeGSNRecord(corrupt); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// mustGSN encodes a deliberately invalid GSN record for decoder tests.
func mustGSN(t *testing.T, gsn uint64, logSet []int, req *Request) []byte {
	t.Helper()
	body, err := encodeGSNRecord(gsn, logSet, req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestSnapshotWatermarkRoundTrip(t *testing.T) {
	img := &stmlib.RegistryImage{
		Maps:     map[string]map[string][]byte{"m": {"k": []byte("v")}},
		Queues:   map[string][][]byte{"q": {[]byte("a")}},
		Counters: map[string]int64{"c": 7},
	}
	data := encodeImage(img, 99)
	got, mark, err := decodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if mark != 99 || !reflect.DeepEqual(got, img) {
		t.Errorf("decoded mark=%d img=%+v", mark, got)
	}
	// Without its trailing watermark the payload is refused: read as 0,
	// a missing watermark would let reconcileGSNs drop a complete
	// cross-shard commit.
	if _, _, err := decodeImage(data[:len(data)-8]); err == nil || !strings.Contains(err.Error(), "watermark") {
		t.Errorf("payload without its watermark: err = %v", err)
	}
}

// crossCommit drives one mutating multi-shard envelope through
// commitCrossShard directly (the white-box equivalent of a wire OpTx)
// and waits for its answer.
func crossCommit(t *testing.T, s *Server, ops []TxOp) Response {
	t.Helper()
	req := &Request{Op: OpTx, Tx: &Tx{Ops: ops}}
	plan := classifyTx(req.Tx, len(s.shards))
	if plan.kind != planCross {
		t.Fatalf("envelope did not classify as cross: %+v", plan)
	}
	done := make(chan Response, 1)
	s.commitCrossShard(req, plan, func(r Response) { done <- r })
	return <-done
}

// submitOne pushes one request through a shard's loop and waits for
// its response — interleaving plain batch records between GSN records.
func submitOne(t *testing.T, s *Server, req *Request) Response {
	t.Helper()
	done := make(chan Response, 1)
	sh := s.shardFor(req.Name)
	if !sh.submit(&pending{req: *req, reply: replyFunc(func(r Response) { done <- r })}) {
		t.Fatal("submit refused")
	}
	return <-done
}

// TestGSNRelativeOrderOnDisk is the D30 replay-order assertion: after a
// run of cross-shard commits over overlapping participant sets —
// interleaved with single-shard batches — every shard's log must hold
// its GSN records in strictly increasing GSN order, on exactly the
// shards that wrote. Strict per-log monotonicity is what makes the
// relative order of any two envelopes identical on every shard they
// share, so replaying each log independently reproduces one global
// ordering.
func TestGSNRelativeOrderOnDisk(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	cfg := Config{Shards: shards, Workers: 2, MaxBatch: 8, DataDir: dir, Fsync: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := namesFor(t, "gd", shards, []int{0, 1, 2, 3})

	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}, {1, 3}}
	wantOnShard := make(map[int]int) // shard -> expected GSN record count
	for round := 0; round < 3; round++ {
		for _, p := range pairs {
			resp := crossCommit(t, s, []TxOp{
				{Op: OpMapAdd, Name: names[p[0]], Key: "bal", Delta: 1},
				{Op: OpMapAdd, Name: names[p[1]], Key: "bal", Delta: 1},
			})
			if resp.Status != StatusOK {
				t.Fatalf("cross commit on %v: %+v", p, resp)
			}
			wantOnShard[p[0]]++
			wantOnShard[p[1]]++
			// A single-shard batch record between cross records.
			if r := submitOne(t, s, &Request{Op: OpCounterAdd, Name: names[p[0]], Delta: 1}); r.Status != StatusOK {
				t.Fatalf("interleaved counter add: %+v", r)
			}
		}
	}
	s.Close()

	for sh := 0; sh < shards; sh++ {
		wl, err := wal.Open(wal.Options{Dir: filepath.Join(dir, fmt.Sprintf("shard-%d", sh))})
		if err != nil {
			t.Fatal(err)
		}
		var gsns []uint64
		err = wl.Replay(func(lsn uint64, body []byte) error {
			if !isGSNRecord(body) {
				return nil
			}
			gsn, logSet, req, err := decodeGSNRecord(body)
			if err != nil {
				return err
			}
			if len(logSet) != 2 {
				t.Errorf("shard %d gsn %d: logSet %v want a pair", sh, gsn, logSet)
			}
			if len(req.Tx.Ops) != 1 {
				t.Errorf("shard %d gsn %d: slice holds %d ops, want this shard's 1", sh, gsn, len(req.Tx.Ops))
			}
			gsns = append(gsns, gsn)
			return nil
		})
		wl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(gsns) != wantOnShard[sh] {
			t.Errorf("shard %d holds %d GSN records, want %d", sh, len(gsns), wantOnShard[sh])
		}
		for i := 1; i < len(gsns); i++ {
			if gsns[i] <= gsns[i-1] {
				t.Errorf("shard %d: GSN order broken at %d: %d after %d", sh, i, gsns[i], gsns[i-1])
			}
		}
	}

	// And the mixture must recover: balances reflect every commit.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// gsn sequencer must resume past everything on disk.
	if next := s2.gsn.Add(1); next <= uint64(len(pairs)*3) {
		t.Errorf("sequencer resumed at %d, not past the %d issued GSNs", next, len(pairs)*3)
	}
	for sh := 0; sh < shards; sh++ {
		resp := submitOne(t, s2, &Request{Op: OpMapGet, Name: names[sh], Key: "bal"})
		v, err := DecodeInt64(resp.Value)
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("read back shard %d: %+v %v", sh, resp, err)
		}
		if v != int64(wantOnShard[sh]) {
			t.Errorf("shard %d balance = %d want %d", sh, v, wantOnShard[sh])
		}
	}
}

// TestIncompleteGSNReconciliation: a crash can land between the
// participants' fsyncs, leaving a GSN record on some shards' logs and
// not others. Recovery must drop the envelope EVERYWHERE (it was never
// acked — the participants' appends had not all returned) AND physically
// erase the dropped record, so later boots neither refuse on the stale
// orphan once new batches append past it nor resurrect it when the
// missing peer's snapshot watermark advances past its GSN. A dropped
// record at a non-tail position on first sight is still refused: that
// log holds state built on the half-commit.
func TestIncompleteGSNReconciliation(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	cfg := Config{Shards: shards, Workers: 2, MaxBatch: 8, DataDir: dir, Fsync: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := namesFor(t, "ic", shards, []int{0, 1})
	resp := crossCommit(t, s, []TxOp{
		{Op: OpMapAdd, Name: names[0], Key: "bal", Delta: 10},
		{Op: OpMapAdd, Name: names[1], Key: "bal", Delta: 10},
	})
	if resp.Status != StatusOK {
		t.Fatalf("seed cross commit: %+v", resp)
	}
	s.Close()

	// forgeOrphan appends the torn tail: a record for gsn naming both
	// shards, present only on shard 0 — as if the crash landed between
	// the participants' fsyncs.
	forgeOrphan := func(gsn uint64) {
		t.Helper()
		orphan := &Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: OpMapAdd, Name: names[0], Key: "bal", Delta: 7}}}}
		body, err := encodeGSNRecord(gsn, []int{0, 1}, orphan)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "shard-0"), Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wl.Append(body); err != nil {
			t.Fatal(err)
		}
		wl.Close()
	}
	// shard0GSNs lists the GSN records shard 0's log still holds.
	shard0GSNs := func() []uint64 {
		t.Helper()
		wl, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "shard-0")})
		if err != nil {
			t.Fatal(err)
		}
		defer wl.Close()
		var gsns []uint64
		err = wl.Replay(func(lsn uint64, body []byte) error {
			if !isGSNRecord(body) {
				return nil
			}
			gsn, _, _, err := decodeGSNRecord(body)
			if err != nil {
				return err
			}
			gsns = append(gsns, gsn)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return gsns
	}

	// 1. Orphan at the tail: recovery drops it — and ERASES it, so there
	// is nothing left to re-judge next boot.
	forgeOrphan(999)
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery refused a reconcilable torn tail: %v", err)
	}
	resp = submitOne(t, s2, &Request{Op: OpMapGet, Name: names[0], Key: "bal"})
	if v, _ := DecodeInt64(resp.Value); v != 10 {
		t.Errorf("balance = %d want 10: the dropped gsn 999 leaked into the store", v)
	}
	s2.Close()
	for _, gsn := range shard0GSNs() {
		if gsn == 999 {
			t.Fatal("dropped gsn 999 still on disk after recovery")
		}
	}

	// 2. Life goes on after the drop: a batch appended where the orphan
	// used to sit must not poison the next boot (before the erase, the
	// stale orphan sat at a non-tail position and recovery permanently
	// refused to start).
	wl, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "shard-0"), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := AppendRequest(nil, &Request{Op: OpMapPut, Name: names[0], Key: "later", Value: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Append(frame); err != nil {
		t.Fatal(err)
	}
	wl.Close()
	s3, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery refused a log that appended past an erased orphan: %v", err)
	}
	resp = submitOne(t, s3, &Request{Op: OpMapGet, Name: names[0], Key: "later"})
	if resp.Status != StatusOK || !resp.Found {
		t.Errorf("post-drop batch lost: %+v", resp)
	}
	s3.Close()

	// 3. Watermark advance on the peer must not resurrect a dropped
	// envelope: after the drop, a later cross-shard commit plus a
	// checkpoint pushes shard 1's snapshot watermark past the orphan's
	// GSN — before the erase, the next boot reclassified the orphan as
	// complete and replayed its 7 on shard 0 only (silent divergence).
	forgeOrphan(2999)
	s4, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp = crossCommit(t, s4, []TxOp{
		{Op: OpMapAdd, Name: names[0], Key: "bal", Delta: 1},
		{Op: OpMapAdd, Name: names[1], Key: "bal", Delta: 1},
	})
	if resp.Status != StatusOK {
		t.Fatalf("post-drop cross commit: %+v", resp)
	}
	if err := s4.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s4.Close()
	s5, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery refused after peer watermark advanced: %v", err)
	}
	for _, sh := range []int{0, 1} {
		resp = submitOne(t, s5, &Request{Op: OpMapGet, Name: names[sh], Key: "bal"})
		if v, _ := DecodeInt64(resp.Value); v != 11 {
			t.Errorf("shard %d balance = %d want 11 (dropped envelope resurrected?)", sh, v)
		}
	}
	s5.Close()

	// 4. A dropped record at a non-tail position on FIRST sight is still
	// refused: the tail above it was built on the half-commit.
	wl, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "shard-0"), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	orphan := &Request{Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: OpMapAdd, Name: names[0], Key: "bal", Delta: 7}}}}
	body, err := encodeGSNRecord(5999, []int{0, 1}, orphan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Append(body); err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Append(frame); err != nil {
		t.Fatal(err)
	}
	wl.Close()
	if _, err := New(cfg); err == nil {
		t.Fatal("recovery accepted a log whose tail was built on a dropped cross-shard commit")
	}
}

// TestCrossShardPipelinedFlood: a connection that pipelines far more
// cross-shard envelopes than the shards can run at once is held back by
// the shards' task queues, not refused. 512 transfers between two
// shards go out in one write on one connection; every one must commit,
// and the ledger must come out exactly as the transfers say — zero-sum.
func TestCrossShardPipelinedFlood(t *testing.T) {
	const (
		transfers = 512
		accounts  = 8
	)
	s := bootServer(t, Config{Shards: 2, Workers: 2, MaxBatch: 8})
	names := namesFor(t, "fl", 2, []int{0, 1})
	want := map[[2]string]int64{}
	var frames []byte
	for i := 0; i < transfers; i++ {
		from := [2]string{names[0], fmt.Sprintf("a%d", i%accounts)}
		to := [2]string{names[1], fmt.Sprintf("a%d", i*3%accounts)}
		amt := int64(1 + i%5)
		want[from] -= amt
		want[to] += amt
		var err error
		frames, err = AppendRequest(frames, &Request{ID: uint64(i + 1), Op: OpTx, Tx: &Tx{Ops: []TxOp{
			{Op: OpMapAdd, Name: from[0], Key: from[1], Delta: -amt},
			{Op: OpMapAdd, Name: to[0], Key: to[1], Delta: amt},
		}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(nc)
	for i := 0; i < transfers; i++ {
		frame, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("after %d replies: %v", i, err)
		}
		resp, err := ParseResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("transfer %d: %+v", resp.ID, resp)
		}
	}

	var sum int64
	for acct, bal := range want {
		resp := submitOne(t, s, &Request{Op: OpMapGet, Name: acct[0], Key: acct[1]})
		got, err := DecodeInt64(resp.Value)
		if resp.Status != StatusOK || err != nil || got != bal {
			t.Errorf("%s[%s] = %d (%+v, %v), want %d", acct[0], acct[1], got, resp, err, bal)
		}
		sum += got
	}
	if sum != 0 {
		t.Errorf("ledger sums to %d, want 0", sum)
	}
}
