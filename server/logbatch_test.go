package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pnstm/internal/alloctest"
	"pnstm/internal/wal"
)

// logRun returns a batchRun that logs to a fresh WAL in a temp dir
// (Fsync off), with no runtime or registry behind it: logBatch needs
// neither.
func logRun(t *testing.T) (*batchRun, *wal.Log, string) {
	t.Helper()
	dir := t.TempDir()
	wl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wl.Close() })
	return newBatchRun(nil, wl), wl, dir
}

// goldenBatch is a fixed batch in arrival order: three mutating requests
// whose commit tickets run 2, 3, 1, and one read that logs nothing.
func goldenBatch() []*pending {
	transfer := txReq(
		TxOp{Op: OpAssertGE, Name: "acct", Key: "a", Delta: 1},
		TxOp{Op: OpMapAdd, Name: "acct", Key: "a", Delta: -1},
		TxOp{Op: OpMapAdd, Name: "acct", Key: "b", Delta: 1},
		TxOp{Op: OpCounterAdd, Name: "transfers", Delta: 1})
	transfer.ID = 9
	return []*pending{
		{req: Request{ID: 7, Op: OpMapPut, Name: "acct", Key: "a", Value: EncodeInt64(5)}, seq: 2, logged: true},
		{req: transfer, seq: 3, logged: true},
		{req: Request{ID: 8, Op: OpCounterAdd, Name: "transfers", Delta: 1}, seq: 1, logged: true},
		{req: Request{ID: 10, Op: OpMapGet, Name: "acct", Key: "b"}},
	}
}

// goldenSegment is the whole segment file logging goldenBatch and then
// goldenBatch[2:] writes: the segment header, then one record of three
// request frames in ticket order (IDs 8, 7, 9) and one of the counter add
// alone. Logs on disk hold these bytes, so they may never change.
const goldenSegment = "" +
	"504e57414c3030310000000000000001000000d38323d7060000000000000001" +
	"0000002200000000000000080900097472616e73666572730000000000000000" +
	"0000000000010000002600000000000000070300046163637400016100000008" +
	"000000000000000500000000000000000000007700000000000000090d000000" +
	"0000000000000000000000000000041000046163637400016100000000000000" +
	"00000000010e00046163637400016100000000ffffffffffffffff0e00046163" +
	"63740001620000000000000000000000010900097472616e7366657273000000" +
	"00000000000000000000010000002ee2b6144800000000000000020000002200" +
	"000000000000080900097472616e736665727300000000000000000000000000" +
	"01"

// TestLogBatchRecordGolden pins the bytes a durable batch leaves on disk,
// twice over: against goldenSegment, and against the format spelled out
// independently of logBatch and Append — AppendRequest(nil, …) frames
// concatenated in seq order behind the LSN, in a payload of their own,
// framed by length and CRC — so logs written by any build replay on any
// other.
func TestLogBatchRecordGolden(t *testing.T) {
	r, wl, dir := logRun(t)
	batch := goldenBatch()
	for _, b := range [][]*pending{batch, batch[2:]} {
		r.batch = b
		if err := r.logBatch(wal.MaxBody); err != nil {
			t.Fatal(err)
		}
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := hex.DecodeString(goldenSegment); !bytes.Equal(got, want) {
		t.Fatalf("segment bytes changed:\n got %x\nwant %x", got, want)
	}

	want := append([]byte("PNWAL001"), 0, 0, 0, 0, 0, 0, 0, 1)
	for lsn, recs := range [][]*pending{{batch[2], batch[0], batch[1]}, {batch[2]}} {
		payload := binary.BigEndian.AppendUint64(nil, uint64(lsn+1))
		for _, p := range recs {
			frame, err := AppendRequest(nil, &p.req)
			if err != nil {
				t.Fatal(err)
			}
			payload = append(payload, frame...)
		}
		want = binary.BigEndian.AppendUint32(want, uint32(len(payload)))
		want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
		want = append(want, payload...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes are not the log format:\n got %x\nwant %x", got, want)
	}
	if r.body == nil || len(r.logged) != 0 || slices.ContainsFunc(r.logged[:cap(r.logged)], func(p *pending) bool { return p != nil }) {
		t.Fatalf("after logging: body kept=%v, logged=%d, a request still referenced", r.body != nil, len(r.logged))
	}
}

// TestLogBatchSplitsAtMaxBody drives the record-limit split with a small
// limit: the records are the greedy cut a reference loop computes here (a
// frame that would push a record past the limit starts the next one; a
// frame larger than the limit rides alone), and together they decode to
// the batch's mutating requests in commit order.
func TestLogBatchSplitsAtMaxBody(t *testing.T) {
	const limit = 120
	r, wl, _ := logRun(t)
	seqs := []uint64{5, 11, 2, 9, 1, 7, 12, 3, 10, 4, 8, 6}
	for i, seq := range seqs {
		key := strings.Repeat("k", 1+i*7%40)
		if i == 4 {
			key = strings.Repeat("w", limit) // one frame over the limit
		}
		r.batch = append(r.batch,
			&pending{req: Request{ID: seq, Op: OpMapPut, Name: "m", Key: key, Value: []byte("v")}, seq: seq, logged: true},
			&pending{req: Request{ID: 100 + seq, Op: OpMapGet, Name: "m", Key: key}})
	}
	if err := r.logBatch(limit); err != nil {
		t.Fatal(err)
	}

	sorted := slices.Clone(r.batch)
	slices.SortFunc(sorted, func(a, b *pending) int { return int(a.req.ID) - int(b.req.ID) })
	var want [][]byte
	var cur []byte
	for _, p := range sorted[:len(seqs)] { // the puts, IDs 1..12 = seq order
		frame, _ := AppendRequest(nil, &p.req)
		if len(cur) > 0 && len(cur)+len(frame) > limit {
			want, cur = append(want, cur), nil
		}
		cur = append(cur, frame...)
	}
	want = append(want, cur)

	var got [][]byte
	if err := wl.Replay(func(_ uint64, body []byte) error {
		got = append(got, bytes.Clone(body))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) < 3 || len(got) != len(want) {
		t.Fatalf("%d records, want %d (and several)", len(got), len(want))
	}
	var ids []uint64
	for i, body := range got {
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("record %d:\n got %x\nwant %x", i, body, want[i])
		}
		reqs, err := decodeBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > limit && len(reqs) != 1 {
			t.Fatalf("record %d: %d bytes over the %d limit with %d frames", i, len(body), limit, len(reqs))
		}
		for _, req := range reqs {
			ids = append(ids, req.ID)
		}
	}
	if !slices.Equal(ids, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) {
		t.Fatalf("decoded request order %v, want commit order 1..12", ids)
	}
}

// TestLogBatchUnencodableLatches: a request the store applied but the
// codec cannot encode fails its batch, appends nothing and latches the log
// through wal.Fail, so no later batch can log over the hole.
func TestLogBatchUnencodableLatches(t *testing.T) {
	r, wl, _ := logRun(t)
	r.batch = []*pending{
		{req: Request{ID: 1, Op: OpMapPut, Name: "m", Key: "ok", Value: []byte("v")}, seq: 1, logged: true},
		{req: Request{ID: 2, Op: OpMapPut, Name: "m", Key: strings.Repeat("x", 1<<16), Value: []byte("v")}, seq: 2, logged: true},
	}
	if err := r.logBatch(wal.MaxBody); err == nil {
		t.Fatal("an unencodable request logged")
	}
	if wl.Err() == nil || wl.TailLSN() != 0 {
		t.Fatalf("after the failure: latch %v, tail %d; want latched at 0", wl.Err(), wl.TailLSN())
	}
	if _, err := wl.Append([]byte("next")); err == nil {
		t.Fatal("the latched log accepted an append")
	}
	if len(r.logged) != 0 || r.logged[:2][1] != nil {
		t.Fatal("the failed batch's requests are still referenced")
	}
}

// logBatchHarness is a durable executor harness holding one executed
// batch of five Transfer4 envelopes, logged once so the run's body and the
// log's record buffer are warm.
func logBatchHarness(tb testing.TB) *execHarness {
	h := newExecHarness(tb, true)
	tr := execWorkloads(tb, h)["Transfer4"].req
	ps := make([]*pending, 5)
	for i := range ps {
		ps[i] = &pending{req: tr}
	}
	h.run(tb, ps...)
	for _, p := range ps {
		if p.resp.Status != StatusOK || !p.logged {
			tb.Fatalf("transfer: %+v logged=%v", p.resp, p.logged)
		}
	}
	if err := h.r.logBatch(wal.MaxBody); err != nil {
		tb.Fatal(err)
	}
	return h
}

// TestLogBatchAllocCeiling: in steady state a durable batch reaches the
// log file with no heap object — sort, encode and framing all reuse the
// run's and the log's buffers (D56).
func TestLogBatchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("exact ceilings; the race detector adds objects of its own")
	}
	h := logBatchHarness(t)
	before := h.b.wal.TailLSN()
	got := alloctest.Exact(100, func() {
		if err := h.r.logBatch(wal.MaxBody); err != nil {
			t.Fatal(err)
		}
	})
	if n := h.b.wal.TailLSN() - before; n != 101 {
		t.Fatalf("%d records appended, want 101 (one per batch)", n)
	}
	checkExact(t, "logBatch + Append of 5 transfers", got, 0) // reads 0.00
}

// BenchmarkLogBatch is TestLogBatchAllocCeiling's body: one 5-request
// durable batch encoded and appended, Fsync off.
func BenchmarkLogBatch(b *testing.B) {
	h := logBatchHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.r.logBatch(wal.MaxBody); err != nil {
			b.Fatal(err)
		}
	}
}
