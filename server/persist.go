package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pnstm"
	"pnstm/stmlib"
)

// Durability: the group commit is the durability unit. Each batch that
// mutated the store is encoded as ONE wal record — the mutating
// requests, in the serialization order their child transactions
// committed in — and appended with ONE fsync before any response of the
// batch is acked (D17). Recovery loads the newest snapshot (a
// stmlib.Registry image captured by a parallel-nested bulk read) and
// replays the WAL tail through the live executor: each logged batch is a
// batch again, one root transaction whose logged requests are nested
// children, cut into parallel blocks by the same plan a live batch runs
// (D58) — requests on one key re-apply in their logged order, which is
// the order they committed in, and requests that share no key replay
// concurrently. A replica applies the records it is shipped the same way
// (shard.applyRecord).

// ---------------------------------------------------------------------------
// Batch records
// ---------------------------------------------------------------------------

// decodeBatch parses a wal record body — a sequence of protocol
// request frames, the same length-prefixed framing the wire uses (see
// batchRun.logBatch for the encoder) — back into requests.
func decodeBatch(body []byte) ([]*Request, error) {
	var reqs []*Request
	off := 0
	for off < len(body) {
		if off+4 > len(body) {
			return nil, fmt.Errorf("server: wal record: truncated frame header")
		}
		n := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if n > len(body)-off {
			return nil, fmt.Errorf("server: wal record: frame of %d bytes overruns record", n)
		}
		req, err := ParseRequest(body[off : off+n])
		if errors.Is(err, errOpRemoved) {
			// Never a silent skip: the record is acked history.
			return nil, fmt.Errorf("server: wal record: request %d: %w; this build cannot replay it — open the data directory with the previous build, checkpoint, and start this build again", len(reqs), err)
		}
		if err != nil {
			return nil, fmt.Errorf("server: wal record: %w", err)
		}
		reqs = append(reqs, req)
		off += n
	}
	return reqs, nil
}

// replayBatch re-executes one logged batch through the live executor: the
// logged requests, in commit order, become a batch that runRoot plans and
// runs like any other (D58). Only requests that succeeded live are logged,
// and requests on one key re-apply in the order they committed in — so on
// replay every request must succeed identically. Anything else is
// divergence (a lost record, an ordering bug), and the boot must fail
// rather than serve it.
func replayBatch(rt *pnstm.Runtime, reg *stmlib.Registry, reqs []*Request) error {
	r := newBatchRun(reg, nil)
	for _, req := range reqs {
		r.batch = append(r.batch, &pending{req: *req})
	}
	if err := rt.Run(r.root); err != nil {
		return err
	}
	// Replay is the shard's only writer and runs its roots back to back:
	// publish this root before the next one starts, or the next root's
	// writes meet its unpublished entries, spin out and back off.
	if pub := rt.Publisher(); pub != nil {
		pub.StepOnce()
	}
	for _, p := range r.batch {
		switch req, resp := &p.req, &p.resp; {
		case resp.Status != StatusOK:
			return fmt.Errorf("server: replay diverged: op %d on %q replayed to status %d (%s)", req.Op, req.Name, resp.Status, resp.Msg)
		case opTable[req.Op].effect == effectIfFound && !resp.Found:
			return fmt.Errorf("server: replay diverged: op %d on %q found nothing on replay", req.Op, req.Name)
		}
	}
	return nil
}

// applyRecord replays one WAL record into the shard — recovery's replay
// from disk and a replica's apply of a shipped record alike. A batch
// record replays as one batch; a cross-shard record replays its write-only
// sub-envelope at its logged position and advances the GSN watermark,
// unless its GSN is in dropped (recovery's incomplete cross-shard commits;
// nil on a replica). Recovery calls it before the shard's loop starts, a
// replica on the loop (applyShipped).
func (sh *shard) applyRecord(body []byte, dropped map[uint64]bool) error {
	var (
		gsn  uint64
		reqs []*Request
		err  error
	)
	if isGSNRecord(body) {
		var req *Request
		if gsn, _, req, err = decodeGSNRecord(body); err == nil {
			reqs = []*Request{req}
		}
	} else {
		reqs, err = decodeBatch(body)
	}
	if err != nil || dropped[gsn] {
		return err // a dropped GSN: an incomplete cross-shard commit, skipped everywhere
	}
	if err := replayBatch(sh.rt, sh.reg, reqs); err != nil {
		if gsn != 0 {
			return fmt.Errorf("gsn %d: %w", gsn, err)
		}
		return err
	}
	if gsn != 0 {
		sh.maxGSN.Store(gsn)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------------

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func appendU32(buf []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(buf, v)
}

// imageMagic opens every snapshot payload. Read as the u32 map count an
// older payload began with, "IMG2" is ≈1.23e9 maps — orders of
// magnitude past what any real snapshot could hold (the first name
// field alone would overrun the payload) — so the magic can never be
// confused with such a count, nor such a payload with this format.
var imageMagic = []byte("IMG2")

// imageVersion is the snapshot format encodeImage writes and the only
// one decodeImage reads.
const imageVersion = 2

// oldStoreFix is how a data directory that only an earlier build opens
// — an image without the magic or the watermark, a version-1 manifest —
// is carried forward: that build rewrites both in the current format.
const oldStoreFix = "open it once with an earlier pnstm build that still reads it, commit a write and let it checkpoint, then start this build again"

// encodeImage renders a registry export as the snapshot payload
// (deterministically: names and keys sorted), reusing the protocol's
// length-prefixed primitives:
//
//	"IMG2" | version | maps | queues | counters | sorted maps |
//	map TTLs | queue leases | lease-id watermarks | u64 watermark
//
// The watermark, maxGSN, is the highest cross-shard GSN the covered
// log prefix contained (0: none): recovery uses it to tell "this
// shard's copy of a GSN record was truncated by a checkpoint" from
// "this shard never logged it" (see reconcileGSNs).
func encodeImage(img *stmlib.RegistryImage, maxGSN uint64) []byte {
	buf := append([]byte(nil), imageMagic...)
	buf = append(buf, imageVersion)
	mapNames := sortedKeys(img.Maps)
	buf = appendU32(buf, uint32(len(mapNames)))
	for _, name := range mapNames {
		buf = appendU16Str(buf, name)
		entries := img.Maps[name]
		keys := sortedKeys(entries)
		buf = appendU32(buf, uint32(len(keys)))
		for _, k := range keys {
			buf = appendU16Str(buf, k)
			buf = appendU32Bytes(buf, entries[k])
		}
	}
	queueNames := sortedKeys(img.Queues)
	buf = appendU32(buf, uint32(len(queueNames)))
	for _, name := range queueNames {
		buf = appendU16Str(buf, name)
		elems := img.Queues[name]
		buf = appendU32(buf, uint32(len(elems)))
		for _, v := range elems {
			buf = appendU32Bytes(buf, v)
		}
	}
	counterNames := sortedKeys(img.Counters)
	buf = appendU32(buf, uint32(len(counterNames)))
	for _, name := range counterNames {
		buf = appendU16Str(buf, name)
		buf = appendI64(buf, img.Counters[name])
	}
	// Sorted-map entries carry their deadline. The expiry index is NOT
	// serialized — Import's structure hooks rebuild it exactly.
	sortedNames := sortedKeys(img.Sorted)
	buf = appendU32(buf, uint32(len(sortedNames)))
	for _, name := range sortedNames {
		buf = appendU16Str(buf, name)
		entries := img.Sorted[name]
		buf = appendU32(buf, uint32(len(entries)))
		for _, e := range entries {
			buf = appendU16Str(buf, e.Key)
			buf = appendU32Bytes(buf, e.Value)
			buf = appendI64(buf, e.Exp)
		}
	}
	ttlNames := sortedKeys(img.MapTTLs)
	buf = appendU32(buf, uint32(len(ttlNames)))
	for _, name := range ttlNames {
		buf = appendU16Str(buf, name)
		ttls := img.MapTTLs[name]
		keys := sortedKeys(ttls)
		buf = appendU32(buf, uint32(len(keys)))
		for _, k := range keys {
			buf = appendU16Str(buf, k)
			buf = appendI64(buf, ttls[k])
		}
	}
	leaseNames := sortedKeys(img.Leases)
	buf = appendU32(buf, uint32(len(leaseNames)))
	for _, name := range leaseNames {
		buf = appendU16Str(buf, name)
		recs := img.Leases[name]
		buf = appendU32(buf, uint32(len(recs)))
		for _, rec := range recs {
			buf = binary.BigEndian.AppendUint64(buf, rec.ID)
			buf = appendU32Bytes(buf, rec.Value)
			buf = appendI64(buf, rec.Deadline)
		}
	}
	seqNames := sortedKeys(img.LeaseSeqs)
	buf = appendU32(buf, uint32(len(seqNames)))
	for _, name := range seqNames {
		buf = appendU16Str(buf, name)
		buf = binary.BigEndian.AppendUint64(buf, img.LeaseSeqs[name])
	}
	buf = binary.BigEndian.AppendUint64(buf, maxGSN)
	return buf
}

// count reads a u32 element count and refuses one the rest of the
// payload cannot hold at minBytes per element, so a corrupt count fails
// the decode instead of sizing an allocation.
func (c *cursor) count(minBytes int) int {
	n := int(c.u32())
	if c.err == nil && n > (len(c.b)-c.off)/minBytes {
		c.err = fmt.Errorf("server: count %d at offset %d overruns the payload", n, c.off)
	}
	if c.err != nil {
		return 0
	}
	return n
}

// decodeImage parses a snapshot payload, returning the image and its
// cross-shard GSN watermark. It reads only what encodeImage writes. A
// payload without the magic or without the trailing watermark is
// refused, never read with a default: reconcileGSNs decides whether a
// cross-shard commit is complete by the watermark.
func decodeImage(data []byte) (*stmlib.RegistryImage, uint64, error) {
	if !bytes.HasPrefix(data, imageMagic) {
		return nil, 0, fmt.Errorf("server: snapshot: image does not open with %q, so an earlier build wrote it; %s", imageMagic, oldStoreFix)
	}
	c := &cursor{b: data, off: len(imageMagic)}
	if ver := c.u8(); c.err == nil && ver != imageVersion {
		return nil, 0, fmt.Errorf("server: snapshot: unknown image version %d", ver)
	}
	img := &stmlib.RegistryImage{
		Maps:     make(map[string]map[string][]byte),
		Queues:   make(map[string][][]byte),
		Counters: make(map[string]int64),
	}
	for i, n := 0, c.count(6); i < n && c.err == nil; i++ {
		name := c.str16()
		entries := make(map[string][]byte)
		for j, m := 0, c.count(6); j < m && c.err == nil; j++ {
			k := c.str16()
			entries[k] = c.bytes32()
		}
		img.Maps[name] = entries
	}
	for i, n := 0, c.count(6); i < n && c.err == nil; i++ {
		name := c.str16()
		var elems [][]byte
		for j, m := 0, c.count(4); j < m && c.err == nil; j++ {
			elems = append(elems, c.bytes32())
		}
		img.Queues[name] = elems
	}
	for i, n := 0, c.count(10); i < n && c.err == nil; i++ {
		name := c.str16()
		img.Counters[name] = c.i64()
	}
	for i, n := 0, c.count(6); i < n && c.err == nil; i++ {
		name := c.str16()
		m := c.count(14)
		entries := make([]stmlib.SortedEntry[string, []byte], 0, m)
		for j := 0; j < m && c.err == nil; j++ {
			var e stmlib.SortedEntry[string, []byte]
			e.Key = c.str16()
			e.Value = c.bytes32()
			e.Exp = c.i64()
			entries = append(entries, e)
		}
		if img.Sorted == nil {
			img.Sorted = make(map[string][]stmlib.SortedEntry[string, []byte])
		}
		img.Sorted[name] = entries
	}
	for i, n := 0, c.count(6); i < n && c.err == nil; i++ {
		name := c.str16()
		ttls := make(map[string]int64)
		for j, m := 0, c.count(10); j < m && c.err == nil; j++ {
			k := c.str16()
			ttls[k] = c.i64()
		}
		if img.MapTTLs == nil {
			img.MapTTLs = make(map[string]map[string]int64)
		}
		img.MapTTLs[name] = ttls
	}
	for i, n := 0, c.count(6); i < n && c.err == nil; i++ {
		name := c.str16()
		m := c.count(20)
		recs := make([]stmlib.LeaseRecord[[]byte], 0, m)
		for j := 0; j < m && c.err == nil; j++ {
			var rec stmlib.LeaseRecord[[]byte]
			rec.ID = c.u64()
			rec.Value = c.bytes32()
			rec.Deadline = c.i64()
			recs = append(recs, rec)
		}
		if img.Leases == nil {
			img.Leases = make(map[string][]stmlib.LeaseRecord[[]byte])
		}
		img.Leases[name] = recs
	}
	for i, n := 0, c.count(10); i < n && c.err == nil; i++ {
		name := c.str16()
		if img.LeaseSeqs == nil {
			img.LeaseSeqs = make(map[string]uint64)
		}
		img.LeaseSeqs[name] = c.u64()
	}
	if c.err == nil && c.off == len(c.b) {
		return nil, 0, fmt.Errorf("server: snapshot: %s image ends without its GSN watermark, so an earlier build wrote it; %s", imageMagic, oldStoreFix)
	}
	maxGSN := c.u64()
	if err := c.done(); err != nil {
		return nil, 0, fmt.Errorf("server: snapshot: %w", err)
	}
	return img, maxGSN, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------------
// Cross-shard (GSN) records
// ---------------------------------------------------------------------------

// gsnMagic opens every cross-shard WAL record (D30). Read as the
// big-endian u32 length a batch record would start with, it is ≈1.48e9
// — far beyond MaxFrame — so a pre-D31 reader rejects the record as an
// overrun rather than misparsing it, and no legal batch record can
// begin with these bytes.
var gsnMagic = []byte("XGSN")

// isGSNRecord reports whether a WAL record body is a cross-shard
// (GSN-stamped) record rather than a plain batch record.
func isGSNRecord(body []byte) bool {
	return len(body) >= len(gsnMagic) && string(body[:len(gsnMagic)]) == string(gsnMagic)
}

// encodeGSNRecord renders one shard's copy of a committed cross-shard
// envelope:
//
//	"XGSN" | u64 gsn | u16 count | count × u16 shard id | request frame
//
// The shard-id list is the envelope's LOGGING set — every shard whose
// slice wrote, identical in all copies, which is what lets recovery
// check completeness — and the request frame (the wire framing,
// 4-byte length included) holds THIS shard's write-only sub-envelope.
func encodeGSNRecord(gsn uint64, logSet []int, req *Request) ([]byte, error) {
	buf := append([]byte(nil), gsnMagic...)
	buf = binary.BigEndian.AppendUint64(buf, gsn)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(logSet)))
	for _, id := range logSet {
		buf = binary.BigEndian.AppendUint16(buf, uint16(id))
	}
	return AppendRequest(buf, req)
}

// decodeGSNRecord parses a cross-shard record body. Any malformed
// input — bad magic, truncated fields, trailing bytes, a frame that is
// not a valid OpTx request, a zero GSN, an empty logging set — is
// rejected with an error, never a panic (fuzzed).
func decodeGSNRecord(body []byte) (gsn uint64, logSet []int, req *Request, err error) {
	if !isGSNRecord(body) {
		return 0, nil, nil, fmt.Errorf("server: not a cross-shard record")
	}
	c := &cursor{b: body, off: len(gsnMagic)}
	gsn = c.u64()
	count := int(c.u16())
	logSet = make([]int, 0, count)
	for i := 0; i < count && c.err == nil; i++ {
		logSet = append(logSet, int(c.u16()))
	}
	frame := c.take(int(c.u32()))
	if cerr := c.done(); cerr != nil {
		return 0, nil, nil, fmt.Errorf("server: cross-shard record: %w", cerr)
	}
	req, perr := ParseRequest(frame)
	if perr != nil {
		return 0, nil, nil, fmt.Errorf("server: cross-shard record: %w", perr)
	}
	if req.Op != OpTx {
		return 0, nil, nil, fmt.Errorf("server: cross-shard record carries opcode %d, want OpTx", req.Op)
	}
	if gsn == 0 {
		return 0, nil, nil, fmt.Errorf("server: cross-shard record with zero gsn")
	}
	if len(logSet) == 0 {
		return 0, nil, nil, fmt.Errorf("server: cross-shard record with empty logging set")
	}
	return gsn, logSet, req, nil
}

// ---------------------------------------------------------------------------
// Recovery and checkpointing
// ---------------------------------------------------------------------------

// gsnAt is one GSN record's position in a shard's log.
type gsnAt struct {
	lsn    uint64
	gsn    uint64
	logSet []int
}

// shardScan is phase A's per-shard recovery inventory: the decoded
// snapshot (nil: none) with its GSN watermark, every GSN record's
// metadata in log order, and the log's tail LSN. Nothing is applied in
// this phase — wal.Replay re-reads the segments from disk, so the
// apply pass (replayStore) can run it again.
type shardScan struct {
	img       *stmlib.RegistryImage
	watermark uint64
	gsns      []gsnAt
	tailLSN   uint64
}

// scanStore is recovery phase A for one shard: open the snapshot and
// inventory the log's GSN records without applying anything.
func (sh *shard) scanStore(shards int) (*shardScan, error) {
	scan := &shardScan{}
	if data, lsn, ok := sh.wal.Snapshot(); ok {
		img, mark, err := decodeImage(data)
		if err != nil {
			return nil, err
		}
		scan.img, scan.watermark = img, mark
	} else if lsn > 0 {
		// The log says a snapshot covers lsn 1..N but its payload will
		// not load: replaying only the tail would be the missing-prefix
		// corruption. Refuse to serve divergent state.
		return nil, fmt.Errorf("server: snapshot covering lsn %d exists but failed to load; refusing to recover without it", lsn)
	}
	scan.tailLSN = sh.wal.TailLSN()
	err := sh.wal.Replay(func(lsn uint64, body []byte) error {
		if !isGSNRecord(body) {
			return nil
		}
		gsn, logSet, _, err := decodeGSNRecord(body)
		if err != nil {
			return fmt.Errorf("server: wal lsn %d: %w", lsn, err)
		}
		for _, member := range logSet {
			if member < 0 || member >= shards {
				return fmt.Errorf("server: wal lsn %d: gsn %d names shard %d of a %d-shard store", lsn, gsn, member, shards)
			}
		}
		scan.gsns = append(scan.gsns, gsnAt{lsn: lsn, gsn: gsn, logSet: logSet})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scan, nil
}

// reconcileGSNs is recovery phase B, the global step: decide which
// cross-shard envelopes the directory holds COMPLETELY. A GSN g with
// logging set L is complete iff every member of L either holds g's
// record in its log or has a snapshot watermark ≥ g (its copy was
// applied and then truncated by a checkpoint — appendGSN latches all
// logs on partial failure precisely so a checkpoint can never
// cover a GSN its peers missed). An incomplete GSN — the crash landed
// between the participants' fsyncs — is dropped on EVERY shard, which
// is sound only because nothing after it in any log can depend on it:
// no participant's task returns, so nothing runs after it on its shard,
// until every append is done or latched, so a lost append means the
// record is the very last thing its log ever received. Any shard
// holding a dropped GSN anywhere but its tail is divergence, and the
// boot fails. A dropped record is then physically truncated from its
// log (openDurability phase B′) before the server serves: left on disk
// it would sit at a non-tail position after the next append — failing
// every later boot — or be resurrected by the watermark rule once the
// missing peer's snapshot advances past its GSN.
func reconcileGSNs(scans []*shardScan) (dropped map[uint64]bool, maxGSN uint64, err error) {
	present := make([]map[uint64]bool, len(scans))
	for i, sc := range scans {
		if sc.watermark > maxGSN {
			maxGSN = sc.watermark
		}
		present[i] = make(map[uint64]bool, len(sc.gsns))
		for _, g := range sc.gsns {
			if g.gsn > maxGSN {
				maxGSN = g.gsn
			}
			present[i][g.gsn] = true
		}
	}
	dropped = make(map[uint64]bool)
	for _, sc := range scans {
		for _, g := range sc.gsns {
			for _, member := range g.logSet {
				if present[member][g.gsn] || g.gsn <= scans[member].watermark {
					continue
				}
				dropped[g.gsn] = true
			}
		}
	}
	for i, sc := range scans {
		for _, g := range sc.gsns {
			if dropped[g.gsn] && g.lsn != sc.tailLSN {
				return nil, 0, fmt.Errorf("server: shard %d: incomplete cross-shard gsn %d at lsn %d is not the log tail %d; the log holds state built on a commit another shard never made durable", i, g.gsn, g.lsn, sc.tailLSN)
			}
		}
	}
	return dropped, maxGSN, nil
}

// replayStore is recovery phase C for one shard: import the snapshot,
// then replay the WAL tail record by record (applyRecord). Open has
// already truncated any torn or CRC-corrupt tail, so replay sees only
// durable, intact records. GSN records replay at their logged position —
// every shard's log orders its GSNs identically (strictly increasing), so
// cross-shard slices land at the same relative positions everywhere — and
// GSNs phase B dropped are skipped.
func (sh *shard) replayStore(scan *shardScan, dropped map[uint64]bool) error {
	if scan.img != nil {
		if err := sh.rt.Run(func(c *pnstm.Ctx) { sh.reg.Import(c, scan.img) }); err != nil {
			return fmt.Errorf("server: restore snapshot: %w", err)
		}
	}
	sh.maxGSN.Store(scan.watermark)
	return sh.wal.Replay(func(lsn uint64, body []byte) error {
		if err := sh.applyRecord(body, dropped); err != nil {
			return fmt.Errorf("server: wal lsn %d: %w", lsn, err)
		}
		return nil
	})
}

// checkpoint captures this shard's snapshot bound to its current WAL
// tail and persists it, letting the covered log segments be truncated.
// The image is captured in a task on the shard's loop, so the snapshot
// is exactly the state after the shard's last logged batch; the task is
// one parallel-nested bulk read — the paper's mechanism keeping the
// stop-the-world window short — and encoding/writing happen after it,
// off the loop (D22).
func (sh *shard) checkpoint() error {
	if sh.wal == nil {
		return nil
	}
	// Idle shard: the newest snapshot already covers the whole log, so a
	// new one would be byte-identical. Skip the export and the fsync.
	// (The unguarded reads race with a concurrent batch at worst into
	// one redundant or one deferred checkpoint; the next tick settles.)
	if st := sh.wal.Stats(); st.TailLSN == st.SnapshotLSN {
		return nil
	}
	var (
		lsn, gsn uint64
		img      *stmlib.RegistryImage
	)
	if err := sh.do(func() error {
		lsn, gsn = sh.wal.TailLSN(), sh.maxGSN.Load()
		return sh.rt.Run(func(c *pnstm.Ctx) { img = sh.reg.Export(c) })
	}); err != nil {
		return fmt.Errorf("server: checkpoint export: %w", err)
	}
	return sh.wal.WriteSnapshot(encodeImage(img, gsn), lsn)
}

// Checkpoint snapshots every shard, concurrently: each shard's loop runs
// its parallel-nested bulk read as a task, capturing its image at its
// own WAL tail, and each shard writes (and fsyncs) its snapshot file
// independently — the same multiplication sharding gives group commits. No-op without a data directory.
func (s *Server) Checkpoint() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			if err := sh.checkpoint(); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", sh.id, err)
			}
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkpointLoop runs Checkpoint on the LIVE cadence (Config's
// SnapshotEvery, a PUT /config knob) until Close. The ticker fires on a
// short base period and the loop decides whether the cadence has
// elapsed — so lowering the cadence, raising it, or turning
// checkpoints off entirely (cadence 0) takes effect within a second,
// without restarting the loop.
func (s *Server) checkpointLoop() {
	defer close(s.ckDone)
	// Poll at the cadence itself when it is short, at 1s otherwise — a
	// sub-second SnapshotEvery (tests) keeps its precision, and a
	// disabled or long cadence costs one wakeup per second.
	period := func() time.Duration {
		if every := s.cfg.Load().SnapshotEvery; every > 0 && every < time.Second {
			return every
		}
		return time.Second
	}
	t := time.NewTimer(period())
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-t.C:
			t.Reset(period())
			every := s.cfg.Load().SnapshotEvery
			if every <= 0 || time.Since(last) < every {
				continue
			}
			last = time.Now()
			if err := s.Checkpoint(); err != nil {
				// A failed checkpoint costs only replay time; the WAL still
				// holds everything. Keep serving.
				continue
			}
		case <-s.ckStop:
			return
		}
	}
}
