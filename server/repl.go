package server

import (
	"errors"
	"fmt"
	"time"

	"pnstm/internal/wal"
)

// Primary-side replication stream serving (D39): one goroutine per
// OpReplSubscribe tails the shard's WAL through a wal.Follower — its
// own file handles, outside the append lock — and ships every record
// as chunked response frames on the subscriber's connection. The hook
// into the group-commit append path is the follower's wakeup: Append's
// tail broadcast, so a record is on the wire within one scheduler hop
// of its fsync without the commit path knowing subscribers exist.

// replHeartbeatEvery paces keep-alive frames on an idle stream: they
// carry the head LSN, which is what keeps the replica's staleness
// clock fresh while no writes happen.
const replHeartbeatEvery = 500 * time.Millisecond

// serveReplStream answers one OpReplSubscribe for its connection's
// lifetime. deliver routes frames through the connection's writer;
// connClosed ends the stream.
func (s *Server) serveReplStream(req *Request, deliver func(Response), connClosed <-chan struct{}) {
	fail := func(msg string) {
		deliver(Response{ID: req.ID, Status: StatusErr, Msg: msg})
	}
	if s.isReplica() {
		fail("replica serves no replication streams; subscribe to the primary " + s.cfg.Load().ReplicaOf)
		return
	}
	idx := int(req.Sub.Shard)
	if idx >= len(s.shards) {
		fail(fmt.Sprintf("no shard %d (server runs %d)", idx, len(s.shards)))
		return
	}
	sh := s.shards[idx]
	if sh.wal == nil {
		fail("server runs without a data directory; no log to ship")
		return
	}

	// send drops the stream as soon as the connection is gone — a dead
	// subscriber must not keep a follower (and its file handle) alive.
	send := func(resp Response) bool {
		select {
		case <-connClosed:
			return false
		default:
		}
		deliver(resp)
		return true
	}
	sendChunked := func(kind uint8, lsn, head uint64, body []byte) bool {
		for off := 0; ; off += replChunkBytes {
			end := off + replChunkBytes
			last := end >= len(body)
			if last {
				end = len(body)
			}
			f := &replFrame{Kind: kind, Last: last, LSN: lsn, HeadLSN: head, Chunk: body[off:end]}
			if !send(Response{ID: req.ID, Status: StatusOK, Value: encodeReplFrame(f)}) {
				return false
			}
			if last {
				return true
			}
		}
	}

	f := sh.wal.Follow(req.Sub.FromLSN)
	defer func() { f.Close() }()
	hb := time.NewTimer(replHeartbeatEvery)
	defer hb.Stop()
	for {
		lsn, body, wait, err := f.TryNext()
		switch {
		case errors.Is(err, wal.ErrCompacted):
			// The resume point was checkpointed away: ship the snapshot
			// covering it, then tail from the snapshot's LSN. Mid-stream
			// this can only happen on the first read (a live follower is
			// never behind the snapshot it already passed).
			data, snapLSN, ok := sh.wal.Snapshot()
			if !ok {
				fail(fmt.Sprintf("shard %d: lsn %d is compacted and the covering snapshot failed to load", idx, f.NextLSN()))
				return
			}
			if !sendChunked(replFrameSnapshot, snapLSN, 0, data) {
				return
			}
			f.Close()
			f = sh.wal.Follow(snapLSN + 1)
			continue
		case errors.Is(err, wal.ErrLogClosed):
			fail("primary shutting down")
			return
		case err != nil:
			fail(err.Error())
			return
		}
		if wait == nil {
			if !sendChunked(replFrameRecord, lsn, sh.wal.TailLSN(), body) {
				return
			}
			continue
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(replHeartbeatEvery)
		select {
		case <-wait:
		case <-hb.C:
			if !send(Response{ID: req.ID, Status: StatusOK, Value: encodeReplFrame(&replFrame{Kind: replFrameHeartbeat, HeadLSN: sh.wal.TailLSN()})}) {
				return
			}
		case <-connClosed:
			return
		}
	}
}
