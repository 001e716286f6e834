package server

import (
	"encoding/binary"
	"fmt"
)

// Handshake and replication-stream framing (D39–D40). The Hello frame
// is the version/feature negotiation point: every server answers it
// with its version, features, role and shard count, and the client and
// the replica refuse a peer that answers StatusErr instead. The
// replication stream rides ordinary Response frames sharing the
// OpReplSubscribe request's ID, with the payload in Response.Value
// encoded by the frame codecs below.

// ProtoVersion is the wire-protocol version this build speaks.
const ProtoVersion uint16 = 1

// Feature bits carried in Hello/HelloInfo.Features.
const (
	// FeatureCrossShard: the peer executes cross-shard mutating OpTx
	// envelopes via ordered commit (D29–D31).
	FeatureCrossShard uint64 = 1 << 0
	// FeatureReplStream: the peer serves OpReplSubscribe WAL streams
	// (set only on durable primaries — an in-memory server has no WAL
	// to ship).
	FeatureReplStream uint64 = 1 << 1
)

// Roles carried in HelloInfo.Role.
const (
	RolePrimary uint8 = 1
	RoleReplica uint8 = 2
)

// Hello is the client half of the handshake (OpHello request body).
// MaxStalenessMs, when non-zero, is the read-staleness bound the client
// will tolerate from this connection: a replica whose watermark lags
// beyond it answers reads with StatusNotPrimary instead of stale data.
type Hello struct {
	Version        uint16
	Features       uint64
	MaxStalenessMs uint32
}

// ReplSubscribe is the OpReplSubscribe request body: tail shard Shard's
// WAL starting at FromLSN (0 or 1 both mean the whole history).
type ReplSubscribe struct {
	Shard   uint16
	FromLSN uint64
}

// HelloInfo is the server half of the handshake, carried in the
// response's Value field. Primary is the primary's address when the
// answering peer is a replica ("" on a primary).
type HelloInfo struct {
	Version  uint16
	Features uint64
	Role     uint8
	Shards   uint16
	Primary  string
}

// EncodeHelloInfo renders info for Response.Value.
func EncodeHelloInfo(info *HelloInfo) []byte {
	buf := make([]byte, 0, 2+8+1+2+2+len(info.Primary))
	buf = binary.BigEndian.AppendUint16(buf, info.Version)
	buf = binary.BigEndian.AppendUint64(buf, info.Features)
	buf = append(buf, info.Role)
	buf = binary.BigEndian.AppendUint16(buf, info.Shards)
	buf = appendU16Str(buf, info.Primary)
	return buf
}

// ParseHelloInfo decodes a HelloInfo from a response Value.
func ParseHelloInfo(b []byte) (*HelloInfo, error) {
	c := &cursor{b: b}
	info := &HelloInfo{
		Version:  c.u16(),
		Features: c.u64(),
		Role:     c.u8(),
		Shards:   c.u16(),
		Primary:  c.str16(),
	}
	if err := c.done(); err != nil {
		return nil, fmt.Errorf("server: hello info: %w", err)
	}
	if info.Role != RolePrimary && info.Role != RoleReplica {
		return nil, fmt.Errorf("server: hello info: unknown role %d", info.Role)
	}
	return info, nil
}

// Replication stream frame kinds (the first byte of Response.Value on a
// StatusOK frame answering an OpReplSubscribe).
const (
	// replFrameSnapshot: a chunk of a store image the subscriber must
	// install before tailing (its resume point was compacted).
	//   u8 kind | u8 last | u64 coveredLSN | chunk
	// coveredLSN is the LSN the image covers: resume tailing at +1.
	replFrameSnapshot uint8 = 1
	// replFrameRecord: a chunk of one WAL record body.
	//   u8 kind | u8 last | u64 lsn | u64 headLSN | chunk
	// headLSN is the primary's durable tail at send time — the staleness
	// watermark's other half.
	replFrameRecord uint8 = 2
	// replFrameHeartbeat: keep-alive while the tail is idle.
	//   u8 kind | u64 headLSN
	replFrameHeartbeat uint8 = 3
)

// replChunkBytes bounds one stream frame's payload chunk. Response
// frames must stay well under the peer's MaxFrame read limit; 4 MiB
// chunks keep a multi-gigabyte snapshot streamable with frame overhead
// in the noise.
const replChunkBytes = 4 << 20

// replFrame is one decoded stream frame.
type replFrame struct {
	Kind    uint8
	Last    bool
	LSN     uint64 // record LSN (record frames) or covered LSN (snapshot frames)
	HeadLSN uint64 // primary durable tail (record + heartbeat frames)
	Chunk   []byte
}

// encodeReplFrame renders a stream frame for Response.Value.
func encodeReplFrame(f *replFrame) []byte {
	switch f.Kind {
	case replFrameHeartbeat:
		buf := make([]byte, 0, 1+8)
		buf = append(buf, f.Kind)
		return binary.BigEndian.AppendUint64(buf, f.HeadLSN)
	case replFrameSnapshot:
		buf := make([]byte, 0, 1+1+8+len(f.Chunk))
		buf = append(buf, f.Kind, boolByte(f.Last))
		buf = binary.BigEndian.AppendUint64(buf, f.LSN)
		return append(buf, f.Chunk...)
	case replFrameRecord:
		buf := make([]byte, 0, 1+1+8+8+len(f.Chunk))
		buf = append(buf, f.Kind, boolByte(f.Last))
		buf = binary.BigEndian.AppendUint64(buf, f.LSN)
		buf = binary.BigEndian.AppendUint64(buf, f.HeadLSN)
		return append(buf, f.Chunk...)
	}
	panic(fmt.Sprintf("server: encodeReplFrame: unknown kind %d", f.Kind))
}

// parseReplFrame decodes a stream frame from a response Value.
func parseReplFrame(b []byte) (*replFrame, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("server: repl frame: empty")
	}
	f := &replFrame{Kind: b[0]}
	switch f.Kind {
	case replFrameHeartbeat:
		if len(b) != 1+8 {
			return nil, fmt.Errorf("server: repl heartbeat: %d bytes", len(b))
		}
		f.HeadLSN = binary.BigEndian.Uint64(b[1:])
		return f, nil
	case replFrameSnapshot:
		if len(b) < 1+1+8 {
			return nil, fmt.Errorf("server: repl snapshot frame: %d bytes", len(b))
		}
		f.Last = b[1] == 1
		f.LSN = binary.BigEndian.Uint64(b[2:])
		f.Chunk = b[10:]
		return f, nil
	case replFrameRecord:
		if len(b) < 1+1+8+8 {
			return nil, fmt.Errorf("server: repl record frame: %d bytes", len(b))
		}
		f.Last = b[1] == 1
		f.LSN = binary.BigEndian.Uint64(b[2:])
		f.HeadLSN = binary.BigEndian.Uint64(b[10:])
		f.Chunk = b[18:]
		return f, nil
	}
	return nil, fmt.Errorf("server: repl frame: unknown kind %d", f.Kind)
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
