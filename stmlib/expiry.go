package stmlib

import "encoding/binary"

// The registry's deadline index is an internal TSortedMap keyed so that
// plain lexicographic order IS deadline order: every TTL'd map key,
// TTL'd sorted-map key and outstanding queue lease contributes one
// index entry whose key starts with the big-endian deadline. A reaper
// finds everything due by one RangeScan up to its cutoff — the
// "deadline-ordered via a TSortedMap expiry index" shape — and the
// structures' expiry/lease hooks keep the index exact: an entry is
// inserted when a deadline appears and removed when it goes away
// (overwrite, delete, expire, ack, nack, reclaim), all inside the same
// transaction as the mutation, so replaying the WAL rebuilds the index
// as a side effect and snapshots never serialize it.

// Expiry-index entry kinds: which structure kind the deadline belongs
// to.
const (
	ExpiryKindMap    byte = 'm' // TMap key TTL (ref is the map key)
	ExpiryKindSorted byte = 's' // TSortedMap key TTL (ref is the key)
	ExpiryKindLease  byte = 'l' // TQueue lease (ref is the 8-byte big-endian lease id)
)

// ExpiryKey encodes one deadline-index key: 8-byte big-endian deadline,
// kind byte, 2-byte big-endian name length, name, ref. The deadline
// prefix makes index order deadline order; the length prefix keeps
// names with arbitrary bytes parseable.
func ExpiryKey(exp int64, kind byte, name, ref string) string {
	b := make([]byte, 0, 11+len(name)+len(ref))
	b = binary.BigEndian.AppendUint64(b, uint64(exp))
	b = append(b, kind)
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = append(b, ref...)
	return string(b)
}

// ExpiryCutoffKey returns the exclusive upper-bound index key covering
// every entry with deadline <= cutoff: scan ["", ExpiryCutoffKey) to
// collect all due work.
func ExpiryCutoffKey(cutoff int64) string {
	b := make([]byte, 0, 8)
	b = binary.BigEndian.AppendUint64(b, uint64(cutoff)+1)
	return string(b)
}

// ParseExpiryKey decodes an index key back into its parts. ok is false
// on a malformed key (never produced by the hooks; defensive for
// diagnostics).
func ParseExpiryKey(k string) (exp int64, kind byte, name, ref string, ok bool) {
	if len(k) < 11 {
		return 0, 0, "", "", false
	}
	exp = int64(binary.BigEndian.Uint64([]byte(k[:8])))
	kind = k[8]
	nameLen := int(binary.BigEndian.Uint16([]byte(k[9:11])))
	if len(k) < 11+nameLen {
		return 0, 0, "", "", false
	}
	return exp, kind, k[11 : 11+nameLen], k[11+nameLen:], true
}

// LeaseRef renders a lease id as the index-key ref ExpiryKindLease
// entries use.
func LeaseRef(id uint64) string {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, id)
	return string(b)
}
