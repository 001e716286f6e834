package stmlib

import "encoding/binary"

// Introspection for the package's tests.

// Stripes returns the stripe count.
func (t *TCounter) Stripes() int { return len(t.stripes) }

// Leaves returns the number of leaves in the map's current tree.
func (m *TSortedMap[K, V]) Leaves() int { return len(m.root.Peek().leaves) }

// ParseLeaseRef decodes a LeaseRef back into the lease id.
func ParseLeaseRef(ref string) (uint64, bool) {
	if len(ref) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64([]byte(ref)), true
}
