// Package bitvec implements the fixed-size bit vectors that identify
// transactions and ancestor sets in the parallel-nested STM.
//
// The paper (Barreto et al., PPoPP 2010, §2) identifies every active
// transaction by a "bitnum": an index, ranging over [0, N), into all bit
// vectors the system maintains. N = 2P where P is the number of worker
// threads, and P is bounded by the machine word size so that every set
// operation used by the conflict-detection path compiles to one or two ALU
// instructions. A bit vector therefore fits in a single uint64.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Word is the number of bits in a vector, and hence the maximum number of
// simultaneously reserved bitnums (paper §3: "P is bounded by word size").
const Word = 64

// Bitnum is the index of a transaction identifier inside every bit vector
// (paper §2). Valid bitnums are in [0, Word).
type Bitnum uint8

// None is a sentinel for "no bitnum reserved". It is outside the valid
// range and must never be set in a vector.
const None Bitnum = Word

// Valid reports whether b is a usable bitnum index.
func (b Bitnum) Valid() bool { return b < Word }

// Bit returns the vector whose only set bit is b. It panics on invalid
// bitnums: constructing a mask from a sentinel is always a programming
// error in the runtime.
func (b Bitnum) Bit() Vec {
	if !b.Valid() {
		panic(fmt.Sprintf("bitvec: Bit() on invalid bitnum %d", b))
	}
	return Vec(1) << b
}

// String implements fmt.Stringer.
func (b Bitnum) String() string {
	if !b.Valid() {
		return "bn(none)"
	}
	return fmt.Sprintf("bn(%d)", uint8(b))
}

// Vec is a fixed-size bit vector over bitnums. The zero value is the empty
// set and is ready to use.
//
// Following the paper's notation (§2): for vectors x, y we write x+y for
// x∨y and x−y for x∧¬y; x+b / x−b set / clear a single bitnum b.
type Vec uint64

// Has reports whether bitnum b is set in v.
func (v Vec) Has(b Bitnum) bool { return b.Valid() && v&b.Bit() != 0 }

// Add returns v with bitnum b set (the paper's x + b).
func (v Vec) Add(b Bitnum) Vec { return v | b.Bit() }

// Remove returns v with bitnum b cleared (the paper's x − b).
func (v Vec) Remove(b Bitnum) Vec { return v &^ b.Bit() }

// Minus returns v − o, i.e. v ∧ ¬o.
func (v Vec) Minus(o Vec) Vec { return v &^ o }

// Empty reports whether no bitnum is set.
func (v Vec) Empty() bool { return v == 0 }

// SubsetOf reports whether v ⊆ o using the paper's two-operation test
// (§ Overview): (v ∧ (v ⊕ o)) == 0. v ⊕ o keeps the bits on which the two
// vectors differ; intersecting with v keeps exactly the bits of v that are
// missing from o.
func (v Vec) SubsetOf(o Vec) bool { return v&(v^o) == 0 }

// ForEach calls fn for every set bitnum in ascending order.
func (v Vec) ForEach(fn func(Bitnum)) {
	for w := uint64(v); w != 0; w &= w - 1 {
		fn(Bitnum(bits.TrailingZeros64(w)))
	}
}

// String renders the vector as {b0,b1,...} for diagnostics.
func (v Vec) String() string {
	if v == 0 {
		return "{}"
	}
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	v.ForEach(func(b Bitnum) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%d", uint8(b))
	})
	sb.WriteByte('}')
	return sb.String()
}
