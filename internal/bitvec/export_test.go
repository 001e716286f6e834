package bitvec

import "math/bits"

// Set helpers the tests state their laws and oracles with.

// Of builds a vector from the given bitnums.
func Of(bs ...Bitnum) Vec {
	var v Vec
	for _, b := range bs {
		v = v.Add(b)
	}
	return v
}

// Union returns v ∪ o (the paper's x + y).
func (v Vec) Union(o Vec) Vec { return v | o }

// Intersect returns v ∩ o.
func (v Vec) Intersect(o Vec) Vec { return v & o }

// Count returns the number of set bitnums.
func (v Vec) Count() int { return bits.OnesCount64(uint64(v)) }

// Slice returns the set bitnums in ascending order.
func (v Vec) Slice() []Bitnum {
	out := make([]Bitnum, 0, v.Count())
	v.ForEach(func(b Bitnum) { out = append(out, b) })
	return out
}
