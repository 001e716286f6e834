package stmlib

import (
	"fmt"
	"math/bits"
	"strconv"
)

// hashKey maps a comparable key to a 64-bit hash. Common scalar kinds are
// mixed directly; everything else goes through its printed form. The
// quality bar is bucket spreading, not adversarial resistance — bucket
// choice only shapes contention, never correctness.
//
// The switch looks at a boxed copy of k that never leaves this frame, so
// the scalar and string arms allocate nothing; only the printed-form arm
// boxes k again for fmt, and pays for it only when it runs.
func hashKey[K comparable](k K) uint64 {
	switch v := any(k).(type) {
	case int:
		return mix64(uint64(v))
	case int8:
		return mix64(uint64(v))
	case int16:
		return mix64(uint64(v))
	case int32:
		return mix64(uint64(v))
	case int64:
		return mix64(uint64(v))
	case uint:
		return mix64(uint64(v))
	case uint8:
		return mix64(uint64(v))
	case uint16:
		return mix64(uint64(v))
	case uint32:
		return mix64(uint64(v))
	case uint64:
		return mix64(v)
	case uintptr:
		return mix64(uint64(v))
	case string:
		return hashString(v)
	case bool:
		if v {
			return mix64(1)
		}
		return mix64(0)
	case float64:
		return mix64(uint64(int64(v)) ^ 0x9e3779b97f4a7c15)
	case float32:
		return mix64(uint64(int64(v)) ^ 0x9e3779b97f4a7c15)
	default:
		return hashString(fmt.Sprintf("%v", any(k)))
	}
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a with a final mix.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// groupBounds splits n buckets into at most maxGroups contiguous ranges of
// near-equal size and returns the range boundaries: group g covers buckets
// [bounds[g], bounds[g+1]). Bulk operations fork one nested child per
// group.
func groupBounds(n, maxGroups int) []int {
	g := maxGroups
	if g > n {
		g = n
	}
	if g < 1 {
		g = 1
	}
	bounds := make([]int, g+1)
	for i := 0; i <= g; i++ {
		bounds[i] = i * n / g
	}
	return bounds
}

// ceilPow2 rounds n up to a power of two (used to make bucket masking
// cheap).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// itoa renders a small non-negative index for attribution labels.
func itoa(i int) string { return strconv.Itoa(i) }
