package stmlib

import (
	"fmt"
	"testing"
)

// TestShardIndexStable pins the routing function to golden values: the
// assignment is persisted implicitly by every sharded data directory
// (shard i's WAL only holds structures that hash to i), so ANY change
// to these numbers is a breaking format change that must fail loudly
// here, not scatter structures at recovery time.
func TestShardIndexStable(t *testing.T) {
	golden := []struct {
		name        string
		n2, n4, n16 int
	}{
		{"bench:m", 1, 1, 9},
		{"bench:hits", 1, 1, 5},
		{"bench:stock", 0, 0, 0},
		{"bench:sold", 0, 2, 14},
		{"bench:revenue", 0, 2, 6},
		{"bench:q0", 1, 1, 5},
		{"users", 1, 1, 5},
		{"orders", 1, 1, 9},
		{"", 1, 3, 11},
	}
	for _, g := range golden {
		if got := ShardIndex(g.name, 2); got != g.n2 {
			t.Errorf("ShardIndex(%q, 2) = %d, want %d (routing changed: breaking on-disk format)", g.name, got, g.n2)
		}
		if got := ShardIndex(g.name, 4); got != g.n4 {
			t.Errorf("ShardIndex(%q, 4) = %d, want %d (routing changed: breaking on-disk format)", g.name, got, g.n4)
		}
		if got := ShardIndex(g.name, 16); got != g.n16 {
			t.Errorf("ShardIndex(%q, 16) = %d, want %d (routing changed: breaking on-disk format)", g.name, got, g.n16)
		}
	}
}

// TestShardIndexTotal: every name maps to exactly one in-range shard
// for any count (totality), repeated calls agree (determinism), and
// n <= 1 always routes to shard 0.
func TestShardIndexTotal(t *testing.T) {
	counts := []int{1, 2, 3, 4, 7, 16, 64}
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("structure-%d", i)
		for _, n := range counts {
			got := ShardIndex(name, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardIndex(%q, %d) = %d out of range", name, n, got)
			}
			if again := ShardIndex(name, n); again != got {
				t.Fatalf("ShardIndex(%q, %d) unstable: %d then %d", name, n, got, again)
			}
		}
		if got := ShardIndex(name, 0); got != 0 {
			t.Fatalf("ShardIndex(%q, 0) = %d, want 0", name, got)
		}
		if got := ShardIndex(name, -3); got != 0 {
			t.Fatalf("ShardIndex(%q, -3) = %d, want 0", name, got)
		}
	}
}

// TestShardIndexSpread: over many names every shard receives a
// reasonable share — the hash must actually partition, not clump. The
// bound is loose (half the fair share) because the quality bar is
// load spreading, not statistical perfection.
func TestShardIndexSpread(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		hist := make([]int, n)
		const names = 8192
		for i := 0; i < names; i++ {
			hist[ShardIndex(fmt.Sprintf("q-%d", i), n)]++
		}
		fair := names / n
		for s, got := range hist {
			if got < fair/2 {
				t.Errorf("n=%d: shard %d received %d of %d names (fair share %d): hash clumps", n, s, got, names, fair)
			}
		}
	}
}
