package stmlib

// Shard routing: a store that wants more than one group-commit pipeline
// partitions its catalog across several independent Registries — each
// with its own runtime and batching engine — by structure name. The
// assignment must be stable (the same name maps to the same shard in
// every process that ever opens the data) and total (every name maps to
// exactly one shard for any shard count), because the per-shard
// write-ahead logs and snapshots persist the partitioning on disk.

// ShardIndex maps a structure name onto one of n shards. The function
// is deterministic and process-independent — FNV-1a with a splitmix64
// finalizer over the name's bytes, no per-process seed — so a data
// directory written with n shards routes identically forever. n <= 1
// always yields shard 0.
//
// FROZEN: this is deliberately NOT hashString from hash.go. That hash
// only shapes in-memory bucket contention and may be retuned freely;
// this one is an on-disk format (shard i's WAL holds exactly the
// structures that hash to i), so it must never change —
// TestShardIndexStable pins it to golden values.
func ShardIndex(name string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(n))
}
