package stmlib

import (
	"pnstm"
)

// DefaultFanout is the default maximum number of parallel nested children
// a bulk operation forks. Bulk operations split the bucket array into at
// most this many contiguous groups and run one child transaction per
// group; the runtime serializes children beyond its own capacity anyway
// (parent-limiter degradation), so fanout only needs to be around the
// worker count to saturate the machine.
const DefaultFanout = 8

// TMap is a transactional hash map from K to V, implemented as a fixed
// array of buckets, each a transactional variable holding an immutable
// (copy-on-write) Go map.
//
// Point operations (Get, Put, Delete, Contains) run as one nested
// transaction touching a single bucket, so operations on different
// buckets by parallel sibling transactions do not conflict. Bulk
// operations (Len, Range, Snapshot, Clear, BulkUpdate) fork one nested
// child transaction per bucket group via Ctx.Parallel: inside an
// enclosing transaction the whole bulk step is atomic, yet its work runs
// on every available worker slot. Under pnstm.Config{Serial: true} the
// children run inline sequentially and the semantics are unchanged.
//
// A TMap must be created with NewTMap. It may be shared freely between
// transactions; the zero value is not usable.
type TMap[K comparable, V any] struct {
	buckets []*pnstm.TVar[map[K]V]
	// ttl mirrors buckets: ttl[i] holds the absolute expiry deadlines
	// (Unix nanos) of bucket i's TTL'd keys. Kept separate so maps that
	// never use TTL pay only one extra read per Get; the deadline maps
	// are immutable (copy-on-write) like the value buckets.
	ttl    []*pnstm.TVar[map[K]int64]
	mask   uint64
	fanout int

	// hook, when set, is invoked inside the mutating transaction
	// whenever a key's deadline changes (oldExp → newExp, either may be
	// 0) — the registry uses it to maintain its deadline index.
	hook func(c *pnstm.Ctx, oldExp, newExp int64, k K)
}

// NewTMap returns a TMap with the given number of buckets (rounded up to
// a power of two, minimum 1) and the default bulk fanout. More buckets
// mean fewer false conflicts between point operations on distinct keys;
// 2–4× the expected concurrency is a good start.
func NewTMap[K comparable, V any](buckets int) *TMap[K, V] {
	return NewTMapFanout[K, V](buckets, DefaultFanout)
}

// NewTMapFanout is NewTMap with an explicit bulk-operation fanout: the
// maximum number of parallel nested children a bulk operation forks.
// Fanout 1 makes every bulk operation a single sequential child, which is
// useful to isolate the cost of parallel nesting itself.
func NewTMapFanout[K comparable, V any](buckets, fanout int) *TMap[K, V] {
	n := ceilPow2(buckets)
	if fanout < 1 {
		fanout = 1
	}
	m := &TMap[K, V]{
		buckets: make([]*pnstm.TVar[map[K]V], n),
		ttl:     make([]*pnstm.TVar[map[K]int64], n),
		mask:    uint64(n - 1),
		fanout:  fanout,
	}
	for i := range m.buckets {
		m.buckets[i] = pnstm.NewTVar[map[K]V](nil)
		m.ttl[i] = pnstm.NewTVar[map[K]int64](nil)
	}
	return m
}

// Buckets returns the bucket count (diagnostics and benchmarks).
func (m *TMap[K, V]) Buckets() int { return len(m.buckets) }

// SetLabel names the map's buckets for conflict attribution (D35):
// bucket i becomes "m:<name>/<i>" in flight-recorder events. Call once
// at construction time, before transactions touch the map.
func (m *TMap[K, V]) SetLabel(name string) {
	for i, b := range m.buckets {
		b.SetLabel("m:" + name + "/" + itoa(i))
	}
	for i, b := range m.ttl {
		b.SetLabel("m:" + name + "/ttl" + itoa(i))
	}
}

// SetExpiryHook installs the deadline-change callback (registry index
// maintenance). Call once at construction time.
func (m *TMap[K, V]) SetExpiryHook(h func(c *pnstm.Ctx, oldExp, newExp int64, k K)) {
	m.hook = h
}

// index is k's position in both buckets and ttl. Operations hash a key
// once and use the index for both arrays.
func (m *TMap[K, V]) index(k K) int {
	return int(hashKey(k) & m.mask)
}

// clearDeadline drops k's deadline (if any) from ttl[i], k's bucket,
// inside the caller's transaction and fires the hook. Caller must be
// inside an Atomic.
func (m *TMap[K, V]) clearDeadline(c *pnstm.Ctx, i int, k K) {
	tv := m.ttl[i]
	old := pnstm.Load(c, tv)
	exp, had := old[k]
	if !had {
		return
	}
	next := cloneBucket(old, 0)
	delete(next, k)
	pnstm.Store(c, tv, next)
	if m.hook != nil {
		m.hook(c, exp, 0, k)
	}
}

// Get returns the live value stored under k: an entry past its TTL
// deadline (PutTTL) is hidden — reported absent — even before the
// reaper sweeps it physically.
func (m *TMap[K, V]) Get(c *pnstm.Ctx, k K) (V, bool) {
	now := nowNanos()
	i := m.index(k)
	var v V
	var ok bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		v, ok = pnstm.Load(c, m.buckets[i])[k]
		if ok {
			if exp := pnstm.Load(c, m.ttl[i])[k]; exp > 0 && exp <= now {
				v, ok = *new(V), false
			}
		}
		return nil
	})
	return v, ok
}

// Contains reports whether k is present.
func (m *TMap[K, V]) Contains(c *pnstm.Ctx, k K) bool {
	_, ok := m.Get(c, k)
	return ok
}

// Put stores v under k, replacing any previous value and clearing any
// previous TTL deadline.
func (m *TMap[K, V]) Put(c *pnstm.Ctx, k K, v V) {
	i := m.index(k)
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		tv := m.buckets[i]
		next := cloneBucket(pnstm.Load(c, tv), 1)
		next[k] = v
		pnstm.Store(c, tv, next)
		m.clearDeadline(c, i, k)
		return nil
	})
}

// PutTTL stores v under k with an absolute expiry deadline in Unix
// nanoseconds. Reads hide the entry once the deadline passes; the
// reaper removes it physically via ExpireThrough. exp <= 0 behaves
// like Put.
func (m *TMap[K, V]) PutTTL(c *pnstm.Ctx, k K, v V, exp int64) {
	if exp <= 0 {
		m.Put(c, k, v)
		return
	}
	i := m.index(k)
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		tv := m.buckets[i]
		next := cloneBucket(pnstm.Load(c, tv), 1)
		next[k] = v
		pnstm.Store(c, tv, next)
		ttv := m.ttl[i]
		oldT := pnstm.Load(c, ttv)
		oldExp := oldT[k]
		nextT := cloneBucket(oldT, 1)
		nextT[k] = exp
		pnstm.Store(c, ttv, nextT)
		if m.hook != nil && oldExp != exp {
			m.hook(c, oldExp, exp, k)
		}
		return nil
	})
}

// ExpireThrough removes k iff it carries a deadline at or before
// cutoff, reporting whether it did. The reaper's primitive: explicit
// cutoff, no wall clock, so the operation is deterministic to log and
// replay.
func (m *TMap[K, V]) ExpireThrough(c *pnstm.Ctx, k K, cutoff int64) bool {
	i := m.index(k)
	var swept bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		swept = false
		ttv := m.ttl[i]
		oldT := pnstm.Load(c, ttv)
		exp, had := oldT[k]
		if !had || exp > cutoff {
			return nil
		}
		swept = true
		nextT := cloneBucket(oldT, 0)
		delete(nextT, k)
		pnstm.Store(c, ttv, nextT)
		tv := m.buckets[i]
		old := pnstm.Load(c, tv)
		if _, ok := old[k]; ok {
			next := cloneBucket(old, 0)
			delete(next, k)
			pnstm.Store(c, tv, next)
		}
		if m.hook != nil {
			m.hook(c, exp, 0, k)
		}
		return nil
	})
	return swept
}

// Delete removes k physically — deadline or not — and reports whether
// an entry (live or expired-unswept) was present.
func (m *TMap[K, V]) Delete(c *pnstm.Ctx, k K) bool {
	i := m.index(k)
	var had bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		tv := m.buckets[i]
		old := pnstm.Load(c, tv)
		if _, had = old[k]; !had {
			return nil
		}
		next := cloneBucket(old, 0)
		delete(next, k)
		pnstm.Store(c, tv, next)
		m.clearDeadline(c, i, k)
		return nil
	})
	return had
}

// Update atomically transforms the value under k: f receives the current
// value (or the zero V) and whether k was present, and returns the value
// to store and whether to keep the key at all (false deletes it). Update
// returns the stored value and the keep decision. f may run several times
// (transaction retry) and must be side-effect free.
func (m *TMap[K, V]) Update(c *pnstm.Ctx, k K, f func(V, bool) (V, bool)) (V, bool) {
	var out V
	var kept bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		tv := m.buckets[m.index(k)]
		old := pnstm.Load(c, tv)
		cur, ok := old[k]
		out, kept = f(cur, ok)
		if kept {
			next := cloneBucket(old, 1)
			next[k] = out
			pnstm.Store(c, tv, next)
		} else if ok {
			next := cloneBucket(old, 0)
			delete(next, k)
			pnstm.Store(c, tv, next)
		}
		return nil
	})
	return out, kept
}

// Len returns the number of entries. It is a bulk read: one nested child
// per bucket group counts its slice of the bucket array in parallel.
func (m *TMap[K, V]) Len(c *pnstm.Ctx) int {
	var total int
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		sums := make([]int, m.groupCount())
		m.forEachGroup(c, func(c *pnstm.Ctx, g, lo, hi int) {
			n := 0
			for i := lo; i < hi; i++ {
				n += len(pnstm.Load(c, m.buckets[i]))
			}
			sums[g] = n
		})
		total = 0
		for _, n := range sums {
			total += n
		}
		return nil
	})
	return total
}

// Range calls f for every entry. One nested child per bucket group walks
// its buckets, so f is called concurrently from parallel children (and
// possibly more than once per entry if a child retries): f must be safe
// for concurrent use and idempotent, or commutative like an atomic
// accumulation. For a plain consistent copy use Snapshot.
func (m *TMap[K, V]) Range(c *pnstm.Ctx, f func(K, V)) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		m.forEachGroup(c, func(c *pnstm.Ctx, g, lo, hi int) {
			for i := lo; i < hi; i++ {
				for k, v := range pnstm.Load(c, m.buckets[i]) {
					f(k, v)
				}
			}
		})
		return nil
	})
}

// Snapshot returns a consistent copy of the whole map, collected by one
// nested child per bucket group and merged after the join.
func (m *TMap[K, V]) Snapshot(c *pnstm.Ctx) map[K]V {
	var out map[K]V
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		parts := make([]map[K]V, m.groupCount())
		m.forEachGroup(c, func(c *pnstm.Ctx, g, lo, hi int) {
			part := make(map[K]V)
			for i := lo; i < hi; i++ {
				for k, v := range pnstm.Load(c, m.buckets[i]) {
					part[k] = v
				}
			}
			parts[g] = part
		})
		out = make(map[K]V)
		for _, part := range parts {
			for k, v := range part {
				out[k] = v
			}
		}
		return nil
	})
	return out
}

// Clear removes every entry (and every TTL deadline), one nested child
// per bucket group.
func (m *TMap[K, V]) Clear(c *pnstm.Ctx) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		m.forEachGroup(c, func(c *pnstm.Ctx, g, lo, hi int) {
			for i := lo; i < hi; i++ {
				if pnstm.Load(c, m.buckets[i]) != nil {
					pnstm.Store[map[K]V](c, m.buckets[i], nil)
				}
				if old := pnstm.Load(c, m.ttl[i]); old != nil {
					pnstm.Store[map[K]int64](c, m.ttl[i], nil)
					if m.hook != nil {
						for k, exp := range old {
							m.hook(c, exp, 0, k)
						}
					}
				}
			}
		})
		return nil
	})
}

// TTLSnapshot returns a consistent copy of every key's expiry deadline
// (keys without a TTL are absent), collected like Snapshot — the TTL
// side of the map's checkpoint payload.
func (m *TMap[K, V]) TTLSnapshot(c *pnstm.Ctx) map[K]int64 {
	var out map[K]int64
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		parts := make([]map[K]int64, m.groupCount())
		m.forEachGroup(c, func(c *pnstm.Ctx, g, lo, hi int) {
			part := make(map[K]int64)
			for i := lo; i < hi; i++ {
				for k, exp := range pnstm.Load(c, m.ttl[i]) {
					part[k] = exp
				}
			}
			parts[g] = part
		})
		out = make(map[K]int64)
		for _, part := range parts {
			for k, exp := range part {
				out[k] = exp
			}
		}
		return nil
	})
	return out
}

// ImportTTLs restores exported deadlines (keys must already hold their
// values), firing the expiry hook so the registry's deadline index —
// which snapshots deliberately do not serialize — is rebuilt.
func (m *TMap[K, V]) ImportTTLs(c *pnstm.Ctx, ttls map[K]int64) {
	if len(ttls) == 0 {
		return
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		for k, exp := range ttls {
			if exp <= 0 {
				continue
			}
			ttv := m.ttl[m.index(k)]
			oldT := pnstm.Load(c, ttv)
			oldExp := oldT[k]
			nextT := cloneBucket(oldT, 1)
			nextT[k] = exp
			pnstm.Store(c, ttv, nextT)
			if m.hook != nil && oldExp != exp {
				m.hook(c, oldExp, exp, k)
			}
		}
		return nil
	})
}

// BulkUpdate applies f to every key in keys as one atomic step. Keys are
// grouped by bucket group and one nested child per non-empty group
// applies its share in parallel; keys hashing to different groups are
// updated by different child transactions. f has Update semantics:
// (current value, present) in, (new value, keep) out. Duplicate keys in
// keys are applied once per occurrence in an unspecified order; f must be
// side-effect free (children retry on conflict).
func (m *TMap[K, V]) BulkUpdate(c *pnstm.Ctx, keys []K, f func(K, V, bool) (V, bool)) {
	if len(keys) == 0 {
		return
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		bounds := groupBounds(len(m.buckets), m.fanout)
		groups := make([][]K, len(bounds)-1)
		for _, k := range keys {
			g := groupOf(bounds, m.index(k))
			groups[g] = append(groups[g], k)
		}
		var fns []func(*pnstm.Ctx)
		for g := range groups {
			g := g
			if len(groups[g]) == 0 {
				continue
			}
			fns = append(fns, func(c *pnstm.Ctx) {
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					// Group this child's keys by bucket so each touched
					// bucket is cloned and stored once, however many keys
					// land in it.
					byBucket := make(map[int][]K)
					for _, k := range groups[g] {
						b := m.index(k)
						byBucket[b] = append(byBucket[b], k)
					}
					for b, ks := range byBucket {
						tv := m.buckets[b]
						old := pnstm.Load(c, tv)
						next := cloneBucket(old, len(ks))
						dirty := false
						for _, k := range ks {
							cur, ok := next[k]
							v, keep := f(k, cur, ok)
							if keep {
								next[k] = v
								dirty = true
							} else if ok {
								delete(next, k)
								dirty = true
							}
						}
						if dirty {
							pnstm.Store(c, tv, next)
						}
					}
					return nil
				})
			})
		}
		c.Parallel(fns...)
		return nil
	})
}

// groupCount returns the number of bucket groups bulk operations use.
func (m *TMap[K, V]) groupCount() int {
	g := m.fanout
	if g > len(m.buckets) {
		g = len(m.buckets)
	}
	return g
}

// forEachGroup forks one nested child transaction per bucket group and
// invokes body(g, lo, hi) inside it. It must be called from inside an
// Atomic (the children become parallel children of that transaction).
func (m *TMap[K, V]) forEachGroup(c *pnstm.Ctx, body func(c *pnstm.Ctx, g, lo, hi int)) {
	bounds := groupBounds(len(m.buckets), m.fanout)
	fns := make([]func(*pnstm.Ctx), len(bounds)-1)
	for g := range fns {
		g := g
		fns[g] = func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				body(c, g, bounds[g], bounds[g+1])
				return nil
			})
		}
	}
	c.Parallel(fns...)
}

// groupOf returns the group whose [bounds[g], bounds[g+1]) range contains
// bucket b.
func groupOf(bounds []int, b int) int {
	lo, hi := 0, len(bounds)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if b >= bounds[mid] {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// cloneBucket copies a bucket map with room for extra more entries. The
// stored maps are immutable: every mutation goes through a clone, so that
// the STM's by-reference undo records stay valid after rollback.
func cloneBucket[K comparable, V any](old map[K]V, extra int) map[K]V {
	next := make(map[K]V, len(old)+extra)
	for k, v := range old {
		next[k] = v
	}
	return next
}
