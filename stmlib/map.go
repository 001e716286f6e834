package stmlib

import (
	"maps"
	"slices"

	"pnstm"
)

// TMap is a transactional hash map from K to V, implemented as a fixed
// array of buckets, each a transactional variable holding an immutable
// slice of entries sorted by key hash. An entry carries its key's TTL
// deadline beside the value, so a value and its deadline are written,
// rolled back and deleted together.
//
// Point operations (Get, Put, Delete, Contains) run as one nested
// transaction touching a single bucket, so operations on different
// buckets by parallel sibling transactions do not conflict; a write
// copies its bucket once, with the one entry inserted, replaced or
// removed. Bulk operations (Len, Range, Snapshot, Clear, BulkUpdate) split
// their buckets into at most one contiguous group per worker of the
// runtime and run each group as one nested child transaction via
// fork.Each: inside an enclosing transaction the whole bulk step is
// atomic, yet its work runs on every worker slot. Under
// pnstm.Config{Serial: true} the children run inline sequentially and
// the semantics are unchanged.
//
// A TMap must be created with NewTMap. It may be shared freely between
// transactions; the zero value is not usable.
type TMap[K comparable, V any] struct {
	buckets []*pnstm.TVar[[]entry[K, V]]
	mask    uint64

	// hook, when set, is invoked inside the mutating transaction
	// whenever a key's deadline changes (oldExp → newExp, either may be
	// 0) — the registry uses it to maintain its deadline index.
	hook func(c *pnstm.Ctx, oldExp, newExp int64, k K)
}

// entry is one key of a bucket. h is the key's full hashKey, the order a
// bucket is sorted in; exp is its absolute expiry deadline in Unix nanos
// (0: none).
type entry[K comparable, V any] struct {
	h   uint64
	k   K
	v   V
	exp int64
}

// NewTMap returns a TMap with the given number of buckets (rounded up to
// a power of two, minimum 1). More buckets mean fewer false conflicts
// between point operations on distinct keys; 2–4× the expected
// concurrency is a good start.
func NewTMap[K comparable, V any](buckets int) *TMap[K, V] {
	n := ceilPow2(buckets)
	m := &TMap[K, V]{
		buckets: make([]*pnstm.TVar[[]entry[K, V]], n),
		mask:    uint64(n - 1),
	}
	for i := range m.buckets {
		m.buckets[i] = pnstm.NewTVar[[]entry[K, V]](nil)
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
}

// SetExpiryHook installs the deadline-change callback (registry index
// maintenance). Call once at construction time.
func (m *TMap[K, V]) SetExpiryHook(h func(c *pnstm.Ctx, oldExp, newExp int64, k K)) {
	m.hook = h
}

// bucket hashes k once and returns the hash and k's bucket.
func (m *TMap[K, V]) bucket(k K) (uint64, *pnstm.TVar[[]entry[K, V]]) {
	h := hashKey(k)
	return h, m.buckets[h&m.mask]
}

// find returns k's position in bucket b and whether k is there; when it
// is not, the position is where an entry for k belongs. A binary search
// on h finds the run of entries sharing k's hash, and a scan of the run
// compares keys.
func find[K comparable, V any](b []entry[K, V], h uint64, k K) (int, bool) {
	lo, hi := 0, len(b)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); b[mid].h < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for j := lo; j < len(b) && b[j].h == h; j++ {
		if b[j].k == k {
			return j, true
		}
	}
	return lo, false
}

// set returns a copy of b with e at position i, replacing the entry there
// when found and inserted before it otherwise. Neither set nor remove
// writes into b: the STM's rollback restores a bucket by reference.
func set[K comparable, V any](b []entry[K, V], i int, found bool, e entry[K, V]) []entry[K, V] {
	rest := b[i:]
	if found {
		rest = b[i+1:]
	}
	next := make([]entry[K, V], i+1+len(rest))
	copy(next, b[:i])
	next[i] = e
	copy(next[i+1:], rest)
	return next
}

// remove returns a copy of b without the entry at position i (nil once
// the bucket is empty).
func remove[K comparable, V any](b []entry[K, V], i int) []entry[K, V] {
	if len(b) == 1 {
		return nil
	}
	next := make([]entry[K, V], len(b)-1)
	copy(next, b[:i])
	copy(next[i:], b[i+1:])
	return next
}

// expire fires the hook for a deadline that goes away with its entry.
func (m *TMap[K, V]) expire(c *pnstm.Ctx, e entry[K, V]) {
	if m.hook != nil && e.exp != 0 {
		m.hook(c, e.exp, 0, e.k)
	}
}

// Get returns the live value stored under k: an entry past its TTL
// deadline (PutTTL) is hidden — reported absent — even before the
// reaper sweeps it physically.
func (m *TMap[K, V]) Get(c *pnstm.Ctx, k K) (V, bool) {
	now := nowNanos()
	h, tv := m.bucket(k)
	var v V
	var ok bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		v, ok = *new(V), false
		b := pnstm.Load(c, tv)
		if i, found := find(b, h, k); found && (b[i].exp == 0 || b[i].exp > now) {
			v, ok = b[i].v, true
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
	m.put(c, k, v, 0)
}

// PutTTL stores v under k with an absolute expiry deadline in Unix
// nanoseconds. Reads hide the entry once the deadline passes; the
// reaper removes it physically via ExpireThrough. exp <= 0 behaves
// like Put.
func (m *TMap[K, V]) PutTTL(c *pnstm.Ctx, k K, v V, exp int64) {
	m.put(c, k, v, max(exp, 0))
}

func (m *TMap[K, V]) put(c *pnstm.Ctx, k K, v V, exp int64) {
	h, tv := m.bucket(k)
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		b := pnstm.Load(c, tv)
		i, found := find(b, h, k)
		var oldExp int64
		if found {
			oldExp = b[i].exp
		}
		pnstm.Store(c, tv, set(b, i, found, entry[K, V]{h, k, v, exp}))
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
	return m.drop(c, k, func(e entry[K, V]) bool { return e.exp != 0 && e.exp <= cutoff })
}

// Delete removes k physically — deadline or not — and reports whether
// an entry (live or expired-unswept) was present.
func (m *TMap[K, V]) Delete(c *pnstm.Ctx, k K) bool {
	return m.drop(c, k, nil)
}

// drop removes k's entry if it is present and due (nil due: always),
// reporting whether it did.
func (m *TMap[K, V]) drop(c *pnstm.Ctx, k K, due func(entry[K, V]) bool) bool {
	h, tv := m.bucket(k)
	var had bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		b := pnstm.Load(c, tv)
		i, found := find(b, h, k)
		if had = found && (due == nil || due(b[i])); had {
			pnstm.Store(c, tv, remove(b, i))
			m.expire(c, b[i])
		}
		return nil
	})
	return had
}

// Update atomically transforms the value under k: f receives the current
// value (or the zero V) and whether k was present, and returns the value
// to store and whether to keep the key at all (false deletes it, deadline
// included; a kept key keeps its deadline). Update returns the stored
// value and the keep decision. f may run several times (transaction
// retry) and must be side-effect free.
func (m *TMap[K, V]) Update(c *pnstm.Ctx, k K, f func(V, bool) (V, bool)) (V, bool) {
	h, tv := m.bucket(k)
	var out V
	var kept bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		b := pnstm.Load(c, tv)
		i, found := find(b, h, k)
		e := entry[K, V]{h: h, k: k}
		if found {
			e = b[i]
		}
		out, kept = f(e.v, found)
		if kept {
			e.v = out
			pnstm.Store(c, tv, set(b, i, found, e))
		} else if found {
			pnstm.Store(c, tv, remove(b, i))
			m.expire(c, e)
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
		total = 0
		forEachGroup(c, len(m.buckets), 1, jobFunc[int](func(c *pnstm.Ctx, lo, hi int) int {
			n := 0
			for _, b := range m.buckets[lo:hi] {
				n += len(pnstm.Load(c, b))
			}
			return n
		}), func(n int) { total += n })
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
		forEachGroup(c, len(m.buckets), 1, doFunc(func(c *pnstm.Ctx, lo, hi int) {
			for _, b := range m.buckets[lo:hi] {
				for _, e := range pnstm.Load(c, b) {
					f(e.k, e.v)
				}
			}
		}), nil)
		return nil
	})
}

// Snapshot returns a consistent copy of the whole map, collected by one
// nested child per bucket group and merged after the join.
func (m *TMap[K, V]) Snapshot(c *pnstm.Ctx) map[K]V {
	return collect(c, m, func(e entry[K, V]) (V, bool) { return e.v, true })
}

// TTLSnapshot returns a consistent copy of every key's expiry deadline
// (keys without a TTL are absent), collected like Snapshot — the TTL
// side of the map's checkpoint payload.
func (m *TMap[K, V]) TTLSnapshot(c *pnstm.Ctx) map[K]int64 {
	return collect(c, m, func(e entry[K, V]) (int64, bool) { return e.exp, e.exp != 0 })
}

// collect maps every entry pick accepts to pick's answer: one nested
// child per bucket group fills a part, and the parts merge after the join.
func collect[K comparable, V, T any](c *pnstm.Ctx, m *TMap[K, V], pick func(entry[K, V]) (T, bool)) map[K]T {
	var out map[K]T
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		out = make(map[K]T)
		forEachGroup(c, len(m.buckets), 1, jobFunc[map[K]T](func(c *pnstm.Ctx, lo, hi int) map[K]T {
			part := make(map[K]T)
			for _, b := range m.buckets[lo:hi] {
				for _, e := range pnstm.Load(c, b) {
					if x, ok := pick(e); ok {
						part[e.k] = x
					}
				}
			}
			return part
		}), func(part map[K]T) { maps.Copy(out, part) })
		return nil
	})
	return out
}

// Clear removes every entry (and every TTL deadline), one nested child
// per bucket group.
func (m *TMap[K, V]) Clear(c *pnstm.Ctx) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		forEachGroup(c, len(m.buckets), 1, doFunc(func(c *pnstm.Ctx, lo, hi int) {
			for _, b := range m.buckets[lo:hi] {
				if old := pnstm.Load(c, b); old != nil {
					pnstm.Store[[]entry[K, V]](c, b, nil)
					for _, e := range old {
						m.expire(c, e)
					}
				}
			}
		}), nil)
		return nil
	})
}

// ImportTTLs restores exported deadlines onto keys that already hold
// their values (the deadline of an absent key is dropped), firing the
// expiry hook so the registry's deadline index — which snapshots
// deliberately do not serialize — is rebuilt. It runs as one sequential
// nested transaction, so its hook calls never meet each other on the
// shared index, and copies a bucket once, only if one of its deadlines
// changes; the copy is private until Store.
func (m *TMap[K, V]) ImportTTLs(c *pnstm.Ctx, ttls map[K]int64) {
	if len(ttls) == 0 {
		return
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		copies := make(map[uint64][]entry[K, V])
		for k, exp := range ttls {
			h := hashKey(k)
			b, copied := copies[h&m.mask]
			if !copied {
				b = pnstm.Load(c, m.buckets[h&m.mask])
			}
			i, found := find(b, h, k)
			if exp <= 0 || !found || b[i].exp == exp {
				continue
			}
			if !copied {
				b = slices.Clone(b)
				copies[h&m.mask] = b
			}
			if m.hook != nil {
				m.hook(c, b[i].exp, exp, k)
			}
			b[i].exp = exp
		}
		for i, b := range copies {
			pnstm.Store(c, m.buckets[i], b)
		}
		return nil
	})
}

// BulkUpdate applies f to every key in keys as one atomic step. The
// buckets the keys touch are split into groups, and one nested child per
// group applies its buckets' keys; keys in different groups are updated
// by different child transactions. f has Update semantics: (current
// value, present) in, (new value, keep) out; a deleted key's deadline
// goes with it. Duplicate keys in keys are applied once per occurrence in
// an unspecified order; f must be side-effect free (children retry on
// conflict). Each touched bucket is copied once and stored once, however
// many keys land in it; the copy is the child's own until Store, so only
// it is ever written in place.
func (m *TMap[K, V]) BulkUpdate(c *pnstm.Ctx, keys []K, f func(K, V, bool) (V, bool)) {
	if len(keys) == 0 {
		return
	}
	byBucket := make(map[uint64][]K)
	for _, k := range keys {
		b := hashKey(k) & m.mask
		byBucket[b] = append(byBucket[b], k)
	}
	touched := slices.Sorted(maps.Keys(byBucket))
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		forEachGroup(c, len(touched), 1, doFunc(func(c *pnstm.Ctx, lo, hi int) {
			for _, b := range touched[lo:hi] {
				old := pnstm.Load(c, m.buckets[b])
				next := append(make([]entry[K, V], 0, len(old)+len(byBucket[b])), old...)
				dirty := false
				for _, k := range byBucket[b] {
					h := hashKey(k)
					i, found := find(next, h, k)
					e := entry[K, V]{h: h, k: k}
					if found {
						e = next[i]
					}
					var keep bool
					e.v, keep = f(k, e.v, found)
					switch {
					case keep && found:
						next[i] = e
					case keep:
						next = slices.Insert(next, i, e)
					case found:
						next = slices.Delete(next, i, i+1)
						m.expire(c, e)
					}
					dirty = dirty || keep || found
				}
				if dirty {
					pnstm.Store(c, m.buckets[b], next)
				}
			}
		}), nil)
		return nil
	})
}
