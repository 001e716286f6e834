package stmlib

import (
	"sort"
	"sync"

	"pnstm"
)

// Registry is a catalog of named transactional structures: string-keyed
// maps (byte-slice values), byte-slice queues and striped counters. It is
// the façade a server exposes over the wire — clients address structures
// by (kind, name) and the registry materializes them on first use.
//
// Structure creation is NOT transactional (NewTMap and friends allocate
// plain transactional variables), so the registry guards its name tables
// with an ordinary mutex: get-or-create is safe from any goroutine,
// including concurrently with transactions using already-created
// structures. Lookups of existing names take only a read lock.
//
// The registry never deletes a structure; a name, once used, stays bound
// to the same structure for the registry's lifetime. (Transactional
// emptying — TMap.Clear, draining a queue, TCounter.Reset — is the
// supported way to reclaim contents.)
type Registry struct {
	mu       sync.RWMutex
	maps     map[string]*TMap[string, []byte]
	queues   map[string]*TQueue[[]byte]
	counters map[string]*TCounter
	sorted   map[string]*TSortedMap[string, []byte]

	// expiry is the internal deadline index (see expiry.go): one entry
	// per TTL'd key and outstanding lease across every structure in
	// this registry, maintained by the structures' hooks inside their
	// own transactions. It has no name, is not listed by Names, and is
	// rebuilt — not serialized — across snapshots.
	expiry *TSortedMap[string, []byte]

	buckets int // per-map bucket count
	stripes int // per-counter stripe count
}

// RegistryConfig sizes the structures a Registry creates. Zero fields
// take defaults: 64 buckets, 8 stripes.
type RegistryConfig struct {
	MapBuckets     int
	CounterStripes int
}

// NewRegistry returns an empty catalog.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.MapBuckets <= 0 {
		cfg.MapBuckets = 64
	}
	if cfg.CounterStripes <= 0 {
		cfg.CounterStripes = 8
	}
	r := &Registry{
		maps:     make(map[string]*TMap[string, []byte]),
		queues:   make(map[string]*TQueue[[]byte]),
		counters: make(map[string]*TCounter),
		sorted:   make(map[string]*TSortedMap[string, []byte]),
		buckets:  cfg.MapBuckets,
		stripes:  cfg.CounterStripes,
	}
	r.expiry = NewTSortedMap[string, []byte]()
	r.expiry.SetLabel("\x00expiry")
	return r
}

// keyHook returns the deadline-change callback a map or sorted map of
// the given kind and name maintains the expiry index with.
func (r *Registry) keyHook(kind byte, name string) func(c *pnstm.Ctx, oldExp, newExp int64, k string) {
	return func(c *pnstm.Ctx, oldExp, newExp int64, k string) {
		if oldExp > 0 {
			r.expiry.Delete(c, ExpiryKey(oldExp, kind, name, k))
		}
		if newExp > 0 {
			r.expiry.Put(c, ExpiryKey(newExp, kind, name, k), nil)
		}
	}
}

// Map returns the named map, creating it on first use.
func (r *Registry) Map(name string) *TMap[string, []byte] {
	r.mu.RLock()
	m := r.maps[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.maps[name]; m == nil {
		m = NewTMap[string, []byte](r.buckets)
		m.SetLabel(name) // conflict attribution (D35)
		m.SetExpiryHook(r.keyHook(ExpiryKindMap, name))
		r.maps[name] = m
	}
	return m
}

// MapBucket returns the bucket key hashes to in every map of the
// registry: two point operations on one map can conflict only when their
// keys share a bucket. A scheduler that keeps conflicting operations
// apart (the server's batch planner) keys map work on it.
func (r *Registry) MapBucket(key string) int {
	return int(hashString(key) & uint64(ceilPow2(r.buckets)-1))
}

// SortedMap returns the named sorted map, creating it on first use.
func (r *Registry) SortedMap(name string) *TSortedMap[string, []byte] {
	r.mu.RLock()
	m := r.sorted[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.sorted[name]; m == nil {
		m = NewTSortedMap[string, []byte]()
		m.SetLabel(name) // conflict attribution (D35)
		m.SetExpiryHook(r.keyHook(ExpiryKindSorted, name))
		r.sorted[name] = m
	}
	return m
}

// Queue returns the named queue, creating it on first use.
func (r *Registry) Queue(name string) *TQueue[[]byte] {
	r.mu.RLock()
	q := r.queues[name]
	r.mu.RUnlock()
	if q != nil {
		return q
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if q = r.queues[name]; q == nil {
		q = NewTQueue[[]byte]()
		q.SetLabel(name) // conflict attribution (D35)
		hook := r.keyHook(ExpiryKindLease, name)
		q.SetLeaseHook(func(c *pnstm.Ctx, oldDl, newDl int64, id uint64) {
			hook(c, oldDl, newDl, LeaseRef(id))
		})
		r.queues[name] = q
	}
	return q
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *TCounter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = NewTCounter(r.stripes)
		c.SetLabel(name) // conflict attribution (D35)
		r.counters[name] = c
	}
	return c
}

// Names returns the sorted names of every structure of each kind
// (diagnostics). Sorted maps have their own SortedNames (this
// signature predates them).
func (r *Registry) Names() (maps, queues, counters []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n := range r.maps {
		maps = append(maps, n)
	}
	for n := range r.queues {
		queues = append(queues, n)
	}
	for n := range r.counters {
		counters = append(counters, n)
	}
	sort.Strings(maps)
	sort.Strings(queues)
	sort.Strings(counters)
	return maps, queues, counters
}

// SortedNames returns the sorted names of every sorted map.
func (r *Registry) SortedNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.sorted))
	for n := range r.sorted {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExpiryIndex exposes the internal deadline index (reaper scans; see
// expiry.go for the key layout). Treat it as read-only: the structure
// hooks own its contents.
func (r *Registry) ExpiryIndex() *TSortedMap[string, []byte] { return r.expiry }
