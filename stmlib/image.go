package stmlib

import (
	"pnstm"
)

// RegistryImage is a consistent point-in-time copy of every named
// structure in a Registry — the logical payload of a whole-store
// checkpoint. Map values and queue elements alias the store's immutable
// byte slices; treat the image as read-only.
type RegistryImage struct {
	Maps     map[string]map[string][]byte
	Queues   map[string][][]byte
	Counters map[string]int64

	// Second-generation structure state (image format v2). MapTTLs
	// holds per-map key deadlines (only TTL'd keys appear); Sorted
	// holds each sorted map's entries in key order, deadlines included;
	// Leases/LeaseSeqs hold each queue's outstanding leases and its
	// lease-id watermark. The registry's deadline index is deliberately
	// absent: Import rebuilds it from these via the structure hooks.
	MapTTLs   map[string]map[string]int64
	Sorted    map[string][]SortedEntry[string, []byte]
	Leases    map[string][]LeaseRecord[[]byte]
	LeaseSeqs map[string]uint64
}

// Export captures the whole catalog as one atomic bulk read. It is the
// paper's nested-parallel shape applied to checkpointing: the export is
// a single (sub)transaction, whose children — one per structure group,
// forked via fork.Each — each run the structure's own bulk read
// (TMap.Snapshot over bucket groups, TQueue.Elements, TCounter.Sum over
// its stripes). The store pauses for one big atomic read whose
// latency shrinks with the worker count, instead of a long serial scan.
//
// Concurrent non-ancestor transactions serialize against the export
// like against any bulk read, so the image is a consistent cut.
func (r *Registry) Export(c *pnstm.Ctx) *RegistryImage {
	mapNames, queueNames, counterNames := r.Names()
	sortedNames := r.SortedNames()
	img := &RegistryImage{
		Maps:      make(map[string]map[string][]byte, len(mapNames)),
		Queues:    make(map[string][][]byte, len(queueNames)),
		Counters:  make(map[string]int64, len(counterNames)),
		MapTTLs:   make(map[string]map[string]int64),
		Sorted:    make(map[string][]SortedEntry[string, []byte], len(sortedNames)),
		Leases:    make(map[string][]LeaseRecord[[]byte]),
		LeaseSeqs: make(map[string]uint64),
	}
	// Parallel children each own a disjoint slice of these result
	// arrays; the shared img maps are assembled only after the join.
	mapOut := make([]map[string][]byte, len(mapNames))
	mapTTLOut := make([]map[string]int64, len(mapNames))
	queueOut := make([][][]byte, len(queueNames))
	leaseOut := make([][]LeaseRecord[[]byte], len(queueNames))
	leaseSeqOut := make([]uint64, len(queueNames))
	counterOut := make([]int64, len(counterNames))
	sortedOut := make([][]SortedEntry[string, []byte], len(sortedNames))
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		// One task per structure; tasks are spread over at most one
		// parallel child per worker (forEachGroup). Each task's bulk read
		// forks further nested children of its group's transaction.
		var tasks []func(*pnstm.Ctx)
		for i, name := range mapNames {
			i, name := i, name
			tasks = append(tasks, func(c *pnstm.Ctx) {
				m := r.Map(name)
				mapOut[i] = m.Snapshot(c)
				mapTTLOut[i] = m.TTLSnapshot(c)
			})
		}
		for i, name := range queueNames {
			i, name := i, name
			tasks = append(tasks, func(c *pnstm.Ctx) {
				q := r.Queue(name)
				queueOut[i] = q.Elements(c)
				leaseOut[i], leaseSeqOut[i] = q.LeaseSnapshot(c)
			})
		}
		for i, name := range counterNames {
			i, name := i, name
			tasks = append(tasks, func(c *pnstm.Ctx) { counterOut[i] = r.Counter(name).Sum(c) })
		}
		for i, name := range sortedNames {
			i, name := i, name
			tasks = append(tasks, func(c *pnstm.Ctx) { sortedOut[i] = r.SortedMap(name).ExportEntries(c) })
		}
		forEachGroup(c, len(tasks), 1, runTasks(tasks), nil)
		return nil
	})
	for i, name := range mapNames {
		img.Maps[name] = mapOut[i]
		if len(mapTTLOut[i]) > 0 {
			img.MapTTLs[name] = mapTTLOut[i]
		}
	}
	for i, name := range queueNames {
		img.Queues[name] = queueOut[i]
		if len(leaseOut[i]) > 0 {
			img.Leases[name] = leaseOut[i]
		}
		if leaseSeqOut[i] > 0 {
			img.LeaseSeqs[name] = leaseSeqOut[i]
		}
	}
	for i, name := range counterNames {
		img.Counters[name] = counterOut[i]
	}
	for i, name := range sortedNames {
		img.Sorted[name] = sortedOut[i]
	}
	return img
}

// Import loads an exported image into the registry as one atomic step,
// fanned out over parallel children like Export. It is meant for boot:
// recovery materializes the snapshot into a fresh catalog before WAL
// replay. Importing into a non-empty registry merges: map entries
// overwrite by key, queue elements append in image order, counter
// totals add.
func (r *Registry) Import(c *pnstm.Ctx, img *RegistryImage) {
	if img == nil {
		return
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		var tasks []func(*pnstm.Ctx)
		for name, entries := range img.Maps {
			m, entries, ttls := r.Map(name), entries, img.MapTTLs[name]
			tasks = append(tasks, func(c *pnstm.Ctx) {
				keys := make([]string, 0, len(entries))
				for k := range entries {
					keys = append(keys, k)
				}
				// BulkUpdate re-groups the keys by bucket group and forks
				// the map's own nested children. A deadline lives in its
				// key's entry, so the deadlines go in after the values, in
				// the same task.
				m.BulkUpdate(c, keys, func(k string, _ []byte, _ bool) ([]byte, bool) {
					return entries[k], true
				})
				m.ImportTTLs(c, ttls)
			})
		}
		for name, elems := range img.Queues {
			q, elems := r.Queue(name), elems
			tasks = append(tasks, func(c *pnstm.Ctx) { q.PushAll(c, elems...) })
		}
		for name, total := range img.Counters {
			cnt, total := r.Counter(name), total
			tasks = append(tasks, func(c *pnstm.Ctx) {
				if total != 0 {
					cnt.Add(c, total)
				}
			})
		}
		for name, entries := range img.Sorted {
			sm, entries := r.SortedMap(name), entries
			tasks = append(tasks, func(c *pnstm.Ctx) { sm.ImportEntries(c, entries) })
		}
		for name, recs := range img.Leases {
			q, recs, seq := r.Queue(name), recs, img.LeaseSeqs[name]
			tasks = append(tasks, func(c *pnstm.Ctx) { q.ImportLeases(c, recs, seq) })
		}
		for name, seq := range img.LeaseSeqs {
			if _, leased := img.Leases[name]; leased {
				continue // ImportLeases above already advances the seq
			}
			q, seq := r.Queue(name), seq
			tasks = append(tasks, func(c *pnstm.Ctx) { q.ImportLeases(c, nil, seq) })
		}
		forEachGroup(c, len(tasks), 1, runTasks(tasks), nil)
		return nil
	})
}

// runTasks is the job that runs a group's share of tasks in order.
func runTasks(tasks []func(*pnstm.Ctx)) doFunc {
	return func(c *pnstm.Ctx, lo, hi int) {
		for _, task := range tasks[lo:hi] {
			task(c)
		}
	}
}
