package stmlib

import (
	"cmp"
	"sort"
	"sync/atomic"
	"time"

	"pnstm"
	"pnstm/internal/fork"
)

// SortedEntry is one key's record in a TSortedMap: the value plus the
// absolute expiry deadline in Unix nanoseconds (0 = no TTL). Scans and
// exports return entries in ascending key order.
type SortedEntry[K cmp.Ordered, V any] struct {
	Key   K
	Value V
	Exp   int64
}

// smTree is the sorted map's immutable shape descriptor: leaf i holds
// keys in [lows[i], lows[i+1]) with lows[0] standing for -inf and the
// last leaf unbounded above. A mutation that splits a leaf writes a NEW
// descriptor (the B-link analogue of a height-0 root split); point ops
// and scans that only touch leaf contents never write the root, so the
// descriptor is a read-mostly variable that shared-read conflict
// detection keeps cheap.
type smTree[K cmp.Ordered, V any] struct {
	lows   []K
	leaves []*pnstm.TVar[[]SortedEntry[K, V]]
}

// leafFor returns the index of the leaf whose key range contains k.
func (t *smTree[K, V]) leafFor(k K) int {
	return sort.Search(len(t.leaves)-1, func(i int) bool { return cmp.Less(k, t.lows[i+1]) })
}

// findEntry locates k in a sorted leaf slice: the insertion index and
// whether the key is present there.
func findEntry[K cmp.Ordered, V any](es []SortedEntry[K, V], k K) (int, bool) {
	i := sort.Search(len(es), func(j int) bool { return !cmp.Less(es[j].Key, k) })
	return i, i < len(es) && es[i].Key == k
}

// smMaxLeaf is the split threshold: a put that grows a leaf past this
// many entries splits it in two and publishes a new tree descriptor.
const smMaxLeaf = 64

// TSortedMap is a transactional ordered map from K to V with per-key
// TTL, implemented as a single-level B-link-style tree: an immutable
// descriptor (key separators + leaf array) behind one root variable,
// each leaf a transactional variable holding an immutable sorted slice.
//
// Point operations (Get, Put, PutTTL, Delete) run as one nested
// transaction touching the root (read) and a single leaf, so operations
// on different leaves by parallel siblings do not conflict. Range
// operations (RangeScan, RangeFrom, RangeCount, Len, ExportEntries)
// walk the touched leaf span in waves; a wave forks one nested child per
// fork.LeavesPerChild leaves, at most one per worker, via fork.Each — the
// paper's parallel-nesting shape applied to an ordered structure — and
// a wave too short to pay for a fork runs as one nested child. A scan
// with a limit touches only the leaves expected to hold that many
// entries and widens in waves if they fall short, so it neither reads
// nor conflicts on the rest of [lo, hi). The retry unit is a wave's
// child: a concurrent writer that invalidates its leaves aborts and
// retries that child, not the whole scan. On a one-worker runtime every
// wave is one child (the serial baseline the rangescan A/B measures
// against).
//
// TTL semantics: PutTTL attaches an absolute deadline; reads (Get,
// RangeScan, RangeCount) hide entries past their deadline, while
// mutations (Put, Delete) act on the physical entry regardless —
// physical removal is the reaper's job via ExpireThrough, which is
// deterministic given an explicit cutoff and therefore safe to log and
// replay. Len counts physical entries, swept or not.
//
// Create with NewTSortedMap; the zero value is not usable.
type TSortedMap[K cmp.Ordered, V any] struct {
	root    *pnstm.TVar[*smTree[K, V]]
	maxLeaf int

	label   string
	leafSeq atomic.Uint64

	// hook, when set, is invoked inside the mutating transaction
	// whenever a key's deadline changes (oldExp → newExp, either may be
	// 0) — the registry uses it to maintain its deadline index.
	hook func(c *pnstm.Ctx, oldExp, newExp int64, k K)
}

// NewTSortedMap returns an empty sorted map.
func NewTSortedMap[K cmp.Ordered, V any]() *TSortedMap[K, V] {
	var zero K
	m := &TSortedMap[K, V]{maxLeaf: smMaxLeaf}
	m.root = pnstm.NewTVar(&smTree[K, V]{
		lows:   []K{zero},
		leaves: []*pnstm.TVar[[]SortedEntry[K, V]]{pnstm.NewTVar[[]SortedEntry[K, V]](nil)},
	})
	return m
}

// SetLabel names the map's variables for conflict attribution (D35):
// the descriptor becomes "s:<name>/root" and leaf j "s:<name>/leaf<j>"
// in flight-recorder events. Call once at construction time, before
// transactions touch the map; leaves created by later splits label
// themselves.
func (m *TSortedMap[K, V]) SetLabel(name string) {
	m.label = name
	m.root.SetLabel("s:" + name + "/root")
	for _, leaf := range m.root.Peek().leaves {
		leaf.SetLabel("s:" + name + "/leaf" + itoa(int(m.leafSeq.Add(1))))
	}
}

// SetExpiryHook installs the deadline-change callback (registry index
// maintenance). Call once at construction time.
func (m *TSortedMap[K, V]) SetExpiryHook(h func(c *pnstm.Ctx, oldExp, newExp int64, k K)) {
	m.hook = h
}

// newLeaf allocates a leaf variable holding es, labeled if the map is.
func (m *TSortedMap[K, V]) newLeaf(es []SortedEntry[K, V]) *pnstm.TVar[[]SortedEntry[K, V]] {
	tv := pnstm.NewTVar(es)
	if m.label != "" {
		tv.SetLabel("s:" + m.label + "/leaf" + itoa(int(m.leafSeq.Add(1))))
	}
	return tv
}

// Get returns the live value stored under k: an entry past its TTL
// deadline is hidden (reported absent) even before the reaper sweeps
// it.
func (m *TSortedMap[K, V]) Get(c *pnstm.Ctx, k K) (V, bool) {
	return m.getAt(c, k, nowNanos())
}

func (m *TSortedMap[K, V]) getAt(c *pnstm.Ctx, k K, now int64) (V, bool) {
	var v V
	var ok bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		v, ok = *new(V), false
		t := pnstm.Load(c, m.root)
		es := pnstm.Load(c, t.leaves[t.leafFor(k)])
		if i, found := findEntry(es, k); found {
			e := es[i]
			if e.Exp == 0 || e.Exp > now {
				v, ok = e.Value, true
			}
		}
		return nil
	})
	return v, ok
}

// Put stores v under k with no TTL, replacing any previous value (and
// clearing any previous deadline).
func (m *TSortedMap[K, V]) Put(c *pnstm.Ctx, k K, v V) {
	m.put(c, k, v, 0)
}

// PutTTL stores v under k with an absolute expiry deadline in Unix
// nanoseconds. Reads hide the entry once the deadline passes; the
// reaper removes it physically via ExpireThrough. exp <= 0 behaves like
// Put.
func (m *TSortedMap[K, V]) PutTTL(c *pnstm.Ctx, k K, v V, exp int64) {
	if exp < 0 {
		exp = 0
	}
	m.put(c, k, v, exp)
}

func (m *TSortedMap[K, V]) put(c *pnstm.Ctx, k K, v V, exp int64) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		t := pnstm.Load(c, m.root)
		li := t.leafFor(k)
		tv := t.leaves[li]
		es := pnstm.Load(c, tv)
		i, found := findEntry(es, k)
		var oldExp int64
		next := make([]SortedEntry[K, V], 0, len(es)+1)
		next = append(next, es[:i]...)
		next = append(next, SortedEntry[K, V]{Key: k, Value: v, Exp: exp})
		if found {
			oldExp = es[i].Exp
			next = append(next, es[i+1:]...)
		} else {
			next = append(next, es[i:]...)
		}
		if len(next) <= m.maxLeaf {
			pnstm.Store(c, tv, next)
		} else {
			m.splitLeaf(c, t, li, next)
		}
		if m.hook != nil && oldExp != exp {
			m.hook(c, oldExp, exp, k)
		}
		return nil
	})
}

// splitLeaf replaces leaf li with two halves of full and publishes the
// new descriptor. Leaves are never merged back; an empty leaf is
// harmless and its key range stays valid.
func (m *TSortedMap[K, V]) splitLeaf(c *pnstm.Ctx, t *smTree[K, V], li int, full []SortedEntry[K, V]) {
	mid := len(full) / 2
	left := m.newLeaf(full[:mid:mid])
	right := m.newLeaf(full[mid:])
	lows := make([]K, 0, len(t.lows)+1)
	lows = append(lows, t.lows[:li+1]...)
	lows = append(lows, full[mid].Key)
	lows = append(lows, t.lows[li+1:]...)
	leaves := make([]*pnstm.TVar[[]SortedEntry[K, V]], 0, len(t.leaves)+1)
	leaves = append(leaves, t.leaves[:li]...)
	leaves = append(leaves, left, right)
	leaves = append(leaves, t.leaves[li+1:]...)
	pnstm.Store(c, m.root, &smTree[K, V]{lows: lows, leaves: leaves})
}

// Delete removes k physically — deadline or not — and reports whether
// an entry (live or expired-unswept) was present.
func (m *TSortedMap[K, V]) Delete(c *pnstm.Ctx, k K) bool {
	var had bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		had = false
		t := pnstm.Load(c, m.root)
		tv := t.leaves[t.leafFor(k)]
		es := pnstm.Load(c, tv)
		i, found := findEntry(es, k)
		if !found {
			return nil
		}
		had = true
		oldExp := es[i].Exp
		next := make([]SortedEntry[K, V], 0, len(es)-1)
		next = append(next, es[:i]...)
		next = append(next, es[i+1:]...)
		pnstm.Store(c, tv, next)
		if m.hook != nil && oldExp != 0 {
			m.hook(c, oldExp, 0, k)
		}
		return nil
	})
	return had
}

// ExpireThrough removes k iff it carries a deadline at or before
// cutoff, reporting whether it did. This is the reaper's primitive:
// given an explicit cutoff it is deterministic — no wall clock — so the
// operation can be logged and replayed byte-for-byte.
func (m *TSortedMap[K, V]) ExpireThrough(c *pnstm.Ctx, k K, cutoff int64) bool {
	var swept bool
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		swept = false
		t := pnstm.Load(c, m.root)
		tv := t.leaves[t.leafFor(k)]
		es := pnstm.Load(c, tv)
		i, found := findEntry(es, k)
		if !found || es[i].Exp == 0 || es[i].Exp > cutoff {
			return nil
		}
		swept = true
		oldExp := es[i].Exp
		next := make([]SortedEntry[K, V], 0, len(es)-1)
		next = append(next, es[:i]...)
		next = append(next, es[i+1:]...)
		pnstm.Store(c, tv, next)
		if m.hook != nil {
			m.hook(c, oldExp, 0, k)
		}
		return nil
	})
	return swept
}

// RangeScan returns the live entries with lo <= key < hi in ascending
// key order, at most limit of them (limit <= 0: unlimited). The leaf
// span — with a limit, the leading part of it that holds the result — is
// scanned in waves of nested children (see scan).
func (m *TSortedMap[K, V]) RangeScan(c *pnstm.Ctx, lo, hi K, limit int) []SortedEntry[K, V] {
	if !cmp.Less(lo, hi) {
		return nil
	}
	return m.scan(c, lo, true, true, hi, limit, nowNanos(), true)
}

// RangeFrom is RangeScan with no upper bound: live entries with
// key >= lo.
func (m *TSortedMap[K, V]) RangeFrom(c *pnstm.Ctx, lo K, limit int) []SortedEntry[K, V] {
	return m.scan(c, lo, true, false, lo, limit, nowNanos(), true)
}

// RangeCount returns the number of live entries with lo <= key < hi,
// counted like RangeScan collects them.
func (m *TSortedMap[K, V]) RangeCount(c *pnstm.Ctx, lo, hi K) int {
	if !cmp.Less(lo, hi) {
		return 0
	}
	return len(m.scan(c, lo, true, true, hi, 0, nowNanos(), false))
}

// RangeCountFrom is RangeCount with no upper bound.
func (m *TSortedMap[K, V]) RangeCountFrom(c *pnstm.Ctx, lo K) int {
	return len(m.scan(c, lo, true, false, lo, 0, nowNanos(), false))
}

// scan is the shared walk behind every scan, count and export. With
// withValues false the returned entries carry only keys (counting mode).
// now filters lazily-expired entries; a cutoff of 0 disables filtering
// (export). With hasLo false the walk starts at the first leaf
// (full-range export).
//
// The touched leaf span is walked in waves inside the one enclosing
// transaction (D49). With limit <= 0 a single wave covers the whole
// span. With a limit the first wave covers only the leaves that can be
// expected to hold it — a split leaves both halves at least half full,
// plus one for the partly covered first leaf — and a further wave, twice
// as wide, runs only while the result is short and leaves remain
// (deletes and expiry can leave leaves sparse or empty). A wave is
// priced like every fork (fork.Each): a child per
// fork.LeavesPerChild leaves, at most one per worker, so a short wave is
// one nested child and a long one fans out. A wave's child is the retry
// unit: a concurrent writer that invalidates its leaves retries that
// child alone.
func (m *TSortedMap[K, V]) scan(c *pnstm.Ctx, lo K, hasLo, bounded bool, hi K, limit int, now int64, withValues bool) []SortedEntry[K, V] {
	var out []SortedEntry[K, V]
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		out = nil // a retried body must not append to the last attempt's result
		t := pnstm.Load(c, m.root)
		next := 0
		if hasLo {
			next = t.leafFor(lo)
		}
		end := len(t.leaves)
		if bounded {
			end = t.leafFor(hi) + 1
		}
		width := end - next
		if limit > 0 {
			// ceil(limit/half) leaves, and one more; the half is clamped
			// because maxLeaf may be 1, and the comparison comes before
			// the +1 so that a limit near MaxInt cannot overflow.
			half := max(1, m.maxLeaf/2)
			if w := (limit-1)/half + 1; w < width {
				width = w + 1
			}
		}
		for next < end && (limit <= 0 || len(out) < limit) {
			w := scanWave[K, V]{
				leaves: t.leaves[next:min(end, next+width)],
				lo:     lo, hi: hi, hasLo: hasLo, bounded: bounded,
				owed: limit - len(out), now: now, withValues: withValues,
			}
			next += len(w.leaves)
			width *= 2
			forEachGroup(c, len(w.leaves), fork.LeavesPerChild, w, func(p []SortedEntry[K, V]) {
				if limit > 0 {
					p = p[:min(len(p), limit-len(out))]
				}
				switch {
				case len(p) == 0:
				case out == nil:
					out = p // the first part is the result: no merge copy
				default:
					out = append(out, p...)
				}
			})
		}
		return nil
	})
	return out
}

// scanWave is one wave of a scan, a value so that a wave that does not
// fork costs no object of its own: do collects the entries of
// leaves[from:to] inside the scan's range, live at now (0: all), at most
// owed of them when owed > 0.
type scanWave[K cmp.Ordered, V any] struct {
	leaves         []*pnstm.TVar[[]SortedEntry[K, V]]
	lo, hi         K
	hasLo, bounded bool
	owed           int
	now            int64
	withValues     bool
}

func (w scanWave[K, V]) Do(c *pnstm.Ctx, from, to int) []SortedEntry[K, V] {
	// One Load per leaf: the loaded slices wait in a stack buffer while
	// part is sized, once, from their sum clipped to what is owed.
	var buf [8][]SortedEntry[K, V]
	loaded, n := buf[:0], 0
	for _, leaf := range w.leaves[from:to] {
		es := pnstm.Load(c, leaf)
		loaded, n = append(loaded, es), n+len(es)
	}
	if w.owed > 0 {
		n = min(n, w.owed)
	}
	part := make([]SortedEntry[K, V], 0, n)
	for _, es := range loaded {
		for _, e := range es {
			if w.hasLo && cmp.Less(e.Key, w.lo) {
				continue
			}
			if w.bounded && !cmp.Less(e.Key, w.hi) {
				return part
			}
			if w.now > 0 && e.Exp > 0 && e.Exp <= w.now {
				continue
			}
			if !w.withValues {
				e.Value = *new(V)
			}
			if part = append(part, e); len(part) == n {
				return part // every entry taken, or all that is owed
			}
		}
	}
	return part
}

// Len returns the PHYSICAL entry count — expired-but-unswept entries
// included — counted by nested children over the leaves, priced like a
// scan's wave. (Reads hide expired entries; Len deliberately does not,
// so sweeps are observable: after the reaper runs, Len drops.)
func (m *TSortedMap[K, V]) Len(c *pnstm.Ctx) int {
	var total int
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		t := pnstm.Load(c, m.root)
		total = 0
		forEachGroup(c, len(t.leaves), fork.LeavesPerChild, jobFunc[int](func(c *pnstm.Ctx, lo, hi int) int {
			n := 0
			for _, leaf := range t.leaves[lo:hi] {
				n += len(pnstm.Load(c, leaf))
			}
			return n
		}), func(n int) { total += n })
		return nil
	})
	return total
}

// ExportEntries captures every physical entry — deadlines included,
// expired-unswept included — in ascending key order: the sorted map's
// snapshot payload, collected in one wave like an unlimited scan.
func (m *TSortedMap[K, V]) ExportEntries(c *pnstm.Ctx) []SortedEntry[K, V] {
	var zero K
	return m.scan(c, zero, false, false, zero, 0, 0, true)
}

// ImportEntries merges exported entries back in (overwriting by key),
// preserving deadlines and — through the expiry hook — rebuilding the
// registry's deadline index, which snapshots deliberately do not
// serialize.
func (m *TSortedMap[K, V]) ImportEntries(c *pnstm.Ctx, entries []SortedEntry[K, V]) {
	if len(entries) == 0 {
		return
	}
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		for _, e := range entries {
			m.put(c, e.Key, e.Value, e.Exp)
		}
		return nil
	})
}

// nowNanos is the wall clock lazy TTL hiding reads against. Mutations
// never consult it — deterministic replay depends on that.
func nowNanos() int64 { return time.Now().UnixNano() }
