package stmlib

import (
	"cmp"
	"iter"
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
// key order, at most limit of them (limit <= 0: unlimited), in one slice
// of exactly that length. The leaf span — with a limit, the leading part
// of it that holds the result — is scanned in waves of nested children
// (see scan).
func (m *TSortedMap[K, V]) RangeScan(c *pnstm.Ctx, lo, hi K, limit int) []SortedEntry[K, V] {
	v := m.RangeView(c, lo, hi, limit)
	return v.entries()
}

// RangeFrom is RangeScan with no upper bound: live entries with
// key >= lo.
func (m *TSortedMap[K, V]) RangeFrom(c *pnstm.Ctx, lo K, limit int) []SortedEntry[K, V] {
	v := m.RangeViewFrom(c, lo, limit)
	return v.entries()
}

// RangeView is RangeScan's answer without a copy: views of the leaves
// the scan read (see SortedView), for a caller that only passes the
// entries on.
func (m *TSortedMap[K, V]) RangeView(c *pnstm.Ctx, lo, hi K, limit int) (v SortedView[K, V]) {
	if cmp.Less(lo, hi) {
		m.scan(c, &v, lo, true, true, hi, limit, nowNanos())
	}
	return v
}

// RangeViewFrom is RangeView with no upper bound.
func (m *TSortedMap[K, V]) RangeViewFrom(c *pnstm.Ctx, lo K, limit int) (v SortedView[K, V]) {
	m.scan(c, &v, lo, true, false, lo, limit, nowNanos())
	return v
}

// RangeCount returns the number of live entries with lo <= key < hi,
// counted over the views a RangeScan would collect them from.
func (m *TSortedMap[K, V]) RangeCount(c *pnstm.Ctx, lo, hi K) int {
	v := m.RangeView(c, lo, hi, 0)
	return v.Len()
}

// RangeCountFrom is RangeCount with no upper bound.
func (m *TSortedMap[K, V]) RangeCountFrom(c *pnstm.Ctx, lo K) int {
	v := m.RangeViewFrom(c, lo, 0)
	return v.Len()
}

// scan is the shared walk behind every scan, count and export: it fills
// v with views of the leaves it reads, each cut to the range, and sets
// the cutoff v hides lazily-expired entries at (now; 0 hides nothing,
// for export). With hasLo false the walk starts at the first leaf
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
// child alone, and the child's views start again from nothing.
func (m *TSortedMap[K, V]) scan(c *pnstm.Ctx, v *SortedView[K, V], lo K, hasLo, bounded bool, hi K, limit int, now int64) {
	_ = c.Atomic(func(c *pnstm.Ctx) error {
		// A retried body must not keep the last attempt's views.
		*v = SortedView[K, V]{now: now, tail: v.tail[:0]}
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
		got := 0 // live entries taken, counted only under a limit
		for next < end && (limit <= 0 || got < limit) {
			w := scanWave[K, V]{
				leaves: t.leaves[next:min(end, next+width)],
				lo:     lo, hi: hi, hasLo: hasLo, bounded: bounded,
				owed: limit - got, now: now,
			}
			next += len(w.leaves)
			width *= 2
			v.reserve(len(w.leaves)) // a view a leaf at most, so merge never regrows
			forEachGroup(c, len(w.leaves), fork.LeavesPerChild, w, func(p SortedView[K, V]) {
				if limit > 0 {
					p.cut(limit - got)
					got += p.counted
				}
				v.merge(&p)
			})
		}
		return nil
	})
}

// scanWave is one wave of a scan, a value so that a wave that does not
// fork costs no object of its own: Do returns views of leaves[from:to]
// cut to the scan's range and, when owed > 0, to the first owed entries
// live at now.
type scanWave[K cmp.Ordered, V any] struct {
	leaves         []*pnstm.TVar[[]SortedEntry[K, V]]
	lo, hi         K
	hasLo, bounded bool
	owed           int
	now            int64
}

func (w scanWave[K, V]) Do(c *pnstm.Ctx, from, to int) SortedView[K, V] {
	p := SortedView[K, V]{now: w.now}
	p.reserve(to - from)
	for _, leaf := range w.leaves[from:to] {
		es := pnstm.Load(c, leaf)
		if w.hasLo && len(es) > 0 && cmp.Less(es[0].Key, w.lo) {
			i, _ := findEntry(es, w.lo)
			es = es[i:]
		}
		if w.bounded && len(es) > 0 && !cmp.Less(es[len(es)-1].Key, w.hi) {
			i, _ := findEntry(es, w.hi)
			es = es[:i]
		}
		if w.owed > 0 {
			i, n := p.take(es, w.owed-p.counted)
			es, p.counted = es[:i], p.counted+n
		}
		p.add(es)
		if w.owed > 0 && p.counted == w.owed {
			break // all that is owed: the rest of the wave is not read
		}
	}
	return p
}

// viewsInline is how many leaf views a SortedView holds in itself: a scan
// of up to that many leaves — a limit-64 scan's first wave, a count over
// a few hundred keys — keeps its views in its caller's frame, and only a
// wider one allocates room for the rest.
const viewsInline = 16

// A SortedView is a range read's answer as views of the leaf slices the
// scan loaded: no entry is copied. A leaf slice, once stored, is never
// written — Put, the split and every removal store a new slice — so a
// view keeps exactly what the scan read after its transaction ends. Each
// view is already cut to the range and, for a limited read, to the
// limit; entries past their deadline at the read's instant are hidden as
// the view is read (Len, All). The zero value is an empty view.
type SortedView[K cmp.Ordered, V any] struct {
	now     int64 // the read's instant: entries expired by then are hidden (0: none)
	n       int   // views held
	counted int   // live entries a limited wave took (see scan)
	head    [viewsInline][]SortedEntry[K, V]
	tail    [][]SortedEntry[K, V] // views past the first viewsInline
}

// reserve makes room for k more views in one allocation at most.
func (v *SortedView[K, V]) reserve(k int) {
	if over := v.n + k - viewsInline; over > 0 && cap(v.tail)-len(v.tail) < over {
		v.tail = append(make([][]SortedEntry[K, V], 0, len(v.tail)+over), v.tail...)
	}
}

// add appends es as the next view; an empty one is dropped.
func (v *SortedView[K, V]) add(es []SortedEntry[K, V]) {
	switch {
	case len(es) == 0:
		return
	case v.n < viewsInline:
		v.head[v.n] = es
	default:
		v.tail = append(v.tail[:v.n-viewsInline], es)
	}
	v.n++
}

func (v *SortedView[K, V]) view(i int) []SortedEntry[K, V] {
	if i < viewsInline {
		return v.head[i]
	}
	return v.tail[i-viewsInline]
}

// merge appends p's views after v's.
func (v *SortedView[K, V]) merge(p *SortedView[K, V]) {
	v.reserve(p.n)
	for i := 0; i < p.n; i++ {
		v.add(p.view(i))
	}
}

func (v *SortedView[K, V]) live(e *SortedEntry[K, V]) bool {
	return v.now == 0 || e.Exp == 0 || e.Exp > v.now
}

// take returns how much of es holds its first k live entries (all of es
// when it holds fewer) and how many live entries that is.
func (v *SortedView[K, V]) take(es []SortedEntry[K, V], k int) (i, n int) {
	for i = range es {
		if v.live(&es[i]) {
			if n == k {
				return i, n
			}
			n++
		}
	}
	return len(es), n
}

// cut keeps the first k live entries of a limited wave's views.
func (v *SortedView[K, V]) cut(k int) {
	if v.counted <= k {
		return
	}
	v.counted = k
	for i := 0; i < v.n; i++ {
		es := v.view(i)
		j, n := v.take(es, k)
		if k -= n; k == 0 {
			v.n = i // drop view i and those after it, then keep i's head
			v.add(es[:j])
			return
		}
	}
}

// Len returns the number of entries in the view.
func (v *SortedView[K, V]) Len() int {
	n := 0
	for i := 0; i < v.n; i++ {
		es := v.view(i)
		for j := range es {
			if v.live(&es[j]) {
				n++
			}
		}
	}
	return n
}

// All yields the view's entries in ascending key order. An entry's Value
// is the one stored in the map: a caller must not write through it.
func (v *SortedView[K, V]) All() iter.Seq[SortedEntry[K, V]] {
	return func(yield func(SortedEntry[K, V]) bool) {
		for i := 0; i < v.n; i++ {
			es := v.view(i)
			for j := range es {
				if v.live(&es[j]) && !yield(es[j]) {
					return
				}
			}
		}
	}
}

// entries copies the view into one slice of exactly its length (nil when
// it is empty).
func (v *SortedView[K, V]) entries() []SortedEntry[K, V] {
	n := v.Len()
	if n == 0 {
		return nil
	}
	out := make([]SortedEntry[K, V], 0, n)
	for i := 0; i < v.n; i++ {
		es := v.view(i)
		for j := range es {
			if v.live(&es[j]) {
				out = append(out, es[j])
			}
		}
	}
	return out
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
	var v SortedView[K, V]
	m.scan(c, &v, zero, false, false, zero, 0, 0)
	return v.entries()
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
