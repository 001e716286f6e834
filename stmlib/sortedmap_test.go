package stmlib_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pnstm"
	"pnstm/stmlib"
)

func TestTSortedMapBasic(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			rt := newRT(t, 2, serial)
			m := stmlib.NewTSortedMap[string, int]()
			run(t, rt, func(c *pnstm.Ctx) {
				if _, ok := m.Get(c, "a"); ok {
					t.Error("get on empty map found a value")
				}
				m.Put(c, "b", 2)
				m.Put(c, "a", 1)
				m.Put(c, "c", 3)
				if v, ok := m.Get(c, "b"); !ok || v != 2 {
					t.Errorf("get b = %d,%v", v, ok)
				}
				m.Put(c, "b", 20) // overwrite
				if v, _ := m.Get(c, "b"); v != 20 {
					t.Errorf("get b after overwrite = %d", v)
				}
				if !m.Delete(c, "a") {
					t.Error("delete a = false")
				}
				if m.Delete(c, "a") {
					t.Error("double delete a = true")
				}
				if m.Contains(c, "a") {
					t.Error("a still present after delete")
				}
				if n := m.Len(c); n != 2 {
					t.Errorf("len = %d want 2", n)
				}
			})
		})
	}
}

// TestTSortedMapOrderAcrossSplits inserts enough random keys to force
// many leaf splits and checks that a full scan comes back sorted and
// complete, and that point lookups still land after the splits.
func TestTSortedMapOrderAcrossSplits(t *testing.T) {
	rt := newRT(t, 4, false)
	m := stmlib.NewTSortedMap[string, int]()
	const n = 1000
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", rng.Intn(1<<30))
	}
	run(t, rt, func(c *pnstm.Ctx) {
		for i, k := range keys {
			m.Put(c, k, i)
		}
	})
	run(t, rt, func(c *pnstm.Ctx) {
		got := m.RangeFrom(c, "", 0)
		want := make(map[string]int, n)
		for i, k := range keys {
			want[k] = i // later writes win on duplicate keys
		}
		if len(got) != len(want) {
			t.Fatalf("scan returned %d entries want %d", len(got), len(want))
		}
		for i, e := range got {
			if i > 0 && got[i-1].Key >= e.Key {
				t.Fatalf("scan out of order at %d: %q >= %q", i, got[i-1].Key, e.Key)
			}
			if want[e.Key] != e.Value {
				t.Errorf("key %q = %d want %d", e.Key, e.Value, want[e.Key])
			}
		}
		for k, v := range want {
			if gv, ok := m.Get(c, k); !ok || gv != v {
				t.Fatalf("get %q = %d,%v want %d", k, gv, ok, v)
			}
		}
	})
}

func TestTSortedMapRangeBoundsAndLimit(t *testing.T) {
	rt := newRT(t, 2, false)
	m := stmlib.NewTSortedMap[int, string]()
	run(t, rt, func(c *pnstm.Ctx) {
		for i := 0; i < 100; i += 2 { // evens 0..98
			m.Put(c, i, fmt.Sprint(i))
		}
		// [lo, hi): 10..30 exclusive of 30.
		got := m.RangeScan(c, 10, 30, 0)
		if len(got) != 10 || got[0].Key != 10 || got[len(got)-1].Key != 28 {
			t.Fatalf("range [10,30) = %v", got)
		}
		// Limit truncates from the low end.
		got = m.RangeScan(c, 10, 30, 3)
		if len(got) != 3 || got[2].Key != 14 {
			t.Fatalf("limited range = %v", got)
		}
		// Empty and inverted ranges.
		if got := m.RangeScan(c, 30, 30, 0); got != nil {
			t.Errorf("empty range = %v", got)
		}
		if got := m.RangeScan(c, 40, 20, 0); got != nil {
			t.Errorf("inverted range = %v", got)
		}
		// Bounds between keys.
		if n := m.RangeCount(c, 11, 15); n != 2 { // 12, 14
			t.Errorf("count (11,15) = %d want 2", n)
		}
		if n := m.RangeCountFrom(c, 90); n != 5 { // 90..98
			t.Errorf("count from 90 = %d want 5", n)
		}
	})
}

// TestTSortedMapNegativeKeys pins the hasLo fix: a full export must
// include keys that sort before the zero value of the key type.
func TestTSortedMapNegativeKeys(t *testing.T) {
	rt := newRT(t, 2, false)
	m := stmlib.NewTSortedMap[int, int]()
	run(t, rt, func(c *pnstm.Ctx) {
		for _, k := range []int{-5, -1, 0, 3} {
			m.Put(c, k, k*10)
		}
		es := m.ExportEntries(c)
		if len(es) != 4 || es[0].Key != -5 || es[3].Key != 3 {
			t.Fatalf("export = %v", es)
		}
		if n := m.Len(c); n != 4 {
			t.Errorf("len = %d", n)
		}
	})
}

// TestTSortedMapParallelScanWriters runs a parallel-nested scan while
// sibling children mutate disjoint subranges: the paper's partial-abort
// claim means each scan child retries alone, and the committed scan
// still sees a consistent cut.
func TestTSortedMapParallelScanWriters(t *testing.T) {
	rt := newRT(t, 8, false)
	m := stmlib.NewTSortedMap[string, int]()
	const n = 400
	run(t, rt, func(c *pnstm.Ctx) {
		for i := 0; i < n; i++ {
			m.Put(c, fmt.Sprintf("k%06d", i), 1)
		}
	})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			_ = rt.Run(func(c *pnstm.Ctx) {
				// Rewrite a value without changing the key population, so
				// scans conflict but totals stay fixed.
				m.Put(c, fmt.Sprintf("k%06d", i%n), i)
			})
		}
	}()
	for iter := 0; iter < 30; iter++ {
		run(t, rt, func(c *pnstm.Ctx) {
			if got := m.RangeCountFrom(c, ""); got != n {
				t.Fatalf("scan under churn saw %d keys want %d", got, n)
			}
		})
	}
	close(stop)
	<-done
}

func TestTSortedMapTTL(t *testing.T) {
	rt := newRT(t, 2, false)
	m := stmlib.NewTSortedMap[string, int]()
	now := time.Now().UnixNano()
	past, future := now-int64(time.Hour), now+int64(time.Hour)
	run(t, rt, func(c *pnstm.Ctx) {
		m.PutTTL(c, "dead", 1, past)
		m.PutTTL(c, "live", 2, future)
		m.Put(c, "forever", 3)
		// Reads hide the expired entry but the entry is still physically
		// present until a reap removes it.
		if _, ok := m.Get(c, "dead"); ok {
			t.Error("expired key visible to Get")
		}
		if v, ok := m.Get(c, "live"); !ok || v != 2 {
			t.Errorf("live = %d,%v", v, ok)
		}
		if got := m.RangeFrom(c, "", 0); len(got) != 2 {
			t.Errorf("scan = %v want live+forever only", got)
		}
		if n := m.Len(c); n != 3 {
			t.Errorf("physical len = %d want 3", n)
		}
		// Overwriting an expired-but-unreaped key resurrects it.
		m.Put(c, "dead", 9)
		if v, ok := m.Get(c, "dead"); !ok || v != 9 {
			t.Errorf("resurrected = %d,%v", v, ok)
		}
		// ExpireThrough only removes entries whose deadline has passed
		// the cutoff; "dead" now has no deadline at all.
		if m.ExpireThrough(c, "dead", now) {
			t.Error("ExpireThrough removed a key with no deadline")
		}
		if m.ExpireThrough(c, "live", now) {
			t.Error("ExpireThrough removed a key due in the future")
		}
		m.PutTTL(c, "soon", 4, now-1)
		if !m.ExpireThrough(c, "soon", now) {
			t.Error("ExpireThrough missed a due key")
		}
		if m.Contains(c, "soon") {
			t.Error("soon still present after expire")
		}
	})
}

func TestTSortedMapExportImportRoundTrip(t *testing.T) {
	rt := newRT(t, 2, false)
	m := stmlib.NewTSortedMap[string, int]()
	future := time.Now().Add(time.Hour).UnixNano()
	run(t, rt, func(c *pnstm.Ctx) {
		m.Put(c, "a", 1)
		m.PutTTL(c, "b", 2, future)
		m.Put(c, "c", 3)
	})
	var es []stmlib.SortedEntry[string, int]
	run(t, rt, func(c *pnstm.Ctx) { es = m.ExportEntries(c) })
	m2 := stmlib.NewTSortedMap[string, int]()
	run(t, rt, func(c *pnstm.Ctx) { m2.ImportEntries(c, es) })
	run(t, rt, func(c *pnstm.Ctx) {
		es2 := m2.ExportEntries(c)
		if len(es2) != 3 {
			t.Fatalf("reimported %d entries want 3", len(es2))
		}
		for i, e := range es2 {
			if e != es[i] {
				t.Errorf("entry %d = %+v want %+v", i, e, es[i])
			}
		}
		if es2[1].Exp != future {
			t.Errorf("TTL lost across export/import: exp = %d", es2[1].Exp)
		}
	})
}
