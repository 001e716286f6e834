package stmlib

import (
	"errors"
	"slices"
	"testing"

	"pnstm"
)

// TestBucketCollisionPremise pins what the collision oracle
// (TestOracleTMapHashCollisions) relies on: 1.25 and 1.75 share a hash.
func TestBucketCollisionPremise(t *testing.T) {
	if hashKey(1.25) != hashKey(1.75) {
		t.Fatal("hashKey(1.25) != hashKey(1.75): the collision oracle no longer collides")
	}
}

// TestBucketIndexMatchesRegistryMaps: Registry.MapBucket names the bucket
// the registry's maps file a key under, at the default and at a bucket
// count that is not a power of two.
func TestBucketIndexMatchesRegistryMaps(t *testing.T) {
	for _, buckets := range []int{0, 12} {
		r := NewRegistry(RegistryConfig{MapBuckets: buckets})
		m := r.Map("m")
		for i := 0; i < 500; i++ {
			k := itoa(i * 7919)
			if got, want := r.MapBucket(k), int(hashKey(k)&m.mask); got != want {
				t.Fatalf("buckets %d: MapBucket(%q) = %d, the map files it in %d", buckets, k, got, want)
			}
		}
	}
}

// TestBucketImmutableUnderAbort: a write never touches the slice a bucket
// holds, only a copy of it. After each write below is rolled back, the
// bucket holds the very slice it held before, with the same contents —
// which would not survive a write into the stored array, because rollback
// restores the slice by reference.
func TestBucketImmutableUnderAbort(t *testing.T) {
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := NewTMap[float64, int](1)
	keys := []float64{0.5, 1.25, 1.75, 2, 3, 4, 5, 6}
	if err := rt.Run(func(c *pnstm.Ctx) {
		for i, k := range keys {
			m.PutTTL(c, k, i, int64(1+i%2))
		}
	}); err != nil {
		t.Fatal(err)
	}
	replace := func(_ float64, v int, _ bool) (int, bool) { return v + 100, true }
	writes := map[string]func(c *pnstm.Ctx){
		"Put/replace":        func(c *pnstm.Ctx) { m.Put(c, 1.75, 99) },
		"Put/insert":         func(c *pnstm.Ctx) { m.Put(c, 1.5, 99) },
		"PutTTL/replace":     func(c *pnstm.Ctx) { m.PutTTL(c, 3, 99, 7) },
		"Delete":             func(c *pnstm.Ctx) { m.Delete(c, 1.25) },
		"ExpireThrough":      func(c *pnstm.Ctx) { m.ExpireThrough(c, 0.5, 10) },
		"BulkUpdate/replace": func(c *pnstm.Ctx) { m.BulkUpdate(c, []float64{1.25, 1.75, 5}, replace) },
		"BulkUpdate/insert":  func(c *pnstm.Ctx) { m.BulkUpdate(c, []float64{1.5, 7}, replace) },
		"BulkUpdate/delete": func(c *pnstm.Ctx) {
			m.BulkUpdate(c, keys[:3], func(float64, int, bool) (int, bool) { return 0, false })
		},
		"ImportTTLs": func(c *pnstm.Ctx) { m.ImportTTLs(c, map[float64]int64{2: 9, 6: 9}) },
	}
	abort := errors.New("abort")
	for name, write := range writes {
		before := m.buckets[0].Peek()
		want := slices.Clone(before)
		var inside []entry[float64, int]
		if err := rt.Run(func(c *pnstm.Ctx) {
			if err := c.Atomic(func(c *pnstm.Ctx) error {
				write(c)
				inside = pnstm.Load(c, m.buckets[0])
				return abort
			}); err != abort {
				t.Errorf("%s: Atomic = %v", name, err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		after := m.buckets[0].Peek()
		if slices.Equal(inside, want) {
			t.Errorf("%s: the write changed nothing, so it tests nothing", name)
		}
		if len(after) != len(before) || &after[0] != &before[0] {
			t.Errorf("%s: rollback did not restore the stored slice", name)
		}
		if !slices.Equal(after, want) {
			t.Errorf("%s: stored bucket changed under an aborted write:\n got %v\nwant %v", name, after, want)
		}
	}
}

// TestBucketImportTTLsCopiesOnlyChanges: ImportTTLs stores a bucket only
// when one of its deadlines changes. Re-importing the deadlines a bucket
// already holds, or one for an absent key, leaves the very slice in place
// and fires no hook; a changed deadline is written into a copy.
func TestBucketImportTTLsCopiesOnlyChanges(t *testing.T) {
	rt, err := pnstm.New(pnstm.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	m := NewTMap[int, int](1)
	hooks := 0
	m.SetExpiryHook(func(*pnstm.Ctx, int64, int64, int) { hooks++ })
	if err := rt.Run(func(c *pnstm.Ctx) {
		m.PutTTL(c, 1, 1, 5)
		m.PutTTL(c, 2, 2, 6)
	}); err != nil {
		t.Fatal(err)
	}
	importTTLs := func(ttls map[int]int64) {
		hooks = 0
		if err := rt.Run(func(c *pnstm.Ctx) { m.ImportTTLs(c, ttls) }); err != nil {
			t.Fatal(err)
		}
	}
	before := m.buckets[0].Peek()
	importTTLs(map[int]int64{1: 5, 2: 6, 3: 7})
	if after := m.buckets[0].Peek(); &after[0] != &before[0] || hooks != 0 {
		t.Errorf("unchanged deadlines: bucket replaced %v, %d hook calls", &after[0] != &before[0], hooks)
	}
	importTTLs(map[int]int64{1: 5, 2: 8})
	after := m.buckets[0].Peek()
	if &after[0] == &before[0] || hooks != 1 {
		t.Errorf("one changed deadline: bucket replaced %v, %d hook calls", &after[0] != &before[0], hooks)
	}
	exp := func(b []entry[int, int], k int) int64 {
		i, _ := find(b, hashKey(k), k)
		return b[i].exp
	}
	if exp(before, 2) != 6 || exp(after, 1) != 5 || exp(after, 2) != 8 {
		t.Errorf("deadlines before %v, after %v", before, after)
	}
}
