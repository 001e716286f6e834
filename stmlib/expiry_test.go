package stmlib_test

import (
	"math"
	"testing"
	"time"

	"pnstm"
	"pnstm/stmlib"
)

func TestExpiryKeyCodec(t *testing.T) {
	k := stmlib.ExpiryKey(12345, stmlib.ExpiryKindMap, "sessions", "user:9")
	exp, kind, name, ref, ok := stmlib.ParseExpiryKey(k)
	if !ok || exp != 12345 || kind != stmlib.ExpiryKindMap || name != "sessions" || ref != "user:9" {
		t.Fatalf("parse = %d %c %q %q %v", exp, kind, name, ref, ok)
	}
	// Lexicographic order must be deadline order, regardless of the
	// name/ref tail.
	a := stmlib.ExpiryKey(100, stmlib.ExpiryKindLease, "zzz", "zzz")
	b := stmlib.ExpiryKey(101, stmlib.ExpiryKindMap, "aaa", "")
	if a >= b {
		t.Error("deadline 100 key does not sort before deadline 101 key")
	}
	// Cutoff covers <= semantics: a key at exactly the cutoff is in
	// range, one nanosecond later is not.
	cut := stmlib.ExpiryCutoffKey(100)
	if !(a < cut) {
		t.Error("key at cutoff excluded")
	}
	if c2 := stmlib.ExpiryKey(101, 0, "", ""); c2 < cut {
		t.Error("key past cutoff included")
	}
	if _, _, _, _, ok := stmlib.ParseExpiryKey("short"); ok {
		t.Error("parsed a malformed key")
	}
	id, ok := stmlib.ParseLeaseRef(stmlib.LeaseRef(7))
	if !ok || id != 7 {
		t.Errorf("lease ref roundtrip = %d,%v", id, ok)
	}
}

// TestRegistryExpiryIndexExact drives every deadline transition through
// registry-owned structures and checks the index holds exactly one entry
// per live deadline at each step — no leaks, no stragglers.
func TestRegistryExpiryIndexExact(t *testing.T) {
	rt := newRT(t, 2, false)
	r := stmlib.NewRegistry(stmlib.RegistryConfig{MapBuckets: 8})
	idx := r.ExpiryIndex()
	now := time.Now().UnixNano()
	future := now + int64(time.Hour)

	count := func() int {
		n := -1
		run(t, rt, func(c *pnstm.Ctx) { n = idx.RangeCountFrom(c, "") })
		return n
	}

	run(t, rt, func(c *pnstm.Ctx) {
		m := r.Map("sessions")
		m.PutTTL(c, "a", []byte("x"), future)
		m.PutTTL(c, "b", []byte("y"), future+1)
		m.Put(c, "c", []byte("z")) // no deadline, no index entry
	})
	if n := count(); n != 2 {
		t.Fatalf("index after 2 PutTTL = %d", n)
	}
	run(t, rt, func(c *pnstm.Ctx) {
		m := r.Map("sessions")
		m.Put(c, "a", []byte("x2"))              // plain overwrite clears the deadline
		m.PutTTL(c, "b", []byte("y2"), future+2) // re-TTL replaces the entry
	})
	if n := count(); n != 1 {
		t.Fatalf("index after overwrite = %d", n)
	}
	run(t, rt, func(c *pnstm.Ctx) {
		r.Map("sessions").Delete(c, "b")
	})
	if n := count(); n != 0 {
		t.Fatalf("index after delete = %d", n)
	}

	// Sorted-map deadlines and queue leases land in the same index,
	// tagged by kind, and vanish on expire/ack/reclaim.
	run(t, rt, func(c *pnstm.Ctx) {
		sm := r.SortedMap("board")
		sm.PutTTL(c, "p1", []byte("s"), now-1)
		q := r.Queue("jobs")
		q.PushAll(c, []byte("j1"), []byte("j2"))
		q.ConsumeLease(c, now-1)
		q.ConsumeLease(c, future)
	})
	if n := count(); n != 3 {
		t.Fatalf("index with sorted+leases = %d", n)
	}
	run(t, rt, func(c *pnstm.Ctx) {
		// A reaper's view: everything due through now, in deadline order.
		due := idx.RangeScan(c, "", stmlib.ExpiryCutoffKey(now), 0)
		if len(due) != 2 {
			t.Fatalf("due entries = %d want 2", len(due))
		}
		kinds := map[byte]bool{}
		for _, e := range due {
			_, kind, name, _, ok := stmlib.ParseExpiryKey(e.Key)
			if !ok {
				t.Fatalf("malformed index key %q", e.Key)
			}
			kinds[kind] = true
			if kind == stmlib.ExpiryKindSorted && name != "board" {
				t.Errorf("sorted entry names %q", name)
			}
		}
		if !kinds[stmlib.ExpiryKindSorted] || !kinds[stmlib.ExpiryKindLease] {
			t.Errorf("due kinds = %v", kinds)
		}
		// Act on the due work the way the reaper does.
		r.SortedMap("board").ExpireThrough(c, "p1", now)
		r.Queue("jobs").ReclaimExpired(c, now)
	})
	if n := count(); n != 1 { // only the future lease remains
		t.Fatalf("index after reap = %d", n)
	}
	run(t, rt, func(c *pnstm.Ctx) {
		recs, _ := r.Queue("jobs").LeaseSnapshot(c)
		if len(recs) != 1 || !r.Queue("jobs").Ack(c, recs[0].ID) {
			t.Fatalf("ack of surviving lease failed: %v", recs)
		}
	})
	if n := count(); n != 0 {
		t.Fatalf("index after ack = %d", n)
	}
}

// TestRegistryImageV2RoundTrip exports a registry holding every new
// structure kind, imports it into a fresh registry, and checks the state
// AND the rebuilt expiry index match.
func TestRegistryImageV2RoundTrip(t *testing.T) {
	rt := newRT(t, 2, false)
	r := stmlib.NewRegistry(stmlib.RegistryConfig{MapBuckets: 8})
	future := time.Now().Add(time.Hour).UnixNano()
	run(t, rt, func(c *pnstm.Ctx) {
		r.Map("m").Put(c, "k", []byte("v"))
		r.Map("m").PutTTL(c, "t", []byte("tv"), future)
		r.Counter("n").Add(c, 42)
		sm := r.SortedMap("s")
		sm.Put(c, "a", []byte("1"))
		sm.PutTTL(c, "b", []byte("2"), future+1)
		q := r.Queue("q")
		q.PushAll(c, []byte("e1"), []byte("e2"), []byte("e3"))
		q.ConsumeLease(c, future+2)
	})
	var img *stmlib.RegistryImage
	run(t, rt, func(c *pnstm.Ctx) { img = r.Export(c) })
	if len(img.Sorted["s"]) != 2 || img.MapTTLs["m"]["t"] != future ||
		len(img.Leases["q"]) != 1 || img.LeaseSeqs["q"] != 1 {
		t.Fatalf("image v2 fields: sorted=%v ttls=%v leases=%v seqs=%v",
			img.Sorted, img.MapTTLs, img.Leases, img.LeaseSeqs)
	}

	r2 := stmlib.NewRegistry(stmlib.RegistryConfig{MapBuckets: 8})
	run(t, rt, func(c *pnstm.Ctx) { r2.Import(c, img) })
	run(t, rt, func(c *pnstm.Ctx) {
		if v, ok := r2.Map("m").Get(c, "t"); !ok || string(v) != "tv" {
			t.Errorf("ttl'd map key = %q,%v", v, ok)
		}
		if v, ok := r2.SortedMap("s").Get(c, "b"); !ok || string(v) != "2" {
			t.Errorf("ttl'd sorted key = %q,%v", v, ok)
		}
		if n := r2.Queue("q").LeaseLen(c); n != 1 {
			t.Errorf("imported lease len = %d", n)
		}
		if n := r2.Counter("n").Sum(c); n != 42 {
			t.Errorf("counter = %d", n)
		}
		// The index is rebuilt by Import's hooks: one entry per live
		// deadline (map t, sorted b, lease 1).
		if n := r2.ExpiryIndex().RangeCountFrom(c, ""); n != 3 {
			t.Errorf("rebuilt index entries = %d want 3", n)
		}
		// A second ack path sanity: the imported lease acks and its
		// index entry goes away.
		if !r2.Queue("q").Ack(c, 1) {
			t.Error("imported lease not ackable")
		}
		if n := r2.ExpiryIndex().RangeCountFrom(c, ""); n != 2 {
			t.Errorf("index after ack = %d want 2", n)
		}
	})
}

// TestTMapDeleteTakesDeadlineAlong: a TTL'd key deleted through BulkUpdate
// loses its deadline with it. Re-inserted through BulkUpdate, which keeps
// a kept key's deadline, the key is a plain key: visible past the old
// deadline, never swept, absent from the expiry index.
func TestTMapDeleteTakesDeadlineAlong(t *testing.T) {
	drop := func(_ []byte, _ bool) ([]byte, bool) { return nil, false }
	deletes := map[string]func(c *pnstm.Ctx, m *stmlib.TMap[string, []byte], k string){
		"BulkUpdate": func(c *pnstm.Ctx, m *stmlib.TMap[string, []byte], k string) {
			m.BulkUpdate(c, []string{k}, func(_ string, v []byte, ok bool) ([]byte, bool) { return drop(v, ok) })
		},
	}
	for name, del := range deletes {
		t.Run(name, func(t *testing.T) {
			rt := newRT(t, 2, false)
			r := stmlib.NewRegistry(stmlib.RegistryConfig{MapBuckets: 8})
			m := r.Map("sessions")
			past := time.Now().Add(-time.Hour).UnixNano()
			run(t, rt, func(c *pnstm.Ctx) {
				m.PutTTL(c, "k", []byte("old"), past)
				del(c, m, "k")
				m.BulkUpdate(c, []string{"k"}, func(_ string, _ []byte, ok bool) ([]byte, bool) {
					if ok {
						t.Error("deleted key still present")
					}
					return []byte("new"), true
				})
			})
			run(t, rt, func(c *pnstm.Ctx) {
				if v, ok := m.Get(c, "k"); !ok || string(v) != "new" {
					t.Errorf("re-inserted key past the old deadline = %q,%v want \"new\",true", v, ok)
				}
				if m.ExpireThrough(c, "k", math.MaxInt64) {
					t.Error("ExpireThrough swept the re-inserted key")
				}
				if n := r.ExpiryIndex().RangeCountFrom(c, ""); n != 0 {
					t.Errorf("expiry index holds %d entries, want 0", n)
				}
				if ttls := m.TTLSnapshot(c); len(ttls) != 0 {
					t.Errorf("TTLSnapshot = %v, want empty", ttls)
				}
			})
		})
	}
}

func TestTMapTTL(t *testing.T) {
	rt := newRT(t, 2, false)
	m := stmlib.NewTMap[string, int](8)
	now := time.Now().UnixNano()
	past, future := now-int64(time.Hour), now+int64(time.Hour)
	run(t, rt, func(c *pnstm.Ctx) {
		m.PutTTL(c, "dead", 1, past)
		m.PutTTL(c, "live", 2, future)
		m.Put(c, "plain", 3)
		if _, ok := m.Get(c, "dead"); ok {
			t.Error("expired key visible")
		}
		if v, ok := m.Get(c, "live"); !ok || v != 2 {
			t.Errorf("live = %d,%v", v, ok)
		}
		if n := m.Len(c); n != 3 {
			t.Errorf("physical len = %d", n)
		}
		if m.ExpireThrough(c, "live", now) {
			t.Error("expired an undue key")
		}
		if !m.ExpireThrough(c, "dead", now) {
			t.Error("missed a due key")
		}
		if n := m.Len(c); n != 2 {
			t.Errorf("len after expire = %d", n)
		}
		// PutTTL with exp<=0 degrades to a plain Put.
		m.PutTTL(c, "live", 4, 0)
		snap := m.TTLSnapshot(c)
		if len(snap) != 0 {
			t.Errorf("ttl snapshot = %v want empty", snap)
		}
	})
}
