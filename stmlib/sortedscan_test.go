package stmlib

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"pnstm"
)

// The scan's wave plan (D49) is checked here from the inside: the tests
// shrink maxLeaf, which only this package can reach, so that a few
// hundred keys make many leaves and every wave width down to the
// half-leaf clamp is exercised.

func scanTestRT(t testing.TB) *pnstm.Runtime {
	t.Helper()
	rt, err := pnstm.New(pnstm.Config{Workers: 4, SharedReads: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func mustRun(t testing.TB, rt *pnstm.Runtime, fn func(*pnstm.Ctx)) {
	t.Helper()
	if err := rt.Run(fn); err != nil {
		t.Fatal(err)
	}
}

// scanModel is the reference: a plain map, scanned by sorting.
type scanModel map[int]SortedEntry[int, int]

func (md scanModel) scan(lo int, bounded bool, hi, limit int, now int64) []SortedEntry[int, int] {
	var out []SortedEntry[int, int]
	for k, e := range md {
		if k < lo || (bounded && k >= hi) || (e.Exp > 0 && e.Exp <= now) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func sameEntries(a, b []SortedEntry[int, int]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSortedScanMatchesModel: on randomized maps — leaves of 1 to 64
// entries, runs of deletes that leave leaves empty or sparse, entries
// hidden by a passed deadline — every RangeScan, RangeFrom, RangeCount,
// Len and ExportEntries answers exactly as a sorted slice would, for
// limits from 1 past the population, for 0 and for MaxInt, with one child
// or eight.
func TestSortedScanMatchesModel(t *testing.T) {
	rt := scanTestRT(t)
	past := time.Now().Add(-time.Hour).UnixNano()
	future := time.Now().Add(time.Hour).UnixNano()
	for _, maxLeaf := range []int{1, 2, 3, 5, 64} {
		for _, fanout := range []int{1, 8} {
			t.Run(fmt.Sprintf("maxLeaf=%d/fanout=%d", maxLeaf, fanout), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(maxLeaf*100 + fanout)))
				m := NewTSortedMapFanout[int, int](fanout)
				m.maxLeaf = maxLeaf
				md := scanModel{}
				const keySpace = 400
				mustRun(t, rt, func(c *pnstm.Ctx) {
					for i := 0; i < 300; i++ {
						k := rng.Intn(keySpace)
						e := SortedEntry[int, int]{Key: k, Value: i}
						switch rng.Intn(5) {
						case 0:
							e.Exp = past // hidden from reads, physically present
						case 1:
							e.Exp = future
						}
						m.PutTTL(c, e.Key, e.Value, e.Exp)
						md[k] = e
					}
					// Runs of deletes: whole leaves go empty, others sparse.
					for r := 0; r < 6; r++ {
						from := rng.Intn(keySpace)
						for k := from; k < from+25; k++ {
							if _, had := md[k]; m.Delete(c, k) != had {
								t.Fatalf("delete %d disagreed with the model", k)
							}
							delete(md, k)
						}
					}
				})
				if maxLeaf < 64 && m.Leaves() < 20 {
					t.Fatalf("only %d leaves at maxLeaf %d: the test is not exercising waves", m.Leaves(), maxLeaf)
				}
				mustRun(t, rt, func(c *pnstm.Ctx) {
					now := time.Now().UnixNano()
					live := len(md.scan(-1, false, 0, 0, now))
					limits := []int{0, 1, 2, 3, live - 1, live, live + 1, math.MaxInt}
					for i := 0; i < 20; i++ {
						limits = append(limits, 1+rng.Intn(live+1))
					}
					for _, limit := range limits {
						lo, hi := rng.Intn(keySpace+20)-10, rng.Intn(keySpace+20)-10
						if got, want := m.RangeFrom(c, lo, limit), md.scan(lo, false, 0, limit, now); !sameEntries(got, want) {
							t.Fatalf("RangeFrom(%d, limit %d):\n got  %v\n want %v", lo, limit, got, want)
						}
						if got, want := m.RangeFrom(c, -1, limit), md.scan(-1, false, 0, limit, now); !sameEntries(got, want) {
							t.Fatalf("RangeFrom(first, limit %d):\n got  %v\n want %v", limit, got, want)
						}
						if lo > hi {
							lo, hi = hi, lo
						}
						if got, want := m.RangeScan(c, lo, hi, limit), md.scan(lo, true, hi, limit, now); !sameEntries(got, want) {
							t.Fatalf("RangeScan(%d, %d, limit %d):\n got  %v\n want %v", lo, hi, limit, got, want)
						}
						if got, want := m.RangeCount(c, lo, hi), len(md.scan(lo, true, hi, 0, now)); got != want {
							t.Fatalf("RangeCount(%d, %d) = %d, want %d", lo, hi, got, want)
						}
					}
					if got := m.Len(c); got != len(md) {
						t.Fatalf("Len = %d, want %d physical entries", got, len(md))
					}
					if got, want := m.ExportEntries(c), md.scan(-1, false, 0, 0, 0); !sameEntries(got, want) {
						t.Fatalf("ExportEntries:\n got  %v\n want %v", got, want)
					}
				})
			})
		}
	}
}

// TestSortedScanUnderWriters runs limited scans against concurrent point
// writers. Even keys are stable (only ever overwritten); odd keys come
// and go. Every result must be ascending, inside [lo, hi) and no longer
// than its limit, and — the scan being one transaction — must hold every
// stable key of the prefix it covers.
func TestSortedScanUnderWriters(t *testing.T) {
	rt := scanTestRT(t)
	m := NewTSortedMapFanout[int, int](8)
	m.maxLeaf = 4
	const keySpace = 200
	mustRun(t, rt, func(c *pnstm.Ctx) {
		for k := 0; k < keySpace; k += 2 {
			m.Put(c, k, 0)
		}
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keySpace)
				if err := rt.Run(func(c *pnstm.Ctx) {
					if k%2 == 0 || rng.Intn(2) == 0 {
						m.Put(c, k, i)
					} else {
						m.Delete(c, k)
					}
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		lo, limit := rng.Intn(keySpace), 1+rng.Intn(40)
		hi := lo + 1 + rng.Intn(keySpace-lo)
		var got []SortedEntry[int, int]
		mustRun(t, rt, func(c *pnstm.Ctx) { got = m.RangeScan(c, lo, hi, limit) })
		if len(got) > limit {
			t.Fatalf("RangeScan(%d, %d, limit %d) returned %d entries", lo, hi, limit, len(got))
		}
		covered := hi // the scan vouches for [lo, covered)
		if len(got) == limit {
			covered = got[len(got)-1].Key + 1
		}
		seen := make(map[int]bool, len(got))
		for j, e := range got {
			if e.Key < lo || e.Key >= hi || (j > 0 && got[j-1].Key >= e.Key) {
				t.Fatalf("RangeScan(%d, %d, limit %d): entry %d out of range or order: %v", lo, hi, limit, j, got)
			}
			seen[e.Key] = true
		}
		for k := lo + lo%2; k < covered; k += 2 {
			if !seen[k] {
				t.Fatalf("RangeScan(%d, %d, limit %d) skipped stable key %d: %v", lo, hi, limit, k, got)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// hundredLeaves builds a map of 100 leaves by ascending puts — the first
// split comes at maxLeaf+1 keys and every maxLeaf/2 more keys split the
// last leaf again, leaving every leaf but the last half full — and
// returns it with its last key.
func hundredLeaves(t *testing.T, rt *pnstm.Runtime) (*TSortedMap[int, int], int) {
	t.Helper()
	m := NewTSortedMap[int, int]()
	last := smMaxLeaf + 98*(smMaxLeaf/2)
	mustRun(t, rt, func(c *pnstm.Ctx) {
		for k := 0; k <= last; k++ {
			m.Put(c, k, k)
		}
	})
	if m.Leaves() != 100 {
		t.Fatalf("built %d leaves, want 100", m.Leaves())
	}
	// Publish the preload's commits: a reader meeting one still
	// unpublished would count a (false) conflict and perhaps a retry,
	// and the callers count transactions.
	rt.Publisher().Drain()
	return m, last
}

// TestSortedScanLimitFootprint: a limit-10 scan from the first key of a
// 100-leaf map begins its own transaction and one child per first-wave
// leaf (two: ceil(10/32)+1) and reads nothing beyond them. So it runs to
// completion, conflict-free, while another transaction holds a write to
// the last leaf open — a leaf inside the scan's [lo, +inf) range, which
// a scan of the whole range could not get past until that writer ended.
func TestSortedScanLimitFootprint(t *testing.T) {
	rt := scanTestRT(t)
	m, last := hundredLeaves(t, rt)

	wrote, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				m.Put(c, last, -1)
				close(wrote)
				<-release
				return nil
			})
		})
	}()
	<-wrote
	before := rt.Stats()
	const scans = 50
	for i := 0; i < scans; i++ {
		mustRun(t, rt, func(c *pnstm.Ctx) {
			if got := m.RangeFrom(c, 0, 10); len(got) != 10 || got[9].Key != 9 {
				t.Errorf("RangeFrom(0, limit 10) = %v", got)
			}
		})
	}
	d := rt.Stats().Sub(before)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d.Begun > scans*(1+2) {
		t.Errorf("%d limit-10 scans began %d transactions, want at most 3 each (the scan and two first-wave children)", scans, d.Begun)
	}
	if d.Conflicts != 0 || d.Aborted != 0 {
		t.Errorf("scans of the first leaves beside an open write to the last: %d conflicts, %d aborts, want none", d.Conflicts, d.Aborted)
	}
}

// TestSortedScanUnlimitedPlan pins the plan of the scans that have no
// limit to push down: RangeCount, ExportEntries and Len over 100 leaves
// are one wave of fanout children under one transaction, as they were
// before waves existed — the rangescan A/B and snapshots depend on it.
func TestSortedScanUnlimitedPlan(t *testing.T) {
	rt := scanTestRT(t)
	m, last := hundredLeaves(t, rt)
	for name, op := range map[string]func(c *pnstm.Ctx) int{
		"RangeCount":    func(c *pnstm.Ctx) int { return m.RangeCount(c, 0, last+1) },
		"RangeFrom(0)":  func(c *pnstm.Ctx) int { return len(m.RangeFrom(c, 0, 0)) },
		"ExportEntries": func(c *pnstm.Ctx) int { return len(m.ExportEntries(c)) },
		"Len":           m.Len,
	} {
		var begun uint64
		mustRun(t, rt, func(c *pnstm.Ctx) {
			before := rt.Stats()
			if n := op(c); n != last+1 {
				t.Errorf("%s = %d, want %d", name, n, last+1)
			}
			begun = rt.Stats().Sub(before).Begun
		})
		if want := uint64(1 + DefaultFanout); begun != want {
			t.Errorf("%s over 100 leaves began %d transactions, want %d (itself and %d children)", name, begun, want, DefaultFanout)
		}
	}
}
