package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pnstm/internal/bitvec"
)

func TestMaskTableEmpty(t *testing.T) {
	var mt MaskTable
	for _, e := range []Epoch{0, 1, 100, 1 << 40} {
		if got := mt.Get(e); !got.Empty() {
			t.Fatalf("Get(%d) = %v on empty table", e, got)
		}
	}
	if mt.Allocated() != 0 {
		t.Fatalf("Allocated = %d", mt.Allocated())
	}
}

func TestMaskTableOrGet(t *testing.T) {
	var mt MaskTable
	mt.Or(5, bitvec.Of(3))
	mt.Or(5, bitvec.Of(7))
	mt.Or(6, bitvec.Of(1))
	if got := mt.Get(5); got != bitvec.Of(3, 7) {
		t.Fatalf("Get(5) = %v", got)
	}
	if got := mt.Get(6); got != bitvec.Of(1) {
		t.Fatalf("Get(6) = %v", got)
	}
	if got := mt.Get(4); !got.Empty() {
		t.Fatalf("Get(4) = %v", got)
	}
}

func TestMaskTableGrowthAcrossChunks(t *testing.T) {
	var mt MaskTable
	// Touch epochs in several chunks, including a far jump.
	eps := []Epoch{0, 1, chunkLen - 1, chunkLen, 3*chunkLen + 17, 10 * chunkLen}
	for i, e := range eps {
		mt.Or(e, bitvec.Of(bitvec.Bitnum(i)))
	}
	for i, e := range eps {
		if got := mt.Get(e); got != bitvec.Of(bitvec.Bitnum(i)) {
			t.Fatalf("Get(%d) = %v, want bit %d", e, got, i)
		}
	}
	// Untouched epochs in allocated chunks are empty.
	if got := mt.Get(2 * chunkLen); !got.Empty() {
		t.Fatalf("Get(untouched) = %v", got)
	}
}

func TestMaskTableOrRange(t *testing.T) {
	var mt MaskTable
	mt.OrRange(10, 20, bitvec.Of(2))
	mt.OrRange(21, 20, bitvec.Of(3)) // empty range: no-op
	for e := Epoch(10); e <= 20; e++ {
		if !mt.Get(e).Has(2) {
			t.Fatalf("epoch %d missing bit", e)
		}
	}
	if mt.Get(9).Has(2) || mt.Get(21).Has(2) {
		t.Fatal("range leaked outside [10,20]")
	}
	if mt.Get(21).Has(3) {
		t.Fatal("empty range wrote")
	}
}

// Readers racing with a growing writer must never observe a lost
// publication: once Or returns, every later Get sees the bit.
func TestMaskTableConcurrentReadersDuringGrowth(t *testing.T) {
	var mt MaskTable
	const top = 4 * chunkLen
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for e := Epoch(0); e < top; e += 97 {
					v := mt.Get(e)
					if !v.Empty() && v != bitvec.Of(1) {
						t.Errorf("Get(%d) = %v", e, v)
						return
					}
				}
			}
		}()
	}
	for e := Epoch(0); e < top; e++ {
		mt.Or(e, bitvec.Of(1))
	}
	close(stop)
	wg.Wait()
	for e := Epoch(0); e < top; e++ {
		if !mt.Get(e).Has(1) {
			t.Fatalf("lost publication at epoch %d", e)
		}
	}
}

func TestMaskMonotonicityProperty(t *testing.T) {
	// Masks only accumulate: Or can never clear a previously set bit.
	var mt MaskTable
	f := func(e16 uint16, b1, b2 uint8) bool {
		e := Epoch(e16)
		bn1 := bitvec.Bitnum(b1 % bitvec.Word)
		bn2 := bitvec.Bitnum(b2 % bitvec.Word)
		mt.Or(e, bn1.Bit())
		before := mt.Get(e)
		mt.Or(e, bn2.Bit())
		after := mt.Get(e)
		return before.SubsetOf(after) && after.Has(bn1) && after.Has(bn2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The floor answers every epoch at or below it with the full mask, the
// value the publisher's contiguous ranges leave there, and a directory grown
// past it leaves the chunks it covers behind (D55).
func TestMaskTableFloorCoversLeftBehindChunks(t *testing.T) {
	mt := MaskTable{full: bitvec.Of(0, 1)}
	hi0, hi1, top := Epoch(10*chunkLen), Epoch(6*chunkLen), Epoch(40*chunkLen)
	mt.OrRange(1, hi0, bitvec.Of(0))
	mt.OrRange(1, hi1, bitvec.Of(1))
	mt.raiseFloor(hi1)
	mt.raiseFloor(hi1 - 5) // never moves down
	mt.OrRange(hi1+1, top, bitvec.Of(1))
	if base := mt.dir.Load().base; base != int(hi1>>chunkBits) {
		t.Fatalf("directory base = chunk %d, want %d", base, hi1>>chunkBits)
	}
	for e := Epoch(0); e <= top+chunkLen; e += 97 {
		var want bitvec.Vec
		if e >= 1 && e <= hi0 {
			want = want.Add(0)
		}
		if e >= 1 && e <= top {
			want = want.Add(1)
		}
		if got := mt.Get(e); got != want {
			t.Fatalf("Get(%d) = %v, want %v", e, got, want)
		}
	}
}

// Readers racing with a writer that raises the floor behind itself must
// never see a published mask go missing, whether they read it from a chunk,
// from the floor, or from a chunk left behind between the two.
func TestMaskTableConcurrentReadersDuringRelease(t *testing.T) {
	mt := MaskTable{full: bitvec.Of(1)}
	const top, lag = 64 * chunkLen, 3 * chunkLen / 2
	var published atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for e := Epoch(1 + r); ; e = e*7%top + 1 {
				hi := Epoch(published.Load())
				if hi == top {
					return
				}
				if e <= hi && mt.Get(e) != bitvec.Of(1) {
					t.Errorf("Get(%d) = %v with epochs up to %d published", e, mt.Get(e), hi)
					return
				}
			}
		}(r)
	}
	for e := Epoch(1); e <= top; e++ {
		mt.Or(e, bitvec.Of(1))
		published.Store(uint64(e))
		if e%1000 == 0 && e > lag {
			mt.raiseFloor(e - lag)
		}
	}
	wg.Wait()
	if n := mt.Allocated(); n > 8*chunkLen {
		t.Fatalf("table holds %d epochs with the floor %d behind the top", n, lag)
	}
}
