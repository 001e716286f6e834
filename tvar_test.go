package pnstm

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pnstm/internal/alloctest"
	"pnstm/internal/core"
)

// Tests of the TVar value representation (ARCHITECTURE.md D52). They sit in
// the package itself to see which representation a variable chose.

type cell uint8

type point struct{ x, y int32 }

// entries is a named slice of pointer-holding structs, the shape of a
// stmlib map bucket.
type entries []struct {
	k string
	v *int
}

type boxedPoint struct {
	p *int
	n int32
}

var errFail = errors.New("fail")

// tvarConfigs are the three access paths a value travels: the default
// conflict test, the serial baseline's lock-free one and shared reads.
var tvarConfigs = map[string]Config{
	"default":     {Workers: 2},
	"serial":      {Workers: 1, Serial: true},
	"sharedreads": {Workers: 2, SharedReads: true},
}

// representation names the representation v chose.
func representation[T any](v *TVar[T]) string {
	switch {
	case v.word:
		return "word"
	case v.slice:
		return "slice"
	}
	return "boxed"
}

// roundTrip takes a variable of type T through every accessor and through
// the two ways an undo record gives a value back. vals holds at least two
// values, distinct under eq where the type has that many.
func roundTrip[T any](t *testing.T, want string, eq func(a, b T) bool, vals ...T) {
	t.Helper()
	if eq == nil {
		eq = func(a, b T) bool { return reflect.DeepEqual(a, b) }
	}
	v0, v1, v2 := vals[0], vals[1], vals[len(vals)-1]
	for name, cfg := range tvarConfigs {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		is := func(what string, got, want T) {
			t.Helper()
			if !eq(got, want) {
				t.Errorf("%T/%s: %s = %v, want %v", v0, name, what, got, want)
			}
		}
		run := func(body func(c *Ctx) error) {
			t.Helper()
			if err := rt.Run(func(c *Ctx) { _ = c.Atomic(body) }); err != nil {
				t.Fatal(err)
			}
		}

		v := NewTVar(v0)
		if got := representation(v); got != want {
			t.Errorf("%T: representation %s, want %s", v0, got, want)
		}
		is("Peek of the initial value", v.Peek(), v0)
		run(func(c *Ctx) error {
			is("Load", Load(c, v), v0)
			Store(c, v, v1)
			is("Load after Store", Load(c, v), v1)
			is("Swap", Swap(c, v, v2), v1)
			is("Update", Update(c, v, func(old T) T {
				is("Update's argument", old, v2)
				return v0
			}), v0)
			for _, val := range vals {
				Store(c, v, val)
				is("Load of each value", Load(c, v), val)
			}
			Store(c, v, v0)
			return nil
		})
		is("Peek after commit", v.Peek(), v0)
		v.SetDirect(v1)
		is("Peek after SetDirect", v.Peek(), v1)

		// A nested abort restores what the parent had stored.
		run(func(c *Ctx) error {
			Store(c, v, v2)
			_ = c.Atomic(func(c *Ctx) error {
				Store(c, v, v0)
				return errFail
			})
			is("Load after a nested abort", Load(c, v), v2)
			return nil
		})
		is("Peek after a nested abort", v.Peek(), v2)

		// A committed child's record, spliced into a parent that aborts,
		// restores the value from before the root.
		v.SetDirect(v1)
		run(func(c *Ctx) error {
			c.Parallel(func(c *Ctx) {
				_ = c.Atomic(func(c *Ctx) error {
					Store(c, v, v2)
					return nil
				})
			})
			is("Load after the child's commit", Load(c, v), v2)
			return errFail
		})
		is("Peek after the parent's abort", v.Peek(), v1)
		rt.Close()
	}
}

// TestTVarRepresentation: pointer-free types of at most 8 bytes are
// word-backed, slices travel as their three parts, everything else is
// boxed, and every kind reads back exactly what was stored.
func TestTVarRepresentation(t *testing.T) {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)

	roundTrip(t, "word", nil, 0, 256, -1, math.MaxInt, math.MinInt)
	roundTrip[int64](t, "word", nil, 0, math.MaxInt64, math.MinInt64)
	roundTrip[uint64](t, "word", nil, 0, 1, math.MaxUint64)
	roundTrip[int8](t, "word", nil, 0, -128, 127)
	roundTrip(t, "word", nil, false, true)
	roundTrip(t, "word", bits, 0.0, math.Copysign(0, -1), payloadNaN, math.Inf(-1))
	roundTrip[float32](t, "word", nil, 0, 1.5, -2.25)
	roundTrip[complex64](t, "word", nil, 0, complex(1, -2), complex(-3, 4))
	roundTrip(t, "word", nil, time.Duration(0), time.Hour, -time.Nanosecond)
	roundTrip[cell](t, "word", nil, 0, 7, 255)
	roundTrip(t, "word", nil, point{}, point{1, -1}, point{math.MinInt32, math.MaxInt32})
	roundTrip(t, "word", nil, [8]byte{}, [8]byte{1, 2, 3, 4, 5, 6, 7, 8}, [8]byte{7: 0xff})
	roundTrip(t, "word", nil, struct{}{}, struct{}{})

	one, two := 1, 2
	roundTrip(t, "boxed", nil, "", "a", "bc")
	roundTrip(t, "boxed", nil, map[string]int(nil), map[string]int{"a": 1}, map[string]int{})
	roundTrip(t, "boxed", nil, (*int)(nil), &one, &two)
	roundTrip[any](t, "boxed", nil, nil, 1, "x")
	roundTrip[error](t, "boxed", nil, nil, errFail, errors.New("other"))
	roundTrip(t, "boxed", nil, [9]byte{}, [9]byte{8: 1}, [9]byte{0: 2})
	roundTrip(t, "boxed", nil, [2]uint64{}, [2]uint64{1, 2}, [2]uint64{3, 4})
	roundTrip[complex128](t, "boxed", nil, 0, complex(1, 2), complex(3, 4))
	roundTrip(t, "boxed", nil, boxedPoint{}, boxedPoint{&one, 1}, boxedPoint{&two, 2})
	roundTrip(t, "boxed", nil, struct{ p *int }{}, struct{ p *int }{&one}, struct{ p *int }{&two})
	roundTrip(t, "boxed", nil, [1]func(){}, [1]func(){}) // 8 bytes, but a pointer

	roundTrip(t, "slice", nil, []int(nil), []int{1}, []int{2, 3}, []int{})
	roundTrip(t, "slice", nil, []byte{}, []byte("v"), nil)
	roundTrip(t, "slice", nil, []string{"a"}, []string{"b", "c"}, nil)
	roundTrip(t, "slice", nil, []*int{&one}, []*int{&two, nil})
	roundTrip(t, "slice", nil, entries(nil), entries{{"a", &one}}, entries{{"b", &two}, {"c", nil}})
}

// TestTVarNilInterface: a variable of an interface type holding nil reads
// back as nil through every accessor (the assertion on a nil any used to
// panic), and an aborted Store restores nil.
func TestTVarNilInterface(t *testing.T) {
	for name, cfg := range tvarConfigs {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v := NewTVar[error](nil)
		if got := v.Peek(); got != nil {
			t.Errorf("%s: Peek = %v", name, got)
		}
		if err := rt.Run(func(c *Ctx) {
			_ = c.Atomic(func(c *Ctx) error {
				if got := Load(c, v); got != nil {
					t.Errorf("%s: Load = %v", name, got)
				}
				if got := Swap(c, v, errFail); got != nil {
					t.Errorf("%s: Swap = %v", name, got)
				}
				if got := Swap(c, v, nil); got != errFail {
					t.Errorf("%s: second Swap = %v", name, got)
				}
				if got := Update(c, v, func(old error) error {
					if old != nil {
						t.Errorf("%s: Update's argument = %v", name, old)
					}
					return nil
				}); got != nil {
					t.Errorf("%s: Update = %v", name, got)
				}
				return nil
			})
			_ = c.Atomic(func(c *Ctx) error {
				Store(c, v, errFail)
				return errFail
			})
		}); err != nil {
			t.Fatal(err)
		}
		if got := v.Peek(); got != nil {
			t.Errorf("%s: Peek after an aborted Store = %v", name, got)
		}
		v.SetDirect(errFail)
		v.SetDirect(nil)
		if got := v.Peek(); got != nil {
			t.Errorf("%s: Peek after SetDirect(nil) = %v", name, got)
		}
		rt.Close()
	}
}

// TestWordStoreAllocCeilings is the allocation gate for word-backed
// variables: a store to a variable the transaction owns allocates nothing,
// and a root storing K ints pays for the undo chunks and nothing else —
// the ceiling internal/core holds for pointer values, committed and rolled
// back. The values are past the runtime's preallocated small integers, so a
// boxed int would show.
func TestWordStoreAllocCeilings(t *testing.T) {
	const (
		undoChunkLen = 18 // internal/core's records per chunk
		K            = 10 * undoChunkLen
		runs         = 100
	)
	rt, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	vars := make([]*TVar[int], K)
	for i := range vars {
		vars[i] = NewTVar(0)
	}
	root := func(stores int, result error) func() {
		return func() {
			if err := rt.Run(func(c *Ctx) {
				_ = c.Atomic(func(c *Ctx) error {
					for i, v := range vars[:stores] {
						Store(c, v, 1000+i)
					}
					return result
				})
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	empty := testing.AllocsPerRun(runs, root(0, nil))
	ceiling := empty + 2 + K/undoChunkLen
	if got := testing.AllocsPerRun(runs, root(K, nil)); got > ceiling {
		t.Errorf("root storing %d ints: %.0f allocs, ceiling %.0f (empty root %.0f)", K, got, ceiling, empty)
	}
	if got := testing.AllocsPerRun(runs, root(K, errFail)); got > ceiling {
		t.Errorf("root storing and rolling back %d ints: %.0f allocs, ceiling %.0f (empty root %.0f)", K, got, ceiling, empty)
	}

	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			v, next := vars[0], 1000
			Store(c, v, next)
			if got := testing.AllocsPerRun(1000, func() {
				next++
				Store(c, v, next)
				if Load(c, v) != next || Swap(c, v, next) != next {
					t.Error("a word-backed variable lost its value")
				}
			}); got != 0 {
				t.Errorf("Store+Load+Swap of an int the transaction owns: %.0f allocs, want 0", got)
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
}

// sameSlice reports whether a and b have the same data pointer, length and
// capacity: the same slice, not merely equal elements.
func sameSlice[E any](a, b []E) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// TestTVarSliceStoreAllocCeiling: storing a slice into a variable the
// transaction owns allocates nothing, because the slice travels as its
// data pointer in core.Value.P and its length and capacity in W (D52). It
// read 1.33 while the slice header was boxed into P: one box per Store and
// per Swap of a non-nil slice.
func TestTVarSliceStoreAllocCeiling(t *testing.T) {
	rt, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bufs := [][]byte{make([]byte, 64), make([]byte, 3, 100), nil}
	v := NewTVar[[]byte](nil)
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			Store(c, v, bufs[0])
			i := 0
			if got := alloctest.Exact(1000, func() {
				i++
				b := bufs[i%len(bufs)]
				Store(c, v, b)
				if !sameSlice(Load(c, v), b) || !sameSlice(Swap(c, v, b), b) {
					t.Error("a slice variable lost its slice")
				}
			}); got != 0 {
				t.Errorf("Store+Load+Swap of a []byte the transaction owns: %.3f allocs, want 0", got)
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTVarSliceHeaderRoundTrip: a nil slice, an empty non-nil slice, a
// slice with spare capacity and a slice into the middle of an array come
// back from every accessor, and from an aborted Store's undo record, with
// their data pointer, length and capacity unchanged — whether the abort
// is a nested child's or the root's.
func TestTVarSliceHeaderRoundTrip(t *testing.T) {
	arr := make([]byte, 16)
	vals := []struct {
		name string
		s    []byte
	}{
		{"nil", nil},
		{"empty", make([]byte, 0)},
		{"empty with capacity", make([]byte, 0, 8)},
		{"spare capacity", make([]byte, 3, 8)},
		{"interior", arr[2:5:11]},
		{"full", arr},
	}
	for cname, cfg := range tvarConfigs {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func(body func(c *Ctx) error) {
			t.Helper()
			if err := rt.Run(func(c *Ctx) { _ = c.Atomic(body) }); err != nil {
				t.Fatal(err)
			}
		}
		for i, prev := range vals {
			next := vals[(i+1)%len(vals)]
			is := func(what string, got, want []byte) {
				t.Helper()
				if !sameSlice(got, want) {
					t.Errorf("%s/%s: %s = (%p, %d, %d), want (%p, %d, %d)", cname, prev.name, what,
						unsafe.SliceData(got), len(got), cap(got), unsafe.SliceData(want), len(want), cap(want))
				}
			}
			v := NewTVar(prev.s)
			is("Peek of the initial value", v.Peek(), prev.s)
			run(func(c *Ctx) error {
				is("Load", Load(c, v), prev.s)
				_ = c.Atomic(func(c *Ctx) error {
					Store(c, v, next.s)
					is("Load after Store", Load(c, v), next.s)
					return errFail
				})
				is("Load after a nested abort", Load(c, v), prev.s)
				Store(c, v, next.s)
				return errFail
			})
			is("Peek after the root's abort", v.Peek(), prev.s)
			v.SetDirect(next.s)
			is("Peek after SetDirect", v.Peek(), next.s)
		}
		rt.Close()
	}
}

// TestTVarHugeSliceBoxed: a slice whose capacity does not fit in 32 bits
// cannot travel as len | cap<<32, so it is boxed instead and still reads
// back whole. A []struct{} of 2³³ elements occupies no memory.
func TestTVarHugeSliceBoxed(t *testing.T) {
	n := uint64(1) << 33
	if uint64(int(n)) != n {
		t.Skip("int is 32 bits: no slice reaches the fallback")
	}
	huge, small := make([]struct{}, int(n)), make([]struct{}, 2, 5)
	rt, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	v := NewTVar(huge)
	if _, boxed := core.PeekValue(v.obj).P.([]struct{}); !boxed {
		t.Fatalf("a slice of capacity 2³³ is held as %T, want it boxed", core.PeekValue(v.obj).P)
	}
	is := func(what string, got, want []struct{}) {
		t.Helper()
		if !sameSlice(got, want) {
			t.Errorf("%s = (len %d, cap %d), want (len %d, cap %d)", what, len(got), cap(got), len(want), cap(want))
		}
	}
	is("Peek", v.Peek(), huge)
	if err := rt.Run(func(c *Ctx) {
		_ = c.Atomic(func(c *Ctx) error {
			is("Load", Load(c, v), huge)
			is("Swap", Swap(c, v, small), huge)
			is("Swap back", Swap(c, v, huge), small)
			_ = c.Atomic(func(c *Ctx) error {
				Store(c, v, small)
				return errFail
			})
			is("Load after a nested abort", Load(c, v), huge)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	is("Peek after commit", v.Peek(), huge)
}

// TestTVarSliceKeepsArrayAlive: the data pointer a variable holds in
// core.Value.P is a pointer the collector follows, so a stored slice's
// array lives while the variable holds it and is collected once it does
// not.
func TestTVarSliceKeepsArrayAlive(t *testing.T) {
	var freed atomic.Bool
	v := NewTVar[[]byte](nil)
	func() {
		buf := make([]byte, 64)
		buf[63] = 0x5a
		runtime.SetFinalizer(&buf[0], func(*byte) { freed.Store(true) })
		v.SetDirect(buf[1:])
	}()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if freed.Load() {
		t.Fatal("the array was collected while the variable held its slice")
	}
	if got := v.Peek(); len(got) != 63 || got[62] != 0x5a {
		t.Fatalf("Peek = %x, want 62 zero bytes and 5a", got)
	}
	v.SetDirect(nil)
	for i := 0; i < 100 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("the array outlived the variable's last reference to it")
	}
}
