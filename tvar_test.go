package pnstm

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// Tests of the TVar value representation (ARCHITECTURE.md D52). They sit in
// the package itself to see which representation a variable chose.

type cell uint8

type point struct{ x, y int32 }

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

// roundTrip takes a variable of type T through every accessor and through
// the two ways an undo record gives a value back. vals holds at least two
// values, distinct under eq where the type has that many.
func roundTrip[T any](t *testing.T, wantWord bool, eq func(a, b T) bool, vals ...T) {
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
		if v.word != wantWord {
			t.Errorf("%T: word-backed = %v, want %v", v0, v.word, wantWord)
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
// word-backed, everything else is boxed, and both kinds read back exactly
// what was stored.
func TestTVarRepresentation(t *testing.T) {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)

	roundTrip(t, true, nil, 0, 256, -1, math.MaxInt, math.MinInt)
	roundTrip[int64](t, true, nil, 0, math.MaxInt64, math.MinInt64)
	roundTrip[uint64](t, true, nil, 0, 1, math.MaxUint64)
	roundTrip[int8](t, true, nil, 0, -128, 127)
	roundTrip(t, true, nil, false, true)
	roundTrip(t, true, bits, 0.0, math.Copysign(0, -1), payloadNaN, math.Inf(-1))
	roundTrip[float32](t, true, nil, 0, 1.5, -2.25)
	roundTrip[complex64](t, true, nil, 0, complex(1, -2), complex(-3, 4))
	roundTrip(t, true, nil, time.Duration(0), time.Hour, -time.Nanosecond)
	roundTrip[cell](t, true, nil, 0, 7, 255)
	roundTrip(t, true, nil, point{}, point{1, -1}, point{math.MinInt32, math.MaxInt32})
	roundTrip(t, true, nil, [8]byte{}, [8]byte{1, 2, 3, 4, 5, 6, 7, 8}, [8]byte{7: 0xff})
	roundTrip(t, true, nil, struct{}{}, struct{}{})

	one, two := 1, 2
	roundTrip(t, false, nil, "", "a", "bc")
	roundTrip(t, false, nil, []int(nil), []int{1}, []int{2, 3})
	roundTrip(t, false, nil, map[string]int(nil), map[string]int{"a": 1}, map[string]int{})
	roundTrip(t, false, nil, (*int)(nil), &one, &two)
	roundTrip[any](t, false, nil, nil, 1, "x")
	roundTrip[error](t, false, nil, nil, errFail, errors.New("other"))
	roundTrip(t, false, nil, [9]byte{}, [9]byte{8: 1}, [9]byte{0: 2})
	roundTrip(t, false, nil, [2]uint64{}, [2]uint64{1, 2}, [2]uint64{3, 4})
	roundTrip[complex128](t, false, nil, 0, complex(1, 2), complex(3, 4))
	roundTrip(t, false, nil, boxedPoint{}, boxedPoint{&one, 1}, boxedPoint{&two, 2})
	roundTrip(t, false, nil, struct{ p *int }{}, struct{ p *int }{&one}, struct{ p *int }{&two})
	roundTrip(t, false, nil, [1]func(){}, [1]func(){}) // 8 bytes, but a pointer
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
