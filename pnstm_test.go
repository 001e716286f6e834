package pnstm_test

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"pnstm"
	"pnstm/internal/core"
	"pnstm/internal/epoch"
	"pnstm/stmlib"
)

// TestRuntimeConfigSurface is the runtime's knob census: a field added to
// or deleted from a runtime or structure-library configuration changes
// one of these lists.
func TestRuntimeConfigSurface(t *testing.T) {
	names := func(v any) []string {
		typ := reflect.TypeOf(v)
		out := make([]string, typ.NumField())
		for i := range out {
			out[i] = typ.Field(i).Name
		}
		return out
	}
	for _, c := range []struct {
		cfg  any
		want []string
	}{
		{pnstm.Config{}, []string{ // 5
			"Workers", "Serial", "DisableAggressiveRecycle", "SharedReads", "Seed",
		}},
		{core.Config{}, []string{ // 7
			"Workers", "Serial", "DisableAggressiveRecycle", "SharedReads",
			"ConflictWait", "EscalateAfterAborts", "Seed",
		}},
		{epoch.PublisherConfig{}, []string{ // 3
			"Bitnums", "MaxEpoch", "Free",
		}},
		{stmlib.RegistryConfig{}, []string{ // 2
			"MapBuckets", "CounterStripes",
		}},
	} {
		if got := names(c.cfg); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%T fields changed:\n got  %v\n want %v", c.cfg, got, c.want)
		}
	}
}

func newRuntime(t *testing.T, workers int) *pnstm.Runtime {
	t.Helper()
	rt, err := pnstm.New(pnstm.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestTypedVarRoundTrip(t *testing.T) {
	rt := newRuntime(t, 2)
	v := pnstm.NewTVar("hello")
	err := rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			if got := pnstm.Load(c, v); got != "hello" {
				t.Errorf("Load = %q", got)
			}
			pnstm.Store(c, v, "world")
			if got := pnstm.Swap(c, v, "again"); got != "world" {
				t.Errorf("Swap old = %q", got)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got != "again" {
		t.Fatalf("Peek = %q", got)
	}
}

func TestUpdateAndAtomicResult(t *testing.T) {
	rt := newRuntime(t, 2)
	v := pnstm.NewTVar(10)
	err := rt.Run(func(c *pnstm.Ctx) {
		got, err := pnstm.AtomicResult(c, func(c *pnstm.Ctx) (int, error) {
			return pnstm.Update(c, v, func(x int) int { return x * 3 }), nil
		})
		if err != nil || got != 30 {
			t.Errorf("AtomicResult = %d, %v", got, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Peek() != 30 {
		t.Fatalf("Peek = %d", v.Peek())
	}
}

func TestStructuredValues(t *testing.T) {
	type point struct{ X, Y int }
	rt := newRuntime(t, 2)
	v := pnstm.NewTVar(point{1, 2})
	err := rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			p := pnstm.Load(c, v)
			p.X += 10
			pnstm.Store(c, v, p)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got != (point{11, 2}) {
		t.Fatalf("Peek = %+v", got)
	}
}

func TestUserErrorPropagates(t *testing.T) {
	rt := newRuntime(t, 2)
	v := pnstm.NewTVar(1)
	sentinel := errors.New("sentinel")
	err := rt.Run(func(c *pnstm.Ctx) {
		if got := c.Atomic(func(c *pnstm.Ctx) error {
			pnstm.Store(c, v, 2)
			return sentinel
		}); !errors.Is(got, sentinel) {
			t.Errorf("err = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Peek() != 1 {
		t.Fatalf("rollback failed: %d", v.Peek())
	}
}

func TestParallelInsideTransaction(t *testing.T) {
	rt := newRuntime(t, 4)
	vars := make([]*pnstm.TVar[int], 16)
	for i := range vars {
		vars[i] = pnstm.NewTVar(0)
	}
	err := rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			fns := make([]func(*pnstm.Ctx), len(vars))
			for i := range vars {
				i := i
				fns[i] = func(c *pnstm.Ctx) {
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						pnstm.Store(c, vars[i], i+1)
						return nil
					})
				}
			}
			c.Parallel(fns...)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vars {
		if v.Peek() != i+1 {
			t.Fatalf("vars[%d] = %d", i, v.Peek())
		}
	}
}

func TestSerialModeViaPublicAPI(t *testing.T) {
	rt, err := pnstm.New(pnstm.Config{Workers: 1, Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Publisher() != nil {
		t.Fatal("serial runtime has a publisher")
	}
	v := pnstm.NewTVar(0)
	var order []int
	err = rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			c.Parallel(
				func(c *pnstm.Ctx) { order = append(order, 1) },
				func(c *pnstm.Ctx) { order = append(order, 2) },
				func(c *pnstm.Ctx) { order = append(order, 3) },
			)
			pnstm.Store(c, v, len(order))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serial mode runs children in order on one goroutine.
	for i, got := range order {
		if got != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if v.Peek() != 3 {
		t.Fatalf("v = %d", v.Peek())
	}
}

func TestRuntimeCloseSemantics(t *testing.T) {
	rt := newRuntime(t, 2)
	rt.Close()
	if err := rt.Run(func(*pnstm.Ctx) {}); !errors.Is(err, pnstm.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestHighContentionCounter(t *testing.T) {
	rt := newRuntime(t, 4)
	v := pnstm.NewTVar(0)
	var attempts atomic.Int64
	const workers = 16
	const perWorker = 10
	err := rt.Run(func(c *pnstm.Ctx) {
		fns := make([]func(*pnstm.Ctx), workers)
		for i := range fns {
			fns[i] = func(c *pnstm.Ctx) {
				for k := 0; k < perWorker; k++ {
					_ = c.Atomic(func(c *pnstm.Ctx) error {
						attempts.Add(1)
						pnstm.Update(c, v, func(x int) int { return x + 1 })
						return nil
					})
				}
			}
		}
		c.Parallel(fns...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d (attempts %d, stats %+v)",
			got, workers*perWorker, attempts.Load(), rt.Stats())
	}
}

func TestWorkersAccessor(t *testing.T) {
	rt := newRuntime(t, 3)
	if rt.Workers() != 3 {
		t.Fatalf("Workers = %d", rt.Workers())
	}
}
