package stmlib_test

import (
	"fmt"
	"reflect"
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

// populate fills a registry with a known mixed catalog and returns the
// expected image.
func populate(t *testing.T, rt *pnstm.Runtime, reg *stmlib.Registry) *stmlib.RegistryImage {
	t.Helper()
	want := &stmlib.RegistryImage{
		Maps:     map[string]map[string][]byte{},
		Queues:   map[string][][]byte{},
		Counters: map[string]int64{},
	}
	err := rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			for m := 0; m < 3; m++ {
				name := fmt.Sprintf("m%d", m)
				entries := map[string][]byte{}
				for k := 0; k < 40; k++ {
					key := fmt.Sprintf("k%02d", k)
					val := []byte(fmt.Sprintf("v%d-%d", m, k))
					reg.Map(name).Put(c, key, val)
					entries[key] = val
				}
				want.Maps[name] = entries
			}
			for q := 0; q < 2; q++ {
				name := fmt.Sprintf("q%d", q)
				var elems [][]byte
				for i := 0; i < 10; i++ {
					v := []byte(fmt.Sprintf("e%d-%d", q, i))
					reg.Queue(name).Push(c, v)
					elems = append(elems, v)
				}
				want.Queues[name] = elems
			}
			reg.Counter("hits").Add(c, 41)
			reg.Counter("hits").Add(c, 1)
			want.Counters["hits"] = 42
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func imagesEqual(a, b *stmlib.RegistryImage) bool {
	toStr := func(img *stmlib.RegistryImage) any {
		maps := map[string]map[string]string{}
		for n, m := range img.Maps {
			mm := map[string]string{}
			for k, v := range m {
				mm[k] = string(v)
			}
			maps[n] = mm
		}
		queues := map[string][]string{}
		for n, q := range img.Queues {
			var qq []string
			for _, v := range q {
				qq = append(qq, string(v))
			}
			queues[n] = qq
		}
		return []any{maps, queues, img.Counters}
	}
	return reflect.DeepEqual(toStr(a), toStr(b))
}

func TestRegistryExportImportRoundTrip(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			rt := newRT(t, 4, serial)
			reg := stmlib.NewRegistry(stmlib.RegistryConfig{MapBuckets: 16, CounterStripes: 4})
			want := populate(t, rt, reg)

			var img *stmlib.RegistryImage
			if err := rt.Run(func(c *pnstm.Ctx) { img = reg.Export(c) }); err != nil {
				t.Fatal(err)
			}
			if !imagesEqual(img, want) {
				t.Fatalf("export mismatch:\n got %+v\nwant %+v", img, want)
			}

			// Import into a fresh registry and re-export: must round-trip.
			rt2 := newRT(t, 4, serial)
			reg2 := stmlib.NewRegistry(stmlib.RegistryConfig{MapBuckets: 8, CounterStripes: 2})
			if err := rt2.Run(func(c *pnstm.Ctx) { reg2.Import(c, img) }); err != nil {
				t.Fatal(err)
			}
			var img2 *stmlib.RegistryImage
			if err := rt2.Run(func(c *pnstm.Ctx) { img2 = reg2.Export(c) }); err != nil {
				t.Fatal(err)
			}
			if !imagesEqual(img2, want) {
				t.Fatalf("import round-trip mismatch:\n got %+v\nwant %+v", img2, want)
			}

			// Queue FIFO must survive the round trip: popping reg2's queues
			// yields the original push order.
			if err := rt2.Run(func(c *pnstm.Ctx) {
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					for q := 0; q < 2; q++ {
						name := fmt.Sprintf("q%d", q)
						for i := 0; ; i++ {
							v, ok := reg2.Queue(name).Pop(c)
							if !ok {
								if i != 10 {
									t.Errorf("queue %s drained after %d pops, want 10", name, i)
								}
								break
							}
							if want := fmt.Sprintf("e%d-%d", q, i); string(v) != want {
								t.Errorf("queue %s pop %d = %q, want %q (FIFO broken)", name, i, v, want)
							}
						}
					}
					return nil
				})
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQueueElementsIsNonDestructiveView(t *testing.T) {
	rt := newRT(t, 2, false)
	q := stmlib.NewTQueue[[]byte]()
	err := rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			for i := 0; i < 6; i++ {
				q.Push(c, []byte(fmt.Sprintf("x%d", i)))
			}
			// Pop two so both stacks are populated (out-stack holds the
			// flipped prefix, in-stack any newer pushes).
			q.Pop(c)
			q.Pop(c)
			q.Push(c, []byte("x6"))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var view []string
	var lenBefore, lenAfter int
	err = rt.Run(func(c *pnstm.Ctx) {
		_ = c.Atomic(func(c *pnstm.Ctx) error {
			lenBefore = q.Len(c)
			for _, v := range q.Elements(c) {
				view = append(view, string(v))
			}
			lenAfter = q.Len(c)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"x2", "x3", "x4", "x5", "x6"}
	if !reflect.DeepEqual(view, want) {
		t.Fatalf("Elements = %v, want %v", view, want)
	}
	if lenBefore != 5 || lenAfter != 5 {
		t.Fatalf("Elements mutated the queue: len %d -> %d", lenBefore, lenAfter)
	}
}

func TestExportEmptyRegistry(t *testing.T) {
	rt := newRT(t, 2, false)
	reg := stmlib.NewRegistry(stmlib.RegistryConfig{})
	var img *stmlib.RegistryImage
	if err := rt.Run(func(c *pnstm.Ctx) { img = reg.Export(c) }); err != nil {
		t.Fatal(err)
	}
	if len(img.Maps) != 0 || len(img.Queues) != 0 || len(img.Counters) != 0 {
		t.Fatalf("empty registry exported non-empty image: %+v", img)
	}
	// Import of an empty (or nil) image is a no-op.
	if err := rt.Run(func(c *pnstm.Ctx) { reg.Import(c, img); reg.Import(c, nil) }); err != nil {
		t.Fatal(err)
	}
}
