package stmlib_test

import (
	"testing"

	"pnstm"
	"pnstm/stmlib"
)

// TestTMapGetAllocCeiling: inside an open transaction a Get that hits
// costs what its own nested Atomic and its two loads (value bucket,
// deadline bucket) cost and nothing more — no boxed key, no second hash.
// Checked in both conflict models: under write-only conflicts a load logs
// an undo record, so the baseline is a nested Atomic doing two loads
// rather than an empty one.
func TestTMapGetAllocCeiling(t *testing.T) {
	for name, cfg := range map[string]pnstm.Config{
		"write-only":  {Workers: 2},
		"sharedreads": {Workers: 2, SharedReads: true},
	} {
		t.Run(name, func(t *testing.T) {
			rt := newRTConfig(t, cfg)
			m := stmlib.NewTMap[string, []byte](64)
			a, b := pnstm.NewTVar(0), pnstm.NewTVar(0)
			key := "key-000042"
			run(t, rt, func(c *pnstm.Ctx) {
				_ = c.Atomic(func(c *pnstm.Ctx) error {
					m.Put(c, key, []byte("v"))
					base := testing.AllocsPerRun(200, func() {
						_ = c.Atomic(func(c *pnstm.Ctx) error {
							_ = pnstm.Load(c, a) + pnstm.Load(c, b)
							return nil
						})
					})
					get := testing.AllocsPerRun(200, func() {
						if _, ok := m.Get(c, key); !ok {
							t.Error("Get missed the key just stored")
						}
					})
					if get > base {
						t.Errorf("TMap.Get hit: %.0f allocs, a nested Atomic with two loads: %.0f", get, base)
					}
					return nil
				})
			})
		})
	}
}
