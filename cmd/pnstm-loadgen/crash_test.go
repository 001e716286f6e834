package main

import (
	"testing"
	"time"
)

// TestCrashDrill runs the -kill-after drill end to end against 2 shards:
// provision, load, hard kill, restart, and the -recovery-check laws plus
// the drill's tallied bounds on the recovered store.
func TestCrashDrill(t *testing.T) {
	o := &options{killAfter: 300 * time.Millisecond, dataDir: t.TempDir()}
	o.cfg = testCfg(t, "mixed")
	o.cfg.stockPer = 1_000_000 // enough that the buyers do not sell out before the kill
	o.shards, o.workers, o.maxBatch, o.jsonDir = 2, 4, 64, t.TempDir()
	if err := runCrash(o); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, o.jsonDir, "BENCH_loadgen-crash-recovery.json")
	if v := rep.Metrics["violations"]; v != 0 {
		t.Errorf("%v violations: %q", v, rep.Notes)
	}
	if rep.Metrics["acked_adds"] == 0 || rep.Metrics["acked_sold"] == 0 {
		t.Errorf("nothing acked before the kill: %v", rep.Metrics)
	}
}
