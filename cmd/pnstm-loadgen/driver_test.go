package main

import (
	"strings"
	"testing"
	"time"

	"pnstm/client"
	"pnstm/server"
)

// testCfg is a small, fast instance of workload name.
func testCfg(t *testing.T, name string) genCfg {
	t.Helper()
	cfg := genCfg{
		workload:    name,
		concurrency: 4,
		conns:       2,
		duration:    150 * time.Millisecond,
		keys:        64,
		skus:        4,
		stockPer:    1000,
		queues:      2,
	}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// bootTest starts an embedded 2-shard in-memory server: two shards so the
// fanned counter reads, the cross-shard transfers and the read-only
// envelope fan are all on the verifiers' path.
func bootTest(t *testing.T) *client.Client {
	t.Helper()
	env, err := bootLeg(server.Config{Addr: "127.0.0.1:0", Shards: 2, Workers: 4, SharedReads: true}, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.close)
	return env.cl
}

// TestWorkloadsRunClean: every workload in the table, driven briefly
// against a healthy server, reports zero violations and zero errors —
// the checkers do not cry wolf.
func TestWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runLoad(bootTest(t), testCfg(t, w.name))
			if err != nil {
				t.Fatal(err)
			}
			if res.ops == 0 {
				t.Error("no ops completed")
			}
			if res.errs != 0 || len(res.violations) != 0 {
				t.Errorf("healthy run reported %d errors, violations %q", res.errs, res.violations)
			}
		})
	}
}

// TestVerifyCatchesPlantedDiscrepancy: a checker that cannot fail is not a
// check. For each conservation law, provision the workload, confirm
// verify() is clean, plant exactly one discrepancy — a client tally
// bumped without the op ever being sent, or one unit of server state
// changed behind the tally's back — and require a violation naming that
// law.
func TestVerifyCatchesPlantedDiscrepancy(t *testing.T) {
	bumpInt := func(t *testing.T, d *driver, name, key string, by int64) {
		t.Helper()
		v, ok, err := d.cl.MapGetInt(name, key)
		if err != nil || !ok {
			t.Fatalf("read %s/%s: ok=%v err=%v", name, key, ok, err)
		}
		if err := d.cl.MapPutInt(name, key, v+by); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		law      string // test name
		workload string
		plant    func(t *testing.T, d *driver)
		want     string // substring of the violation
	}{
		{"counter adds", "counter", func(t *testing.T, d *driver) { d.adds.Add(1) }, "baseline + issued adds"},
		{"queue pushes", "queue", func(t *testing.T, d *driver) { d.pushed.Add(1) }, "queues hold"},
		{"cas ledger", "txmix", func(t *testing.T, d *driver) { d.casApplied.Add(1) }, "cas slots total"},
		{"transfer conservation", "txmix", func(t *testing.T, d *driver) { d.txPushed.Add(1) }, "transfer queues hold"},
		{"cross-shard ledger", "crossshard", func(t *testing.T, d *driver) {
			bumpInt(t, d, acctMapName(3), acctKeyName(5), 1)
		}, "a cross-shard transfer split"},
		{"ledger overdraft", "crossshard", func(t *testing.T, d *driver) {
			bumpInt(t, d, acctMapName(0), acctKeyName(0), -acctInitial-1)
		}, "overdrawn"},
		{"stock conservation", "checkout", func(t *testing.T, d *driver) {
			bumpInt(t, d, stockName, skuName(1), -1)
		}, "conservation violated"},
		{"revenue consistency", "checkout", func(t *testing.T, d *driver) {
			if err := d.cl.CounterAdd(revenueName, 1); err != nil {
				t.Fatal(err)
			}
		}, "revenue"},
		{"map population", "readmap", func(t *testing.T, d *driver) {
			if err := d.cl.MapPut(mapName, "stray", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}, "map len"},
		{"exactly-once acks", "pipeline", func(t *testing.T, d *driver) { d.pipeAcked.Add(1) }, "done counter moved"},
		{"lease conservation", "pipeline", func(t *testing.T, d *driver) {
			if err := d.cl.CounterAdd(producedName, 1); err != nil {
				t.Fatal(err)
			}
		}, "lease conservation violated"},
	}
	for _, tc := range cases {
		t.Run(tc.law, func(t *testing.T) {
			t.Parallel()
			d, err := prepare(bootTest(t), testCfg(t, tc.workload))
			if err != nil {
				t.Fatal(err)
			}
			if v := d.verify(); len(v) != 0 {
				t.Fatalf("freshly provisioned store already violates: %q", v)
			}
			tc.plant(t, d)
			got := d.verify()
			for _, v := range got {
				if strings.Contains(v, tc.want) {
					return
				}
			}
			t.Fatalf("planted discrepancy not caught: violations %q, want one containing %q", got, tc.want)
		})
	}
}

// TestWorkloadTableIsTheOnlyList: the names the flag accepts, the error
// an unknown name gets and the -h usage all come from the table.
func TestWorkloadTableIsTheOnlyList(t *testing.T) {
	cfg := genCfg{workload: "nope"}
	err := cfg.fillDefaults()
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	var usage strings.Builder
	newFlags(&options{}, &usage).Usage()
	for _, w := range workloads {
		if !strings.Contains(err.Error(), w.name) {
			t.Errorf("unknown-workload error %q does not list %q", err, w.name)
		}
		if !strings.Contains(usage.String(), w.doc) {
			t.Errorf("-h does not print %q's line", w.name)
		}
		if w.op == nil || w.parts == 0 {
			t.Errorf("%q has no op or no parts", w.name)
		}
	}
}
