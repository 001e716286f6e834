package main

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
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
// global counter reads, the cross-shard transfers and the read-only
// cross-shard envelopes are all on the verifiers' path.
func bootTest(t *testing.T) *client.Client {
	t.Helper()
	env, err := bootLeg(server.Config{Addr: "127.0.0.1:0", Shards: 2, Workers: 4}, false, 2)
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
// law. A law -recovery-check also holds (recovery set) must fail there
// too, bounded by bench:meta alone.
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
		recovery bool   // runRecoveryCheck must catch it too
	}{
		{"counter adds", "counter", func(t *testing.T, d *driver) { d.adds.Add(1) }, "baseline + issued adds", false},
		{"queue pushes", "queue", func(t *testing.T, d *driver) { d.pushed.Add(1) }, "queues hold", false},
		{"cas ledger", "txmix", func(t *testing.T, d *driver) { d.casApplied.Add(1) }, "cas slots total", false},
		{"transfer conservation", "txmix", func(t *testing.T, d *driver) { d.txPushed.Add(1) }, "transfer queues hold", false},
		{"cross-shard ledger", "crossshard", func(t *testing.T, d *driver) {
			bumpInt(t, d, acctMapName(3), acctKeyName(5), 1)
		}, "a cross-shard transfer split", true},
		{"ledger overdraft", "crossshard", func(t *testing.T, d *driver) {
			bumpInt(t, d, acctMapName(0), acctKeyName(0), -acctInitial-1)
		}, "overdrawn", true},
		{"stock conservation", "checkout", func(t *testing.T, d *driver) {
			bumpInt(t, d, stockName, skuName(1), -1)
		}, "conservation violated", true},
		{"revenue consistency", "checkout", func(t *testing.T, d *driver) {
			if err := d.cl.CounterAdd(revenueName, 1); err != nil {
				t.Fatal(err)
			}
		}, "revenue", true},
		{"map population", "readmap", func(t *testing.T, d *driver) {
			if err := d.cl.MapPut(mapName, "stray", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}, "map len", true},
		{"exactly-once acks", "pipeline", func(t *testing.T, d *driver) { d.pipeAcked.Add(1) }, "done counter moved", false},
		{"lease conservation", "pipeline", func(t *testing.T, d *driver) {
			if err := d.cl.CounterAdd(producedName, 1); err != nil {
				t.Fatal(err)
			}
		}, "lease conservation violated", true},
		{"expired session resurrected", "pipeline", func(t *testing.T, d *driver) {
			if err := d.cl.MapPut(sessionsName, expSessionKey(3), []byte("back")); err != nil {
				t.Fatal(err)
			}
		}, "resurrected", true},
		{"done > produced", "pipeline", func(t *testing.T, d *driver) {
			if err := d.cl.CounterAdd(doneName, 1); err != nil {
				t.Fatal(err)
			}
		}, "done 1 > produced 0", true},
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
			if tc.recovery {
				if err := runRecoveryCheck(d.cl); err != nil {
					t.Fatalf("freshly provisioned store fails -recovery-check: %v", err)
				}
			}
			tc.plant(t, d)
			if got := d.verify(); !slices.ContainsFunc(got, func(v string) bool { return strings.Contains(v, tc.want) }) {
				t.Errorf("planted discrepancy not caught: violations %q, want one containing %q", got, tc.want)
			}
			if !tc.recovery {
				return
			}
			var got violations
			if err := runRecoveryCheck(d.cl); !errors.As(err, &got) ||
				!slices.ContainsFunc(got, func(v string) bool { return strings.Contains(v, tc.want) }) {
				t.Errorf("planted discrepancy not caught by -recovery-check: %v, want a violation containing %q", err, tc.want)
			}
		})
	}
}

// TestRecoveryCheckReadsProvisionedKeys: -recovery-check bounds bench:m's
// population by the key count the load provisioned, recorded in
// bench:meta, not by the -keys flag: a mixed load with a non-default
// -keys followed by a plain -recovery-check is clean.
func TestRecoveryCheckReadsProvisionedKeys(t *testing.T) {
	cfg := testCfg(t, "mixed")
	cfg.keys = 256
	cl := bootTest(t)
	if _, err := runLoad(cl, cfg); err != nil {
		t.Fatal(err)
	}
	if err := runRecoveryCheck(cl); err != nil {
		t.Fatalf("-recovery-check after a -keys %d load: %v", cfg.keys, err)
	}
}

// TestLawReadErrorsStayTheirOwn: against a closed client every law's
// read fails, and each law reports its own error once — no law is
// skipped because an earlier one could not read, and none turns a
// failed or partial read into a violation of its law.
func TestLawReadErrorsStayTheirOwn(t *testing.T) {
	for _, tc := range []struct {
		workload string
		laws     int // laws verify runs for the workload
	}{
		{"mixed", 4},      // map population, queues, counter, checkout
		{"txmix", 3},      // transfer queues, cas slots, checkout
		{"crossshard", 1}, // ledger
		{"pipeline", 1},   // leases, board and sessions
	} {
		t.Run(tc.workload, func(t *testing.T) {
			t.Parallel()
			d, err := prepare(bootTest(t), testCfg(t, tc.workload))
			if err != nil {
				t.Fatal(err)
			}
			// Tallies as if ops had run, so a partial read compared
			// against them would fake a violation.
			for _, n := range []*atomic.Int64{&d.adds, &d.pushed, &d.txPushed, &d.casApplied, &d.pipeAcked} {
				n.Add(3)
			}
			d.cl.Close()
			onlyReadErrors := func(from string, got []string, want int) {
				t.Helper()
				if len(got) != want {
					t.Errorf("%s reported %d verdicts, want one read error for each of %d laws: %q", from, len(got), want, got)
				}
				for _, v := range got {
					if !strings.HasPrefix(v, "cannot read ") || !strings.Contains(v, "client: closed") {
						t.Errorf("%s reported %q, want only read errors", from, v)
					}
				}
			}
			onlyReadErrors("verify", d.verify(), tc.laws)
			var got violations
			if err := runRecoveryCheck(d.cl); !errors.As(err, &got) {
				t.Fatalf("-recovery-check on a closed client: %v, want violations", err)
			}
			onlyReadErrors("-recovery-check", got, 4) // one bench:meta read per recoverable part
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
