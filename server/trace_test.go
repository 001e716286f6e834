package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"pnstm"
	"pnstm/server"
)

// TestHotKeyProfilerE2E plants two hot keys in a sea of cold ones and
// demands /debug/hotkeys find them. Served traffic no longer
// conflicts on a key — a shard commits one batch at a time and the
// planner runs one key's requests as one chain (D58) — so the test makes
// the conflicts itself, from two concurrent roots on the shard's runtime.
// Each root tags its context the way the batcher tags a request and
// writes the map; the first holds its write open until the second has
// aborted on it. Four rounds in five go to hot:m:h0 and hot:m:h1 in turn,
// the fifth to a fresh cold key, so /debug/hotkeys must rank the planted
// keys above the long tail, each with exactly the count its events in
// the conflict rings add up to.
func TestHotKeyProfilerE2E(t *testing.T) {
	s := startServer(t, server.Config{
		Workers:   4,
		AdminAddr: "127.0.0.1:0",
	})
	rt, m := s.Runtime(), s.Registry().Map("hot:m")
	put := func(key string, written chan<- struct{}, hold func()) error {
		return rt.Run(func(c *pnstm.Ctx) {
			_ = c.Atomic(func(c *pnstm.Ctx) error {
				c.SetTraceTag("hot:m", key)
				m.Put(c, key, []byte("v"))
				if hold != nil {
					select {
					case written <- struct{}{}:
					default: // a re-executed root has signalled already
					}
					hold()
				}
				return nil
			})
		})
	}

	const rounds = 100
	for i := 0; i < rounds; i++ {
		key := fmt.Sprintf("h%d", i%5%2)
		if i%5 == 4 {
			key = fmt.Sprintf("cold-%d", i)
		}
		before := rt.Stats().Aborted
		written, held := make(chan struct{}, 1), make(chan error, 1)
		go func() {
			held <- put(key, written, func() {
				for deadline := time.Now().Add(10 * time.Second); rt.Stats().Aborted == before; {
					if time.Now().After(deadline) {
						t.Errorf("round %d: the second root never aborted on %s", i, key)
						return
					}
					runtime.Gosched()
				}
			})
		}()
		<-written
		if err := put(key, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := <-held; err != nil {
			t.Fatal(err)
		}
	}

	code, body := adminGET(t, adminURL(t, s, "/debug/hotkeys?n=4"))
	if code != 200 {
		t.Fatalf("GET /debug/hotkeys = %d %q", code, body)
	}
	var rep server.HotKeysReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	if !rep.Tracing {
		t.Fatal("report says tracing is off")
	}
	if rep.Aborts < rounds {
		t.Fatalf("%d attributed aborts after %d contended rounds, want at least one each: %+v", rep.Aborts, rounds, rep)
	}
	if rep.TraceEvents == 0 {
		t.Fatal("no trace events recorded")
	}
	// Both planted keys are in the table of four with aborts to their
	// name, and the first rank is one of them.
	counts := map[string]uint64{}
	for _, hk := range rep.Top {
		counts[hk.Key] = hk.Count
	}
	for _, key := range []string{"hot:m:h0", "hot:m:h1"} {
		if counts[key] == 0 {
			t.Fatalf("planted key %q is not in the table of %d with a non-zero count (table: %+v)", key, len(rep.Top), rep.Top)
		}
	}
	if first := rep.Top[0].Key; first != "hot:m:h0" && first != "hot:m:h1" {
		t.Fatalf("rank 1 is %q, not a planted hot key (table: %+v)", first, rep.Top)
	}

	// The counts are exact: each is the number of abort and escalate
	// events tagged with the key that the conflict rings retain.
	for _, key := range []string{"hot:m:h0", "hot:m:h1"} {
		var want uint64
		for _, ev := range rt.TraceConflicts() {
			if (ev.Kind == pnstm.EvAbort || ev.Kind == pnstm.EvEscalate) && ev.Tag == key {
				want++
			}
		}
		if counts[key] != want {
			t.Fatalf("%s ranked with count %d, but the conflict rings hold %d of its aborts and escalations", key, counts[key], want)
		}
	}

	// And the raw event window on /debug/trace carries abort events
	// tagged with the planted keys.
	code, trace := adminGET(t, adminURL(t, s, "/debug/trace?secs=60"))
	if code != 200 {
		t.Fatalf("GET /debug/trace = %d", code)
	}
	var win struct {
		Tracing bool                `json:"tracing"`
		Shards  []server.ShardTrace `json:"shards"`
	}
	if err := json.Unmarshal([]byte(trace), &win); err != nil {
		t.Fatal(err)
	}
	if !win.Tracing || len(win.Shards) != 1 {
		t.Fatalf("trace window: tracing=%v shards=%d", win.Tracing, len(win.Shards))
	}
	var sawTaggedAbort bool
	for _, ev := range win.Shards[0].Events {
		if ev.Kind == pnstm.EvAbort && strings.HasPrefix(ev.Tag, "hot:m:h") {
			sawTaggedAbort = true
			break
		}
	}
	if !sawTaggedAbort {
		t.Fatalf("no abort event tagged hot:m:h* among %d retained events", len(win.Shards[0].Events))
	}
}

// TestDebugEndpointValidation covers the /debug/hotkeys and /debug/trace
// parameter and method checks, and that pprof is NOT mounted without
// Config.AdminDebug.
func TestDebugEndpointValidation(t *testing.T) {
	s := startServer(t, server.Config{AdminAddr: "127.0.0.1:0"})

	if resp, err := http.Post(adminURL(t, s, "/debug/hotkeys"), "text/plain", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/hotkeys = %d, want 405", resp.StatusCode)
	}
	if code, body := adminGET(t, adminURL(t, s, "/debug/hotkeys?n=0")); code != http.StatusBadRequest {
		t.Fatalf("n=0 -> %d %q, want 400", code, body)
	}
	if code, body := adminGET(t, adminURL(t, s, "/debug/hotkeys?n=junk")); code != http.StatusBadRequest {
		t.Fatalf("n=junk -> %d %q, want 400", code, body)
	}
	if code, _ := adminGET(t, adminURL(t, s, "/debug/hotkeys?n=5")); code != 200 {
		t.Fatalf("n=5 -> %d, want 200", code)
	}
	if code, body := adminGET(t, adminURL(t, s, "/debug/trace?secs=-1")); code != http.StatusBadRequest {
		t.Fatalf("secs=-1 -> %d %q, want 400", code, body)
	}
	if code, body := adminGET(t, adminURL(t, s, "/debug/trace?secs=abc")); code != http.StatusBadRequest {
		t.Fatalf("secs=abc -> %d %q, want 400", code, body)
	}
	if code, _ := adminGET(t, adminURL(t, s, "/debug/trace")); code != 200 {
		t.Fatalf("GET /debug/trace -> %d, want 200", code)
	}

	// pprof must be absent without the opt-in flag.
	if code, _ := adminGET(t, adminURL(t, s, "/debug/pprof/cmdline")); code != http.StatusNotFound {
		t.Fatalf("pprof mounted without AdminDebug: GET /debug/pprof/cmdline = %d", code)
	}
}

// TestPprofBehindAdminDebug: with the flag, the profiler endpoints
// answer on the admin listener.
func TestPprofBehindAdminDebug(t *testing.T) {
	s := startServer(t, server.Config{AdminAddr: "127.0.0.1:0", AdminDebug: true})
	if code, body := adminGET(t, adminURL(t, s, "/debug/pprof/cmdline")); code != 200 || body == "" {
		t.Fatalf("GET /debug/pprof/cmdline = %d %q, want the process cmdline", code, body)
	}
	if code, _ := adminGET(t, adminURL(t, s, "/debug/pprof/")); code != 200 {
		t.Fatalf("GET /debug/pprof/ index = %d, want 200", code)
	}
}

// TestTracingConfigKnob: PUT /config {"tracing": false} silences the
// recorder live, and turning it back on resumes recording.
func TestTracingConfigKnob(t *testing.T) {
	s := startServer(t, server.Config{AdminAddr: "127.0.0.1:0"})
	cl := dial(t, s, 1)

	if code, body := adminPUT(t, adminURL(t, s, "/config"), `{"tracing": false}`); code != 200 {
		t.Fatalf("PUT tracing=false -> %d %q", code, body)
	}
	if s.TracingEnabled() {
		t.Fatal("tracing still enabled after PUT")
	}
	before := hotKeyTraceEvents(t, s)
	for i := 0; i < 50; i++ {
		if err := cl.MapPut("knob:m", "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if after := hotKeyTraceEvents(t, s); after != before {
		t.Fatalf("recorder grew %d -> %d events while tracing was off", before, after)
	}

	if code, body := adminPUT(t, adminURL(t, s, "/config"), `{"tracing": true}`); code != 200 {
		t.Fatalf("PUT tracing=true -> %d %q", code, body)
	}
	for i := 0; i < 50; i++ {
		if err := cl.MapPut("knob:m", "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if after := hotKeyTraceEvents(t, s); after <= before {
		t.Fatalf("recorder did not resume after re-enabling (still %d events)", after)
	}
}

func hotKeyTraceEvents(t *testing.T, s *server.Server) uint64 {
	t.Helper()
	return s.HotKeys(1).TraceEvents
}
