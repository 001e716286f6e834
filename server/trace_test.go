package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"pnstm"
	"pnstm/server"
)

// TestHotKeyProfilerE2E plants two hot keys in a sea of cold ones and
// demands the conflict profiler find them: eight writers hammer hot:m:h0
// and hot:m:h1, equally often, while also spreading single writes over
// unique cold keys, so the write-write conflicts between batch siblings
// concentrate on the planted keys and /debug/hotkeys must say so.
func TestHotKeyProfilerE2E(t *testing.T) {
	// MaxBatch 2 with MaxInflight 2 splits the writers across small
	// concurrent batches, so the planted keys contend at root level —
	// the conflict class that actually aborts (sibling conflicts inside
	// one batch are usually absorbed by spin/escalate).
	s := startServer(t, server.Config{
		Workers:     4,
		MaxBatch:    2,
		MaxInflight: 2,
		TraceSample: 1, // full lifecycle fidelity; attribution is exact either way
		AdminAddr:   "127.0.0.1:0",
	})

	const writers = 8
	const opsPer = 300
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := dial(t, s, 1)
			for i := 0; i < opsPer; i++ {
				var err error
				if i%5 == 4 {
					// One cold write per four hot ones, two to each planted
					// key: the profiler must not let the long tail crowd out
					// the real hot spots.
					err = cl.MapPut("hot:m", fmt.Sprintf("cold-%d-%d", g, i), []byte("x"))
				} else {
					err = cl.MapPut("hot:m", fmt.Sprintf("h%d", i%5%2), []byte("v"))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

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
	if rep.Aborts == 0 {
		t.Fatalf("no attributed aborts after %d contended writes: %+v", writers*opsPer, rep)
	}
	if rep.TraceEvents == 0 {
		t.Fatal("no trace events recorded")
	}
	// What timing cannot change: both planted keys are in the table of four
	// with aborts to their name, and the first rank is one of them. Their
	// order is not asserted, nor that they are the top two: a cold put that
	// shares a bucket with a planted key aborts as often as its batch group
	// retries, and under load one has out-counted the lesser planted key.
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

	// The same ranking is exported on /metrics as pnstm_hotkey_aborts.
	code, metrics := adminGET(t, adminURL(t, s, "/metrics"))
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	if !strings.Contains(metrics, `pnstm_hotkey_aborts{key="hot:m:h0"}`) &&
		!strings.Contains(metrics, `pnstm_hotkey_aborts{key="hot:m:h1"}`) {
		t.Fatal("pnstm_hotkey_aborts missing the planted keys")
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
