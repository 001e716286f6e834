package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pnstm/server"
)

// adminURL builds an endpoint URL against the server's admin listener.
func adminURL(t *testing.T, s *server.Server, path string) string {
	t.Helper()
	a := s.AdminAddr()
	if a == nil {
		t.Fatal("server has no admin listener")
	}
	return "http://" + a.String() + path
}

func adminGET(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func adminPUT(t *testing.T, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// metricValue scans Prometheus text output for the first sample whose
// name+labels start with prefix, returning its value.
func metricValue(t *testing.T, text, prefix string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

// replayBlocks replays one four-structure batch record into shard 0 the
// way a replica does and returns how many parallel blocks the replay
// forked under its root: the fan-out replayBatch was handed, seen from
// outside.
func replayBlocks(t *testing.T, s *server.Server, round int) uint64 {
	t.Helper()
	var body []byte
	for i := 0; i < 4; i++ {
		req := &server.Request{Op: server.OpMapPut, Name: fmt.Sprintf("adm:replay%d", i), Key: fmt.Sprint(round), Value: []byte("v")}
		var err error
		if body, err = server.AppendRequest(body, req); err != nil {
			t.Fatal(err)
		}
	}
	dispatched := func() uint64 {
		rt := s.Stats().PerShard[0].Runtime
		return rt.Dispatches + rt.BorrowDispatch
	}
	before := dispatched()
	if err := s.ApplyReplicaRecord(0, body); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return dispatched() - before - 1 // the root is a dispatched block too
}

// TestAdminSurface: health, readiness, metrics content and live config
// over a real admin listener, with real traffic in between.
func TestAdminSurface(t *testing.T) {
	cfg := server.Config{Shards: 2, AdminAddr: "127.0.0.1:0"}
	s := startServer(t, cfg)

	if code, body := adminGET(t, adminURL(t, s, "/healthz")); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body := adminGET(t, adminURL(t, s, "/readyz")); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("readyz = %d %q", code, body)
	}

	// Baseline config view.
	var view server.ConfigView
	code, body := adminGET(t, adminURL(t, s, "/config"))
	if code != 200 {
		t.Fatalf("GET /config = %d %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.MaxInflight != 1 || view.Durable || len(view.PerShard) != 2 {
		t.Fatalf("unexpected initial view: %+v", view)
	}
	// At the boot fan-out (Workers) a replayed record forks its groups.
	if n := replayBlocks(t, s, 0); n != 4 {
		t.Fatalf("replay at batch_fanout %d forked %d blocks for 4 groups, want 4", view.BatchFanout, n)
	}

	// Drive some traffic so every instrument has observations.
	cl := dial(t, s, 2)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := cl.MapPut("adm:m", key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.MapGet("adm:m", key); err != nil {
			t.Fatal(err)
		}
	}

	// PUT /config retunes MaxInflight live — no restart.
	code, body = adminPUT(t, adminURL(t, s, "/config"), `{"max_inflight": 4, "batch_fanout": 2}`)
	if code != 200 {
		t.Fatalf("PUT /config = %d %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.MaxInflight != 4 || view.BatchFanout != 2 {
		t.Fatalf("PUT did not change max_inflight/batch_fanout: %+v", view)
	}
	for _, ps := range view.PerShard {
		if ps.MaxInflight != 4 {
			t.Fatalf("shard %d effective max_inflight not updated: %+v", ps.Shard, ps)
		}
	}
	// The server still works after the retune.
	if err := cl.MapPut("adm:m", "after", []byte("retune")); err != nil {
		t.Fatal(err)
	}

	// Scrape: core series exist and are non-zero.
	code, scrape := adminGET(t, adminURL(t, s, "/metrics"))
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, prefix := range []string{
		`pnstm_requests_total{shard="0"}`,
		`pnstm_batches_total{shard="0"}`,
		`pnstm_request_latency_seconds_count{class="point"}`,
	} {
		v, ok := metricValue(t, scrape, prefix)
		if !ok || v <= 0 {
			t.Fatalf("series %s missing or zero (got %v, found %v)\n%s", prefix, v, ok, scrape)
		}
	}
	if v, ok := metricValue(t, scrape, "pnstm_ready"); !ok || v != 1 {
		t.Fatalf("pnstm_ready = %v (found %v)", v, ok)
	}
	if v, ok := metricValue(t, scrape, `pnstm_max_inflight{shard="0"}`); !ok || v != 4 {
		t.Fatalf("pnstm_max_inflight gauge did not follow PUT: %v (found %v)", v, ok)
	}
	if !strings.Contains(scrape, `pnstm_batch_size_bucket{shard="0",le="1"}`) {
		t.Fatalf("batch occupancy histogram missing:\n%s", scrape)
	}

	// OpStats carries the histogram summaries (satellite 1).
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	lat, ok := st.Latency["point"]
	if !ok || lat.Count == 0 || lat.P99us <= 0 || lat.P50us > lat.P99us {
		t.Fatalf("OpStats latency summary wrong: %+v", st.Latency)
	}

	// One snapshot, every reader: after a PUT the OpStats payload, GET
	// /config, the gauge and a replica's replay all see the new values
	// (OpStats and replay used to read the boot configuration).
	if code, body := adminPUT(t, adminURL(t, s, "/config"), `{"max_batch": 4, "batch_fanout": 2}`); code != 200 {
		t.Fatalf("PUT /config = %d %q", code, body)
	}
	if st, err = cl.Stats(); err != nil || st.MaxBatch != 4 {
		t.Fatalf("OpStats max_batch = %d, %v; want 4", st.MaxBatch, err)
	}
	_, body = adminGET(t, adminURL(t, s, "/config"))
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.MaxBatch != 4 || view.BatchFanout != 2 || view.MaxInflight != 4 {
		t.Fatalf("GET /config after PUT: %+v", view)
	}
	_, scrape = adminGET(t, adminURL(t, s, "/metrics"))
	if v, ok := metricValue(t, scrape, `pnstm_batch_fanout{shard="0"}`); !ok || v != 2 {
		t.Fatalf("pnstm_batch_fanout gauge = %v (found %v), want 2", v, ok)
	}
	if n := replayBlocks(t, s, 1); n != 2 {
		t.Fatalf("replay at batch_fanout 2 forked %d blocks, want 2: it does not read the live value", n)
	}
	if code, body := adminPUT(t, adminURL(t, s, "/config"), `{"batch_fanout": 1}`); code != 200 {
		t.Fatalf("PUT /config = %d %q", code, body)
	}
	if n := replayBlocks(t, s, 2); n != 0 {
		t.Fatalf("replay at batch_fanout 1 forked %d blocks, want none", n)
	}
}

// TestConfigSurface is the knob census: every field of server.Config
// and every key of the live /config body, against a golden list. A
// change that adds a knob fails here until the list — and README's and
// ARCHITECTURE's account of why the knob earns its place — is updated.
func TestConfigSurface(t *testing.T) {
	names := func(typ reflect.Type, tag string) []string {
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if tag != "" {
				name, _, _ = strings.Cut(typ.Field(i).Tag.Get(tag), ",")
			}
			out = append(out, name)
		}
		return out
	}
	wantFields := []string{ // 24
		"Addr", "Shards", "Workers", "MaxBatch", "BatchDelay", "BatchFanout", "MaxInflight",
		"Serial", "SharedReads", "Registry", "DataDir", "Fsync", "WALSyncDelay", "SnapshotEvery",
		"WALSegmentBytes", "ReplicaOf", "ReplicaMaxStaleness", "AdminAddr", "Adaptive",
		"DisableTracing", "TraceSample", "AdminDebug", "ReapInterval", "Logger",
	}
	if got := names(reflect.TypeOf(server.Config{}), ""); !reflect.DeepEqual(got, wantFields) {
		t.Errorf("server.Config fields changed:\n got  %v\n want %v", got, wantFields)
	}
	wantKeys := []string{ // 7
		"max_batch", "batch_delay_ms", "batch_fanout", "max_inflight", "snapshot_every_ms", "adaptive", "tracing",
	}
	if got := names(reflect.TypeOf(server.LiveConfig{}), "json"); !reflect.DeepEqual(got, wantKeys) {
		t.Errorf("live /config keys changed:\n got  %v\n want %v", got, wantKeys)
	}
	// GET adds exactly its read-only fields around the same struct.
	wantView := []string{"", "durable", "serial", "per_shard"}
	if got := names(reflect.TypeOf(server.ConfigView{}), "json"); !reflect.DeepEqual(got, wantView) {
		t.Errorf("GET /config shape changed:\n got  %v\n want %v", got, wantView)
	}
}

// TestAdminConfigValidation: invalid updates are rejected atomically
// with 400 and change nothing.
func TestAdminConfigValidation(t *testing.T) {
	s := startServer(t, server.Config{AdminAddr: "127.0.0.1:0"})
	url := adminURL(t, s, "/config")
	published := s.ConfigPointer()
	_, before := adminGET(t, url)
	for _, bad := range []string{
		`{"batch_fanout": -1}`,
		`{"batch_fanout": 0}`,
		`{"max_inflight": 0}`,
		`{"max_inflight": -3}`,
		`{"max_batch": 0}`,
		`{"batch_delay_ms": -1}`,
		`{"snapshot_every_ms": -5}`,
		`{"max_inflite": 4}`,                   // typoed knob must not silently no-op
		`{"max_batch": 4, "batch_fanout": -1}`, // one bad field fails the whole update
	} {
		if code, body := adminPUT(t, url, bad); code != 400 {
			t.Fatalf("PUT %s = %d %q, want 400", bad, code, body)
		}
		// A rejected update publishes nothing: not an equal value, the
		// same one.
		if s.ConfigPointer() != published {
			t.Fatalf("rejected PUT %s published a new configuration", bad)
		}
		if _, after := adminGET(t, url); after != before {
			t.Fatalf("rejected PUT %s changed GET /config:\n before %s\n after  %s", bad, before, after)
		}
	}
	var view server.ConfigView
	_, body := adminGET(t, url)
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.MaxInflight != 1 || view.MaxBatch != 64 {
		t.Fatalf("rejected updates leaked into config: %+v", view)
	}
	if code, _ := adminGET(t, adminURL(t, s, "/config")); code != 200 {
		t.Fatal("GET /config broken after rejects")
	}
}

// TestAdminRejectsPipeliningWithWAL: the D20 clamp is enforced at the
// API too — a durable server refuses max_inflight > 1.
func TestAdminRejectsPipeliningWithWAL(t *testing.T) {
	s := startServer(t, server.Config{DataDir: t.TempDir(), AdminAddr: "127.0.0.1:0"})
	code, body := adminPUT(t, adminURL(t, s, "/config"), `{"max_inflight": 2}`)
	if code != 400 || !strings.Contains(body, "WAL") {
		t.Fatalf("durable PUT max_inflight=2 = %d %q, want 400 mentioning the WAL", code, body)
	}
	var view server.ConfigView
	_, cfgBody := adminGET(t, adminURL(t, s, "/config"))
	if err := json.Unmarshal([]byte(cfgBody), &view); err != nil {
		t.Fatal(err)
	}
	if !view.Durable || view.MaxInflight != 1 {
		t.Fatalf("view after reject: %+v", view)
	}
}

// TestAdminConcurrentConfigAndTraffic: PUT /config races live traffic,
// scrapes and config reads — the -race CI job proves the knob plumbing
// has no data races, and every response stays correct.
func TestAdminConcurrentConfigAndTraffic(t *testing.T) {
	s := startServer(t, server.Config{Shards: 2, AdminAddr: "127.0.0.1:0"})
	cfgURL := adminURL(t, s, "/config")
	metURL := adminURL(t, s, "/metrics")

	const goroutines = 4
	const opsPer = 400
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+2)

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := dial(t, s, 1)
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := cl.MapPut("adm:race", key, []byte(key)); err != nil {
					errs <- err
					return
				}
				v, ok, err := cl.MapGet("adm:race", key)
				if err != nil {
					errs <- err
					return
				}
				if !ok || string(v) != key {
					errs <- fmt.Errorf("read-your-write broken for %s: %q %v", key, v, ok)
					return
				}
			}
		}(g)
	}

	// Config churn: walk the knobs while the traffic runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			inflight := 1 + i%4
			body := fmt.Sprintf(`{"max_inflight": %d, "max_batch": %d, "batch_fanout": %d}`,
				inflight, 16+(i%3)*24, 1+i%8)
			if code, resp := adminPUT(t, cfgURL, body); code != 200 {
				errs <- fmt.Errorf("PUT %s = %d %q", body, code, resp)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Scrape churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if code, _ := adminGET(t, metURL); code != 200 {
				errs <- fmt.Errorf("scrape %d failed", i)
				return
			}
			if code, _ := adminGET(t, cfgURL); code != 200 {
				errs <- fmt.Errorf("config read %d failed", i)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All issued writes are present: the knob churn lost nothing.
	cl := dial(t, s, 1)
	n, err := cl.MapLen("adm:race")
	if err != nil {
		t.Fatal(err)
	}
	if n != goroutines*opsPer {
		t.Fatalf("map len = %d, want %d", n, goroutines*opsPer)
	}
}

// TestAdminStopsWithClose: after a graceful Close the admin listener is
// gone — it drained last, it did not linger.
func TestAdminStopsWithClose(t *testing.T) {
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	url := adminURL(t, s, "/healthz")
	if code, _ := adminGET(t, url); code != 200 {
		t.Fatal("healthz before close")
	}
	s.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("admin listener still serving after Close")
	}
}
