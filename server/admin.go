package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// The admin surface is a second, HTTP listener (Config.AdminAddr)
// serving the operational plane: Prometheus metrics, liveness and
// readiness, and the live configuration. It is separate from the
// binary protocol port so an operator's curl and a Prometheus scraper
// never compete with data traffic for frames, and so it can keep
// answering during the graceful drain (Close shuts it down LAST).

// adminDrainTimeout bounds how long Close waits for in-flight admin
// requests (scrapes are milliseconds; this is pure safety margin).
const adminDrainTimeout = 5 * time.Second

// Ready reports whether the server is accepting work: nil when ready,
// otherwise the reason. Not ready once shutdown begins (Close/Kill flip
// s.closed before anything else, so /readyz turns 503 immediately — a
// load balancer stops routing before the drain starts losing it
// requests), before recovery has loaded the durable state (listener-up
// is not store-up), when any shard's WAL has latched shut (the store
// still serves reads from memory but can no longer accept durable
// writes), and on a replica whose staleness watermark is unknown or
// beyond Config.ReplicaMaxStaleness — a lagging replica must fall out
// of the read pool rather than serve arbitrarily old state.
func (s *Server) Ready() error {
	if s.closed.Load() {
		return fmt.Errorf("shutting down")
	}
	if !s.recovered.Load() {
		return fmt.Errorf("recovering")
	}
	if s.isReplica() {
		cfg := s.cfg.Load()
		st, ok := s.repl.staleness()
		if !ok {
			return fmt.Errorf("replica syncing: not yet caught up with %s", cfg.ReplicaOf)
		}
		if st > cfg.ReplicaMaxStaleness {
			return fmt.Errorf("replica stale by %s (bound %s)", st.Round(time.Millisecond), cfg.ReplicaMaxStaleness)
		}
	}
	for _, sh := range s.shards {
		if sh.wal != nil {
			if err := sh.wal.Err(); err != nil {
				return fmt.Errorf("shard %d wal latched: %w", sh.id, err)
			}
		}
	}
	return nil
}

// AdminAddr returns the bound admin listen address (nil before Listen
// or without Config.AdminAddr) — how tests bind ":0" and find the port.
func (s *Server) AdminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

// listenAdmin binds the admin address and builds the HTTP server.
// Called from Listen; serveAdmin starts the accept loop.
func (s *Server) listenAdmin() error {
	cfg := s.cfg.Load()
	if cfg.AdminAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", cfg.AdminAddr)
	if err != nil {
		return fmt.Errorf("server: admin listen: %w", err)
	}
	s.adminLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/config", s.handleConfig)
	mux.HandleFunc("/replica", s.handleReplica)
	mux.HandleFunc("/promote", s.handlePromote)
	mux.HandleFunc("/debug/hotkeys", s.handleHotKeys)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	if cfg.AdminDebug {
		// Mounted explicitly (not via the net/http/pprof import side
		// effect) so the handlers exist only behind the opt-in flag and
		// only on this mux, never on http.DefaultServeMux.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.adminSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return nil
}

// serveAdmin runs the admin accept loop in the background (idempotent;
// called from Serve so the admin plane lives exactly as long as the
// data plane accepts).
func (s *Server) serveAdmin() {
	if s.adminSrv == nil || s.adminLn == nil {
		return
	}
	if !s.adminServing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		// ErrServerClosed is the normal Shutdown/Close exit; anything else
		// means the admin plane died while the data plane lives — keep
		// serving data, the next health probe of the admin port will page.
		_ = s.adminSrv.Serve(s.adminLn)
	}()
}

// closeAdmin tears the admin plane down. Graceful drains in-flight
// requests (scrapes mid-shutdown complete); hard stop cuts them.
func (s *Server) closeAdmin(graceful bool) {
	if s.adminSrv == nil {
		return
	}
	if graceful {
		ctx, cancel := context.WithTimeout(context.Background(), adminDrainTimeout)
		defer cancel()
		_ = s.adminSrv.Shutdown(ctx)
		return
	}
	_ = s.adminSrv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WritePrometheus(w)
}

// handleHealthz is liveness: 200 while the process can answer at all.
// Readiness (can it do useful work) is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.Ready(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, err.Error())
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.ConfigSnapshot())
	case http.MethodPut:
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields() // a typoed knob name must not silently no-op
		// Decoding over the current values is the partial update: a key the
		// body does not carry keeps what it had.
		view, err := s.UpdateConfig(func(live *LiveConfig) error { return dec.Decode(live) })
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, view)
	default:
		w.Header().Set("Allow", "GET, PUT")
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// handleReplica serves the replication watermarks (D41): role, primary
// and per-shard applied/head LSNs with staleness.
func (s *Server) handleReplica(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.ReplicaStatus())
}

// handlePromote flips a replica into a primary (D42). POST-only: it is
// a state change. 409 on a server that is not an unpromoted replica.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	if !s.Promote() {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "not a replica (or already promoted)"})
		return
	}
	writeJSON(w, http.StatusOK, s.ReplicaStatus())
}

// handleHotKeys serves the conflict profiler's ranked table (D36).
// ?n=K bounds the entry count (default 32).
func (s *Server) handleHotKeys(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	n := 32
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "n must be a positive integer"})
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, s.HotKeys(n))
}

// handleTrace dumps the flight recorder's retained events as JSON,
// optionally trimmed to the trailing ?secs=N window (D37).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	var window time.Duration
	if raw := r.URL.Query().Get("secs"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "secs must be a positive number"})
			return
		}
		window = time.Duration(v * float64(time.Second))
	}
	writeJSON(w, http.StatusOK, struct {
		Tracing bool         `json:"tracing"`
		Shards  []ShardTrace `json:"shards"`
	}{s.TracingEnabled(), s.TraceWindow(window)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
