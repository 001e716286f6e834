package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pnstm"
	"pnstm/internal/wal"
	"pnstm/stmlib"
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address (":7455" by default).
	Addr string

	// Shards splits the store into that many independent engine
	// partitions (default 1, D23). Each shard owns a private runtime,
	// structure registry, batching loop, commit-ticket sequence and —
	// with DataDir — its own write-ahead log under shard-<i>/, so group
	// commits on different shards run fully in parallel, including their
	// fsyncs. Structures are assigned to shards by name hash
	// (stmlib.ShardIndex): a request touches exactly the shard its named
	// structure lives on, so single-structure requests never cross
	// shards. Cross-structure checkouts run atomically on their stock
	// map's shard (crediting counter partials there); a counter read sums
	// every shard's partial at one position in the cross-shard order,
	// strictly serializable against single-shard adds too.
	// The shard count is pinned into a durable data directory's
	// manifest — reopening with a different count is refused.
	Shards int

	// Workers is the runtime's worker-slot count P (default 8, max 32),
	// per shard, and the width of every fork: a batch, an envelope or a
	// stmlib bulk operation forks at most P parallel blocks.
	Workers int

	// MaxBatch bounds the number of requests coalesced into one group
	// commit (default 64). 1 disables grouping: every request is its own
	// root transaction — the baseline the load generator compares
	// against.
	MaxBatch int

	// BatchDelay is how long a shard waits for stragglers after the
	// first request of a batch (default 0: group only what is already in
	// flight, keeping unloaded latency at the floor).
	BatchDelay time.Duration

	// MaxInflight is not a knob: every shard commits one batch at a time
	// (D20), so requests only ever conflict with their own batch siblings,
	// where the planner's chains and the runtime's escalation resolve them.
	// Shards are what multiply commit pipelines. The field stays so that
	// callers setting it to 1 still build; New refuses a value above 1.
	MaxInflight int

	// Serial runs the runtime in the serial-nesting baseline mode: the
	// batch's children execute sequentially in one context, so there is
	// no conflict model to choose. It is the load generator's A/B
	// baseline for the paper's comparison end to end, not a serving mode.
	Serial bool

	// SharedReads is not a knob: every shard's runtime runs the
	// shared-read conflict model (paper §9), in which readers in one
	// batch never conflict with each other, and New ignores the field.
	// It stays only so that callers setting it still build; ROADMAP item
	// 12(e) deletes it together with the benchmark's line that sets it.
	SharedReads bool

	// Registry sizes the named structures (zero = stmlib defaults),
	// applied to every shard's registry.
	Registry stmlib.RegistryConfig

	// DataDir enables durability: each shard keeps a segmented
	// write-ahead log plus periodic whole-store snapshots there (in the
	// directory root for a single shard, under shard-<i>/ otherwise),
	// and New recovers the store — every shard concurrently — before
	// serving. Empty: in-memory only. Each log records its shard's
	// batches in root-commit order (D20); the shards themselves commit in
	// parallel, which is the point of sharding.
	DataDir string

	// Fsync makes each shard's WAL fsync once per group commit, before
	// any response of the batch is acked. Off, appends stop at the OS
	// page cache: a process crash is safe, a machine crash is not.
	// Ignored without DataDir.
	Fsync bool

	// WALSyncDelay adds an artificial latency floor to every WAL fsync
	// (benchmark/test hook, zero in production): it simulates slower
	// stable storage so the parallel per-shard commit pipelines are
	// measurable on any disk. Ignored without DataDir and Fsync.
	WALSyncDelay time.Duration

	// SnapshotEvery starts a background checkpointer writing a snapshot
	// (and truncating covered WAL segments) on that cadence. Zero: no
	// automatic checkpoints (Server.Checkpoint still works). Ignored
	// without DataDir.
	SnapshotEvery time.Duration

	// WALSegmentBytes is the WAL's segment-rotation threshold (zero:
	// the wal package default, 64 MiB). Ignored without DataDir.
	WALSegmentBytes int64

	// ReplicaOf turns the server into a WAL-shipping read replica of the
	// primary at that address (D39–D42): every shard tails the primary's
	// log over the wire protocol, replays continuously, serves read-only
	// envelopes and refuses mutations with StatusNotPrimary. Replicas
	// are in-memory (the primary owns durability) — incompatible with
	// DataDir — and need concurrent replay, so incompatible with Serial.
	// The shard count must match the primary's.
	ReplicaOf string

	// ReplicaMaxStaleness is the readiness bound for a replica (default
	// 10s): /readyz reports 503 until every shard has caught up with the
	// primary and whenever the staleness watermark exceeds this bound —
	// a load balancer stops routing to a replica that fell behind.
	// Ignored without ReplicaOf.
	ReplicaMaxStaleness time.Duration

	// AdminAddr, when set, binds a second HTTP listener serving the
	// operational plane: GET /metrics (Prometheus text), GET /healthz
	// (liveness), GET /readyz (readiness: 503 once shutdown begins or a
	// WAL latches), and GET/PUT /config (live retuning of the batching
	// knobs). Empty: no admin listener.
	AdminAddr string

	// DisableTracing turns conflict X-ray tracing OFF at boot (D35, D36).
	// By default every shard's runtime records transaction-lifecycle
	// events into per-slot flight-recorder rings, and /debug/hotkeys
	// ranks the aborts they retain by key. Disable it to reclaim the
	// recording cost entirely, or live via PUT /config {"tracing": false}.
	DisableTracing bool

	// AdminDebug additionally mounts net/http/pprof under /debug/pprof/
	// on the admin listener. Off by default: profiling endpoints can
	// stall the process (heap dumps, multi-second CPU profiles) and do
	// not belong on an unauthenticated plane unless asked for.
	AdminDebug bool

	// ReapInterval runs the TTL/lease reaper on that cadence (D47): each
	// tick scans every shard's expiry index for entries due by the tick's
	// wall-clock cutoff and submits logged expire/reclaim envelopes
	// through the shard's normal batch pipeline, so reaps serialize with
	// client traffic, land in the WAL with their explicit cutoff, and
	// replay deterministically. Zero: no background reaper (reads still
	// hide expired entries; Server.Reap still works). Primary-only — a
	// replica replays the primary's reap records instead of minting its
	// own.
	ReapInterval time.Duration

	// Logger receives the server's structured log records (shutdown
	// durability failures, admin-plane errors). Nil: the
	// process-default slog logger.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.Addr == "" {
		c.Addr = ":7455"
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.ReplicaOf != "" && c.ReplicaMaxStaleness <= 0 {
		c.ReplicaMaxStaleness = 10 * time.Second
	}
}

// traceSample is the lifecycle sampling divisor: 1 in 8 batches gets
// full begin/commit tracing. Conflict events — abort and escalate — are
// always recorded, so /debug/hotkeys attribution stays exact;
// sampling only thins the steady-state firehose. Chosen so default-on
// tracing stays within its ≤5% throughput budget on an all-point-op
// workload (enforced by the CI benchgate's tracing_overhead_ratio
// ceiling) while /debug/trace still shows a fresh batch tree every few
// milliseconds under any real load.
const traceSample = 8

// ShardStats is one engine partition's slice of ServerStats.
type ShardStats struct {
	Shard        int         `json:"shard"`
	Batches      uint64      `json:"batches"`
	Requests     uint64      `json:"requests"`
	MeanBatch    float64     `json:"mean_batch"`
	LargestBatch uint64      `json:"largest_batch"`
	Runtime      pnstm.Stats `json:"runtime"`

	// WAL is present on durable servers: this shard's own log counters.
	WAL *wal.Stats `json:"wal,omitempty"`
}

// ServerStats is the OpStats payload: batching behaviour plus the
// runtime's cumulative counters. On a sharded server the top-level
// figures aggregate every shard (counter sums, with LargestBatch the
// max and PeakParents the max across shards — nothing is lost in the
// roll-up) and PerShard carries the per-partition breakdown.
type ServerStats struct {
	Workers       uint64      `json:"workers"`
	Shards        uint64      `json:"shards"`
	MaxBatch      uint64      `json:"max_batch"`
	Serial        bool        `json:"serial"`
	Conns         uint64      `json:"conns"`
	Batches       uint64      `json:"batches"`
	Requests      uint64      `json:"requests"`
	MeanBatch     float64     `json:"mean_batch"`
	LargestBatch  uint64      `json:"largest_batch"`
	Runtime       pnstm.Stats `json:"runtime"`
	RuntimeAborts float64     `json:"runtime_abort_ratio"`

	// Latency is the per-op-class latency summary (point ops, tx
	// envelopes, cross-shard commits): counts plus p50/p95/p99 in
	// microseconds, estimated from the same fixed-bucket histograms
	// /metrics exports. Classes with no observations are omitted.
	Latency map[string]LatencySummary `json:"latency,omitempty"`

	// PerShard is the per-partition breakdown (one entry per shard,
	// indexed by shard id).
	PerShard []ShardStats `json:"per_shard,omitempty"`

	// WAL is present when the server runs with a data directory; on a
	// sharded server it aggregates every shard's log (counters summed —
	// so Syncs remains the one-fsync-per-logged-batch invariant in
	// total; LSNs are per-shard sequences, so the aggregate TailLSN is
	// the total number of durable records).
	WAL *wal.Stats `json:"wal,omitempty"`
}

// Server owns the listener, the shard engines and the connection
// handling. Create with New, start with Listen and Serve, stop with
// Close.
type Server struct {
	// cfg is the configuration, whole: an immutable snapshot readers
	// Load and UpdateConfig replaces (D51). cfgWrite orders the writers.
	cfg      atomic.Pointer[Config]
	cfgWrite sync.Mutex

	shards []*shard

	ckStop chan struct{} // non-nil when the checkpointer runs
	ckDone chan struct{}

	reapStop chan struct{} // non-nil when the TTL/lease reaper runs
	reapDone chan struct{}
	reapObs  reaperStats

	// queueMu orders queueAll's calls: tasks queued on several shards
	// at once sit in one relative order on all of them (D20). gsn is the
	// global sequencer for cross-shard envelopes (D29): each mutating
	// multi-shard OpTx draws the next global sequence number under
	// queueMu, as its tasks are queued. Recovery seeds it past every GSN
	// the logs and snapshots mention.
	queueMu sync.Mutex
	gsn     atomic.Uint64

	// obs is the observability plane; log receives structured
	// operational records.
	obs *serverObs
	log *slog.Logger

	// repl is the replication engine, non-nil iff Config.ReplicaOf was
	// set; recovered flips once the store holds its durable state (the
	// /readyz recovery gate — trivially true on in-memory servers).
	repl      *replicator
	recovered atomic.Bool

	adminLn      net.Listener
	adminSrv     *http.Server
	adminServing atomic.Bool

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New creates a server (shard runtimes, registries, loops) without
// touching the network yet. With Config.DataDir set it also checks the
// directory's shard manifest, opens every shard's write-ahead log and
// recovers the store — snapshot import plus WAL tail replay, all shards
// concurrently — before returning.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("server: config: %w", err)
	}
	s := &Server{conns: make(map[net.Conn]struct{})}
	s.cfg.Store(&cfg)
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.Default()
	}
	s.obs = newServerObs(s)
	teardown := func() {
		for _, sh := range s.shards {
			if sh.wal != nil {
				sh.wal.Close()
			}
			sh.rt.Close()
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		rt, err := pnstm.New(pnstm.Config{Workers: cfg.Workers, Serial: cfg.Serial, SharedReads: true})
		if err != nil {
			teardown()
			return nil, err
		}
		s.shards = append(s.shards, &shard{
			id:  i,
			rt:  rt,
			reg: stmlib.NewRegistry(cfg.Registry),
			cfg: &s.cfg,
			obs: s.obs.batch[i],
		})
	}
	if cfg.DataDir != "" {
		if err := s.openDurability(); err != nil {
			teardown()
			return nil, err
		}
	}
	for _, sh := range s.shards {
		sh.start()
	}
	// Conflict X-ray (D35, D36): tracing goes live only after recovery so
	// the flight recorder holds served traffic, not replay.
	for _, sh := range s.shards {
		sh.rt.SetTraceSampling(traceSample)
		if !cfg.DisableTracing {
			sh.rt.EnableTracing(true)
		}
	}
	// The checkpointer runs whenever there is a data directory — its
	// cadence (SnapshotEvery) is a live knob now, so even a server booted
	// with cadence 0 must have the loop ready for a PUT /config that
	// turns checkpoints on.
	if cfg.DataDir != "" {
		s.ckStop = make(chan struct{})
		s.ckDone = make(chan struct{})
		go s.checkpointLoop()
	}
	// The durable state is loaded (openDurability returned): the /readyz
	// recovery gate opens. On a replica the catch-up gate in Ready()
	// keeps /readyz at 503 until the tailing loops — started last, so a
	// dial failure is a retry, not a boot failure — have caught up.
	s.recovered.Store(true)
	if cfg.ReplicaOf != "" {
		s.repl = newReplicator(s, cfg.ReplicaOf)
	}
	// The reaper starts only after recovery: its expire/reclaim envelopes
	// go through the shard loops like client traffic, and a reap minted
	// during replay would double-apply. Primary-only — replicas replay
	// the primary's logged reaps (and refuse mutations anyway).
	if cfg.ReapInterval > 0 && cfg.ReplicaOf == "" {
		s.reapStop = make(chan struct{})
		s.reapDone = make(chan struct{})
		go s.reapLoop()
	}
	return s, nil
}

// shardDataDir is where shard id of n keeps its log: the data directory
// root for a single shard, shard-<i>/ otherwise.
func shardDataDir(base string, id, n int) string {
	if n == 1 {
		return base
	}
	return filepath.Join(base, fmt.Sprintf("shard-%d", id))
}

// openDurability validates the data directory's shard manifest, then
// opens and recovers every shard's WAL. Per-shard work — opening the
// log, loading the snapshot, scanning and replaying — still runs on
// all shards concurrently (D25), but since cross-shard ordered commit
// (D31) a shard's log may reference GSNs other shards' logs must also
// hold, so recovery is phased: scan every log's GSN metadata first,
// reconcile completeness globally (an envelope whose record survives
// on only some shards — the fsync raced the crash — is dropped on ALL
// of them), then replay, skipping the dropped records.
func (s *Server) openDurability() error {
	cfg := s.cfg.Load()
	dir := cfg.DataDir
	m, ok, err := wal.ReadManifest(dir)
	if err != nil {
		return err
	}
	switch {
	case ok && m.Shards != len(s.shards):
		// Structure-to-shard routing is a function of the shard count;
		// replaying shard i's log into a differently-partitioned store
		// would scatter structures across logs that never heard of them.
		return fmt.Errorf("server: data dir %s was created with %d shards; restart with Shards=%d (live resharding is not supported)",
			dir, m.Shards, m.Shards)
	case ok && m.Version > wal.ManifestVersion:
		return fmt.Errorf("server: data dir %s manifest version %d is newer than this binary supports (max %d); upgrade the server",
			dir, m.Version, wal.ManifestVersion)
	case ok && m.Version < wal.ManifestVersion:
		return fmt.Errorf("server: data dir %s has a version-%d manifest, and this build opens only version %d; %s",
			dir, m.Version, wal.ManifestVersion, oldStoreFix)
	case !ok:
		// No manifest: only an empty directory gets one. Without the
		// recorded shard count the name→shard mapping of a store found
		// here cannot be re-established, whatever the configured count.
		for _, pattern := range []string{"shard-*", "wal-*.log", "snap-*.snap"} {
			if found, _ := filepath.Glob(filepath.Join(dir, pattern)); len(found) > 0 {
				return fmt.Errorf("server: data dir %s holds %s but no %s; restore the manifest, or, if this is a 1-shard store from before manifests, open it once at Shards=1 with an earlier pnstm build, which writes one",
					dir, filepath.Base(found[0]), wal.ManifestName)
			}
		}
		if err := wal.WriteManifest(dir, wal.Manifest{Version: wal.ManifestVersion, Shards: len(s.shards)}); err != nil {
			return err
		}
	}

	// Phase A (per shard, concurrent): open the log, load the snapshot,
	// inventory the GSN records without applying anything.
	scans := make([]*shardScan, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			wl, err := wal.Open(wal.Options{
				Dir:          shardDataDir(dir, sh.id, len(s.shards)),
				Fsync:        cfg.Fsync,
				SegmentBytes: cfg.WALSegmentBytes,
				SyncDelay:    cfg.WALSyncDelay,
				ObserveSync:  s.obs.fsync[i].ObserveDuration,
			})
			if err != nil {
				errs[i] = err
				return
			}
			sh.wal = wl
			scan, err := sh.scanStore(len(s.shards))
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", sh.id, err)
				return
			}
			scans[i] = scan
		}(i, sh)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// Phase B (global): reconcile cross-shard completeness and seed the
	// sequencer past everything the directory has ever numbered.
	dropped, maxGSN, err := reconcileGSNs(scans)
	if err != nil {
		return err
	}
	s.gsn.Store(maxGSN)

	// Phase B′ (per shard): physically remove every dropped record from
	// its log before serving. Each is provably the log's tail
	// (reconcileGSNs refused the boot otherwise), so this is the same
	// cut Open's torn-tail repair makes — the record was never acked, so
	// nothing is lost. Leaving the bytes behind would poison LATER
	// boots: once new batches append past the orphan it sits at a
	// non-tail position and the completeness check above permanently
	// refuses to start, and once the missing peer's snapshot watermark
	// advances past the orphan's GSN the watermark rule would
	// reclassify it as complete and replay it on this shard only —
	// silent cross-shard divergence. The watermark-implies-applied
	// invariant only holds for records that survive recovery; dropping
	// a record obliges us to erase it.
	for i, sh := range s.shards {
		for _, g := range scans[i].gsns {
			if !dropped[g.gsn] {
				continue
			}
			if err := sh.wal.TruncateTail(g.lsn); err != nil {
				return fmt.Errorf("shard %d: drop incomplete cross-shard gsn %d: %w", sh.id, g.gsn, err)
			}
			scans[i].tailLSN = g.lsn - 1
		}
	}

	// Phase C (per shard, concurrent): import the snapshot and replay
	// the log. Dropped GSN records are already gone from disk; the
	// replay-time skip remains as defense in depth.
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			if err := sh.replayStore(scans[i], dropped); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", sh.id, err)
			}
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shardFor routes a structure name to its owning shard.
func (s *Server) shardFor(name string) *shard {
	return s.shards[stmlib.ShardIndex(name, len(s.shards))]
}

// addWALStats folds one shard's log counters into agg. LSNs are
// per-shard sequences, so the aggregate TailLSN/SnapshotLSN are totals
// of durable records covered, not a single log position.
func addWALStats(agg *wal.Stats, st wal.Stats) {
	agg.Appends += st.Appends
	agg.Syncs += st.Syncs
	agg.Rotations += st.Rotations
	agg.Snapshots += st.Snapshots
	agg.Truncations += st.Truncations
	agg.Segments += st.Segments
	agg.TailLSN += st.TailLSN
	agg.SnapshotLSN += st.SnapshotLSN
	agg.RecoveredRecords += st.RecoveredRecords
	agg.RepairedTail = agg.RepairedTail || st.RepairedTail
	agg.Quarantined += st.Quarantined
}

// WALStats aggregates every shard's log counters (nil-safe zero value
// without a data directory); per-shard figures live in
// Stats().PerShard.
func (s *Server) WALStats() wal.Stats {
	var agg wal.Stats
	for _, sh := range s.shards {
		if sh.wal != nil {
			addWALStats(&agg, sh.wal.Stats())
		}
	}
	return agg
}

// Runtime exposes shard 0's runtime — the whole store's when Shards is
// 1 (in-process embedding, tests).
func (s *Server) Runtime() *pnstm.Runtime { return s.shards[0].rt }

// Registry exposes shard 0's structure catalog — the whole store's when
// Shards is 1 (in-process embedding, tests).
func (s *Server) Registry() *stmlib.Registry { return s.shards[0].reg }

// Listen binds the configured address (and the admin address, when
// configured). Addr()/AdminAddr() are valid afterwards, which is how
// tests bind ":0" and discover the ports before Serve.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Load().Addr)
	if err != nil {
		return err
	}
	if err := s.listenAdmin(); err != nil {
		ln.Close()
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Close. Listen must have succeeded.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("server: Serve before Listen")
	}
	s.serveAdmin()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(nc)
	}
}

// Close shuts down gracefully: stop accepting, stop the checkpointer,
// flush every shard's loop — every running batch executes, logs
// and delivers its responses — then issue each WAL's final fsync, and
// only then tear down connections and the runtimes. Every response
// acked before Close returns is durable (with Fsync it already was,
// batch by batch). Idempotent.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	// closed is set: /readyz answers 503 from here on, while the admin
	// plane itself keeps serving (scrapes and health probes work through
	// the drain) and is torn down last.
	if s.ln != nil {
		s.ln.Close()
	}
	if s.repl != nil {
		s.repl.stop()
	}
	s.stopReaper()
	if s.ckStop != nil {
		close(s.ckStop)
		<-s.ckDone
	}
	// Flush before the teardown: connections stay up so in-flight
	// batches can still deliver their acks. A client that has stopped
	// reading could otherwise wedge that flush via TCP backpressure
	// (blocked writer -> full response queue -> blocked deliver), so
	// bound every remaining write first: healthy clients drain well
	// inside the deadline, stalled ones fail their writer and stop
	// absorbing deliveries.
	s.mu.Lock()
	for nc := range s.conns {
		nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	}
	s.mu.Unlock()
	// Shard flushes overlap: each loop drains its own queue.
	var flush sync.WaitGroup
	for _, sh := range s.shards {
		flush.Add(1)
		go func(sh *shard) {
			defer flush.Done()
			sh.close()
		}(sh)
	}
	flush.Wait()
	for _, sh := range s.shards {
		if sh.wal == nil {
			continue
		}
		// With Fsync off this final sync is the ONLY point acked writes
		// reach stable storage, so a failure here must not masquerade as
		// a clean shutdown.
		if err := sh.wal.Sync(); err != nil {
			s.log.Error("final wal fsync failed — acked writes may not be durable", "shard", sh.id, "err", err)
		}
		if err := sh.wal.Close(); err != nil {
			s.log.Error("wal close failed", "shard", sh.id, "err", err)
		}
	}
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, sh := range s.shards {
		sh.rt.Close()
	}
	// Drain the admin plane last: every scrape or /readyz probe that
	// arrived during the drain completes (no accepted-but-dropped
	// requests), and a probe racing the final teardown sees a refused
	// connection rather than a hang.
	s.closeAdmin(true)
}

// Kill is the crash hook for recovery tests: it abandons every shard's
// WAL without flushing and tears everything down immediately, losing
// whatever a real SIGKILL would lose (nothing acked, when Fsync is on).
// Idempotent with Close.
func (s *Server) Kill() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.closeAdmin(false) // hard stop: a crash does not drain scrapes
	if s.repl != nil {
		s.repl.stop()
	}
	s.stopReaper()
	if s.ckStop != nil {
		close(s.ckStop)
		<-s.ckDone
	}
	for _, sh := range s.shards {
		if sh.wal != nil {
			sh.wal.Abandon() // in-flight appends now fail; nothing more reaches disk
		}
	}
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, sh := range s.shards {
		sh.close()
		sh.rt.Close()
	}
}

// Stats snapshots the server's activity: aggregate totals plus the
// per-shard breakdown.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()

	per := make([]ShardStats, len(s.shards))
	var batches, requests, largest uint64
	var rts pnstm.Stats
	var ws *wal.Stats
	for i, sh := range s.shards {
		b, r, mean, l := sh.stats()
		rt := sh.rt.Stats()
		per[i] = ShardStats{
			Shard:        i,
			Batches:      b,
			Requests:     r,
			MeanBatch:    mean,
			LargestBatch: uint64(l),
			Runtime:      rt,
		}
		if sh.wal != nil {
			st := sh.wal.Stats()
			per[i].WAL = &st
			// Aggregate from the SAME snapshots the breakdown shows, so
			// one Stats payload is self-consistent (summing live reads a
			// second time could disagree under concurrent commits).
			if ws == nil {
				ws = &wal.Stats{}
			}
			addWALStats(ws, st)
		}
		batches += b
		requests += r
		if uint64(l) > largest {
			largest = uint64(l)
		}
		rts = rts.Add(rt)
	}
	mean := 0.0
	if batches > 0 {
		mean = float64(requests) / float64(batches)
	}
	cfg := s.cfg.Load()
	return ServerStats{
		WAL:           ws,
		Latency:       s.obs.latencySummaries(),
		Workers:       uint64(cfg.Workers),
		Shards:        uint64(len(s.shards)),
		MaxBatch:      uint64(cfg.MaxBatch),
		Serial:        cfg.Serial,
		Conns:         uint64(conns),
		Batches:       batches,
		Requests:      requests,
		MeanBatch:     mean,
		LargestBatch:  largest,
		Runtime:       rts,
		RuntimeAborts: rts.AbortRate(),
		PerShard:      per,
	}
}

// txPinnedShard computes the shard a sub-op pins the envelope to, if
// any. Maps and queues live wholly on their name's shard, so any sub-op
// touching one pins it there. Counter sub-ops never pin: counter state
// is per-shard partials (D24) — adds credit the envelope's resolved
// shard, and in-envelope sums/guards read that shard's partial (exact
// on a 1-shard server; the global total is a cross-shard read — a
// multi-shard envelope's counter read or the top-level OpCounterSum).
func txPinnedShard(op *TxOp, n int) (int, bool) {
	if kind := structKind(op); kind == 0 || kind == 'c' {
		return 0, false
	}
	return stmlib.ShardIndex(op.Name, n), true
}

// conn is the route responses take back to one client connection: any
// goroutine may deliver, the connection's writer goroutine drains out.
// It is the replier of every request the connection submits, so routing
// a response costs no closure per request.
type conn struct {
	out        chan Response
	closed     chan struct{} // reader gone: stop routing responses here
	writerDone chan struct{} // writer gone: never block a shard on a dead conn
}

func (cn *conn) deliver(resp Response) {
	select {
	case cn.out <- resp:
	case <-cn.closed:
	case <-cn.writerDone:
	}
}

// writeLoop serializes responses onto the socket until the connection
// closes or a write fails.
func (cn *conn) writeLoop(nc net.Conn) {
	defer close(cn.writerDone)
	bw := bufio.NewWriter(nc)
	var buf []byte
	for {
		select {
		case resp := <-cn.out:
			buf = AppendResponse(buf[:0], &resp)
			// The writer is the last holder of what it encodes: an
			// envelope's results are slab slots, cleared once delivered
			// (resultSlab).
			clear(resp.TxResults)
			if _, err := bw.Write(buf); err != nil {
				return
			}
			// Flush only when the queue runs dry: consecutive
			// responses of one batch leave in one segment.
			if len(cn.out) == 0 {
				if err := bw.Flush(); err != nil {
					return
				}
			}
			if cap(buf) > maxRetainedFrame {
				buf = nil // one large response must not stay pinned
			}
		case <-cn.closed:
			return
		}
	}
}

// handleConn runs one connection: a reader loop decoding frames and
// submitting them to their shard's loop, and a writer goroutine
// serializing responses (responses may complete out of order across
// batches and shards; clients match by request id).
//
// The reader owns the decoder's name table and holds one pending from
// pendings at a time: it reads each frame into that pending's own frame
// buffer and decodes it into the pending, which carries the request to its
// batch and back. The keys and values of read-only ops borrow from the
// frame (D48), so a frame is overwritten only by the next frame read into
// the same pending. The reader keeps its pending across the frames it
// answers itself, and lets go of it when it hands the request off — after
// that the pending, frame included, is the shard's, a cross-shard
// envelope's or a replication stream's.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()

	cn := &conn{
		// Deep enough that a batch's responses rarely wait for the writer.
		out:        make(chan Response, 256),
		closed:     make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	var streams sync.WaitGroup // replication streams serving this conn
	defer func() {
		close(cn.closed)
		<-cn.writerDone
		streams.Wait()
	}()
	go cn.writeLoop(nc)

	// connMaxStale is the connection's read-staleness bound, declared by
	// its Hello (zero: none). Only the reader loop touches it.
	var connMaxStale time.Duration

	latPoint, latTx, latCross := s.obs.latency[classPoint], s.obs.latency[classTx], s.obs.latency[classCross]
	dec := requestDecoder{names: make(map[string]string), borrow: true}
	var held *pending // the reader's pending; nil once handed off
	br := bufio.NewReader(nc)
	for {
		if held == nil {
			held = pendings.Get().(*pending)
			held.reply = cn
		}
		p := held
		frame, err := ReadFrame(br, &p.frame)
		if err != nil {
			return // EOF, forced close, or an unrecoverable framing error
		}
		req := &p.req
		if err := dec.parse(frame, req, &p.tx); err != nil {
			// The id is the payload's leading u64, so it usually survives
			// a body parse failure — echo it back so the caller's pending
			// round trip fails instead of hanging. After a malformed frame
			// the stream offset is still trustworthy (framing is
			// independent of payload), so carry on afterwards.
			var id uint64
			if len(frame) >= 8 {
				id = binary.BigEndian.Uint64(frame[:8])
			}
			cn.deliver(Response{ID: id, Status: StatusErr, Msg: err.Error()})
			continue
		}
		p.start = time.Now()
		if s.isReplica() {
			if resp, refused := s.replicaGate(req, connMaxStale); refused {
				cn.deliver(resp)
				continue
			}
		}
		switch req.Op {
		case OpPing:
			cn.deliver(Response{ID: req.ID, Status: StatusOK})
		case OpHello:
			if req.Hello != nil && req.Hello.MaxStalenessMs > 0 {
				connMaxStale = time.Duration(req.Hello.MaxStalenessMs) * time.Millisecond
			}
			info := &HelloInfo{Version: ProtoVersion, Features: FeatureCrossShard, Role: RolePrimary, Shards: uint16(len(s.shards))}
			cfg := s.cfg.Load()
			if cfg.DataDir != "" {
				info.Features |= FeatureReplStream
			}
			if s.isReplica() {
				info.Role = RoleReplica
				info.Primary = cfg.ReplicaOf
			}
			cn.deliver(Response{ID: req.ID, Status: StatusOK, Value: EncodeHelloInfo(info)})
		case OpReplSubscribe:
			held = nil // the stream keeps req
			streams.Add(1)
			go func() {
				defer streams.Done()
				s.serveReplStream(req, cn.deliver, cn.closed)
			}()
		case OpStats:
			blob, err := json.Marshal(s.Stats())
			if err != nil {
				cn.deliver(Response{ID: req.ID, Status: StatusErr, Msg: err.Error()})
				continue
			}
			cn.deliver(Response{ID: req.ID, Status: StatusOK, Value: blob})
		case OpCounterSum:
			held = nil
			p.lat = latPoint
			if len(s.shards) > 1 {
				// Checkouts credit their counters on the stock map's shard,
				// so a counter's total is the sum of per-shard partials
				// (D24): the one-op envelope [{OpCounterSum, name}] reads
				// every partial at one position in the cross-shard order,
				// so the total is exact on a quiesced store, which the
				// workload verifiers rely on.
				env := &Request{ID: req.ID, Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: OpCounterSum, Name: req.Name}}}}
				s.commitCrossShard(env, crossPlan(env.Tx, len(s.shards)), func(resp Response) {
					if resp.Status == StatusOK {
						resp = Response{ID: resp.ID, Status: StatusOK, Num: resp.TxResults[0].Num}
					}
					p.finish(resp)
				})
				continue
			}
			s.shards[0].submitOrFail(p)
		case OpTx:
			if len(req.Tx.Ops) == 0 {
				cn.deliver(Response{ID: req.ID, Status: StatusOK})
				continue
			}
			held = nil
			if plan := classifyTx(req.Tx, len(s.shards)); plan.kind == planCross {
				p.lat = latCross
				s.commitCrossShard(req, plan, p.finish)
			} else {
				p.lat = latTx
				s.shards[plan.target].submitOrFail(p)
			}
		default:
			held = nil
			p.lat = latPoint
			s.shardFor(req.Name).submitOrFail(p)
		}
	}
}
