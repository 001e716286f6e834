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
	// map's shard (crediting counter partials there); counter reads fan
	// across all shards and sum the partials. The shard count is pinned
	// into a durable data directory's manifest — reopening with a
	// different count is refused.
	Shards int

	// Workers is the runtime's worker-slot count P (default 8, max 32),
	// per shard: every shard runs its own runtime with this many slots.
	Workers int

	// MaxBatch bounds the number of requests coalesced into one group
	// commit (default 64). 1 disables grouping: every request is its own
	// root transaction — the baseline the load generator compares
	// against.
	MaxBatch int

	// BatchDelay is how long the batcher waits for stragglers after the
	// first request of a batch (default 0: group only what is already in
	// flight, keeping unloaded latency at the floor).
	BatchDelay time.Duration

	// BatchFanout bounds the parallel blocks one batch forks; requests
	// are spread over the blocks, each running as its own nested child
	// transaction (default: Workers).
	BatchFanout int

	// MaxInflight bounds concurrent group commits PER SHARD. The default
	// 1 is the classic group commit: one batch transaction at a time per
	// shard, so requests only ever conflict with their own batch
	// siblings, where the runtime's nesting-aware contention management
	// (escalation) resolves them. Raising it pipelines batches within a
	// shard — which pays off for read-dominant traffic under SharedReads
	// but can livelock overlapping write-heavy batches. Sharding is the
	// write-safe way to multiply commit pipelines: batches on different
	// shards touch disjoint structures by construction, so they commit
	// concurrently without ever conflicting. Forced to 1 with Serial,
	// whose runtime forbids concurrent Run.
	MaxInflight int

	// Serial runs the runtime in the serial-nesting baseline mode: the
	// batch's children execute sequentially in one context. For
	// benchmarking the paper's comparison end to end.
	Serial bool

	// SharedReads enables the runtime's shared-read conflict model
	// (paper §9): concurrent readers in one batch never conflict with
	// each other. Strongly recommended for read-heavy serving — in the
	// default write-only model two requests merely reading the same map
	// bucket conflict and serialize on publication latency.
	SharedReads bool

	// Registry sizes the named structures (zero = stmlib defaults),
	// applied to every shard's registry.
	Registry stmlib.RegistryConfig

	// DataDir enables durability: each shard keeps a segmented
	// write-ahead log plus periodic whole-store snapshots there (in the
	// directory root for a single shard, under shard-<i>/ otherwise),
	// and New recovers the store — every shard concurrently — before
	// serving. Empty: in-memory only. Enabling the WAL forces
	// MaxInflight to 1 per shard — each log records its shard's batches
	// in root-commit order (D20); the shards themselves still commit in
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

	// Adaptive lets the controller walk each shard's effective
	// MaxInflight from its observed conflict-abort rate (AIMD with
	// hysteresis, see controller.go). It has nothing to walk on a WAL or
	// Serial server, which commit one batch at a time (D20). Togglable at
	// runtime via PUT /config.
	Adaptive bool

	// DisableTracing turns conflict X-ray tracing OFF at boot (D35–D37).
	// By default every shard's runtime records transaction-lifecycle
	// events into per-slot flight-recorder rings, the profiler ranks
	// abort attributions into the /debug/hotkeys table, and a crisis
	// engagement dumps the recorder to DataDir. Disable it to reclaim
	// the recording cost entirely, or live via PUT /config
	// {"tracing": false}.
	DisableTracing bool

	// TraceSample is the lifecycle sampling divisor: begin/commit events
	// are recorded for 1 in TraceSample root transactions (batches).
	// Conflict events — abort, escalate, crisis — are ALWAYS recorded,
	// so /debug/hotkeys attribution stays exact; sampling only thins the
	// steady-state begin/commit firehose, which is what keeps default-on
	// tracing inside its ≤5% overhead budget (D38). 0 picks the default
	// (8); 1 records every root — full-fidelity tracing for debugging
	// sessions, at a measurably higher cost.
	TraceSample int

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
	// durability failures, crisis dumps, admin-plane errors). Nil: the
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
	if c.BatchFanout <= 0 {
		c.BatchFanout = c.Workers
	}
	limit, _ := inflightCap(c)
	c.MaxInflight = clampInt(c.MaxInflight, 1, limit)
	if c.TraceSample <= 0 {
		c.TraceSample = defaultTraceSample
	}
	if c.ReplicaOf != "" && c.ReplicaMaxStaleness <= 0 {
		c.ReplicaMaxStaleness = 10 * time.Second
	}
}

// defaultTraceSample is the default lifecycle sampling divisor: 1 in 8
// batches gets full begin/commit tracing. Chosen so default-on tracing
// stays within its ≤5% throughput budget on an all-point-op workload
// (enforced by the CI benchgate's tracing_overhead_ratio ceiling) while
// /debug/trace still shows a fresh batch tree every few milliseconds
// under any real load.
const defaultTraceSample = 8

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

// shard is one engine partition: a private runtime, structure registry,
// batching loop and (durable servers) write-ahead log. Shards share
// nothing — group commits on different shards run fully in parallel,
// fsyncs included.
type shard struct {
	id  int
	rt  *pnstm.Runtime
	reg *stmlib.Registry
	b   *batcher
	wal *wal.Log // nil without DataDir

	// pauseMu queues pauseCommits callers (Checkpoint, Export,
	// cross-shard coordinators, a replica's image install) so that one
	// at a time contends with the batcher for the pipeline. It is not
	// what excludes them — pipeline.reserveAll's paused flag does — it
	// orders them: a condition variable wakes its waiters in no order,
	// the mutex hands over to whoever has waited longest, so a
	// checkpoint cannot be overtaken forever by a stream of
	// coordinators.
	pauseMu sync.Mutex

	// maxGSN is the highest cross-shard GSN this shard's log holds a
	// record for (D30) — snapshots capture it as their watermark so
	// recovery can tell "this GSN's record was truncated by a
	// checkpoint" from "this shard never logged it".
	maxGSN atomic.Uint64
}

// Server owns the listener, the shard engines and the connection
// handling. Create with New, start with Serve or ListenAndServe, stop
// with Close.
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

	// gsn is the global sequencer for cross-shard envelopes (D29):
	// each mutating multi-shard OpTx draws one monotone global sequence
	// number while holding every participant shard's commit slots.
	// Recovery seeds it past every GSN the logs and snapshots mention.
	gsn atomic.Uint64

	// crossMu/crossStopped/crossWG fence cross-shard coordinators
	// against shutdown, mirroring the batcher's submit/close handshake
	// (see beginCross/stopCross).
	crossMu      sync.RWMutex
	crossStopped bool
	crossWG      sync.WaitGroup

	// crossSem bounds in-flight cross-shard coordinators (one goroutine
	// each, see commitCrossShard): envelopes sharing a shard serialize
	// on its commit pipeline anyway, so past a generous cap extra
	// coordinators only queue — a flood would otherwise accumulate
	// unbounded goroutines and pending responses. Beyond the cap the
	// server fails fast with a retryable error.
	crossSem chan struct{}

	// obs is the observability plane; ctrlStop/ctrlDone fence the
	// adaptive controller goroutine (non-nil when it runs). prof is the
	// conflict profiler draining the shards' flight recorders (D36);
	// log receives structured operational records.
	obs      *serverObs
	prof     *traceProfiler
	log      *slog.Logger
	ctrlStop chan struct{}
	ctrlDone chan struct{}

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

// New creates a server (shard runtimes, registries, batchers) without
// touching the network yet. With Config.DataDir set it also checks the
// directory's shard manifest, opens every shard's write-ahead log and
// recovers the store — snapshot import plus WAL tail replay, all shards
// concurrently — before returning.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("server: config: %w", err)
	}
	s := &Server{
		conns:    make(map[net.Conn]struct{}),
		crossSem: make(chan struct{}, maxCrossInflight),
	}
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
		rt, err := pnstm.New(pnstm.Config{Workers: cfg.Workers, Serial: cfg.Serial, SharedReads: cfg.SharedReads})
		if err != nil {
			teardown()
			return nil, err
		}
		s.shards = append(s.shards, &shard{
			id:  i,
			rt:  rt,
			reg: stmlib.NewRegistry(cfg.Registry),
		})
	}
	if cfg.DataDir != "" {
		if err := s.openDurability(); err != nil {
			teardown()
			return nil, err
		}
	}
	for i, sh := range s.shards {
		sh.b = newBatcher(sh.rt, sh.reg, sh.wal, &s.cfg)
		sh.b.obs = s.obs.batch[i]
		sh.b.shardID = uint8(i)
	}
	// Conflict X-ray (D35–D37): tracing goes live only after recovery so
	// the flight recorder holds served traffic, not replay; the profiler
	// and the crisis hooks run regardless (a PUT /config can turn
	// tracing on later).
	s.prof = newTraceProfiler(s)
	for _, sh := range s.shards {
		sh.rt.SetCrisisHook(s.prof.noteCrisis)
		sh.rt.SetTraceSampling(uint64(cfg.TraceSample))
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
	// The controller has something to walk only where MaxInflight may
	// exceed 1 — a fact of DataDir and Serial, fixed at boot — and there it
	// runs whether or not Adaptive is on, so a PUT /config can turn it on.
	if limit, _ := inflightCap(&cfg); limit > 1 {
		s.ctrlStop = make(chan struct{})
		s.ctrlDone = make(chan struct{})
		go s.controllerLoop()
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
	// go through the batchers like client traffic, and a reap minted
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
// root for a single shard (the pre-sharding layout, so existing
// directories keep working), shard-<i>/ otherwise.
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
	upgradeManifest := false
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
		// Upgrade in place — but only after recovery succeeds (the write
		// is at the end of this function). Stamping the new version first
		// would brand a directory that still holds only old-format
		// records: if recovery then failed, falling back to the previous
		// binary would be refused by its own version gate for no reason.
		// Deferring is safe because no GSN-stamped record can exist
		// before the server starts accepting cross-shard commits, which
		// is after openDurability returns.
		upgradeManifest = true
	case !ok:
		// No manifest: the directory is either fresh or written by a
		// pre-manifest (single-shard) version. A sharded layout whose
		// manifest went missing (partial restore, operator deletion)
		// must be refused outright — without the recorded count the
		// name→shard mapping cannot be re-established safely.
		if orphans, _ := filepath.Glob(filepath.Join(dir, "shard-*")); len(orphans) > 0 {
			return fmt.Errorf("server: data dir %s holds shard subdirectories but no %s; restore the manifest (it records the shard count the layout was written with)", dir, wal.ManifestName)
		}
		if len(s.shards) > 1 {
			// Root-level segments are the pre-manifest single-shard
			// layout; only a fresh directory may adopt a multi-shard one.
			legacy, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
			if len(legacy)+len(snaps) > 0 {
				return fmt.Errorf("server: data dir %s holds a single-shard store with no manifest; restart with Shards=1", dir)
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
			if err := sh.replayStore(scans[i], dropped, cfg.BatchFanout); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", sh.id, err)
			}
		}(i, sh)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if upgradeManifest {
		if err := wal.WriteManifest(dir, wal.Manifest{Version: wal.ManifestVersion, Shards: len(s.shards)}); err != nil {
			return err
		}
	}
	return nil
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

// ShardCount reports how many engine partitions the server runs.
func (s *Server) ShardCount() int { return len(s.shards) }

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

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// Close shuts down gracefully: stop accepting, stop the checkpointer,
// flush every shard's batcher — every in-flight batch executes, logs
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
	s.stopController()
	s.prof.close()
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
	// Shard flushes overlap: each batcher drains its own pipeline.
	var flush sync.WaitGroup
	for _, sh := range s.shards {
		flush.Add(1)
		go func(sh *shard) {
			defer flush.Done()
			sh.b.close()
		}(sh)
	}
	flush.Wait()
	// Cross-shard coordinators append to several logs outside any
	// batcher: refuse new ones and drain the in-flight ones before the
	// final WAL sync/close (a coordinator may have been queued on commit
	// slots a draining batch held until just now).
	s.stopCross()
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
	s.stopController()
	s.prof.close()
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
	// In-flight cross-shard coordinators fail their appends against the
	// abandoned logs; wait them out before tearing down the runtimes
	// their slices run on.
	s.stopCross()
	for _, sh := range s.shards {
		sh.b.close()
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
		b, r, mean, l := sh.b.stats()
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
// on a 1-shard server; a global counter read is the top-level
// OpCounterSum, which fans).
func txPinnedShard(op *TxOp, n int) (int, bool) {
	if kind := structKind(op); kind == 0 || kind == 'c' {
		return 0, false
	}
	return stmlib.ShardIndex(op.Name, n), true
}

// fanTx answers a read-only multi-shard OpTx envelope: each pinned
// sub-op rides its home shard's group-commit pipeline (batched with one
// per-shard sub-envelope), counter reads fan EVERY shard as
// OpCounterSum and sum their partials (exact totals — a top-level
// sharded OpCounterSum is routed here as a one-op envelope), and counter
// guards are evaluated on those summed totals at merge time. The
// combined answer is not one consistent cut across shards — each
// shard's slice is atomic on that shard — which is the documented
// read-only-fan contract (D27).
func (s *Server) fanTx(req *Request, deliver func(Response)) {
	ops := req.Tx.Ops
	n := len(s.shards)
	perShard := make([][]TxOp, n) // sub-envelope per shard
	slots := make([][]int, n)     // perShard[i][j] answers ops[slots[i][j]]
	counterOps := make([]bool, len(ops))
	for i := range ops {
		op := ops[i]
		if sh, ok := txPinnedShard(&op, n); ok {
			perShard[sh] = append(perShard[sh], op)
			slots[sh] = append(slots[sh], i)
			continue
		}
		// Counter read (sum or guard): ask every shard for its partial;
		// the guard itself is applied to the merged total below.
		counterOps[i] = true
		read := TxOp{Op: OpCounterSum, Name: op.Name}
		for sh := 0; sh < n; sh++ {
			perShard[sh] = append(perShard[sh], read)
			slots[sh] = append(slots[sh], i)
		}
	}

	var (
		mu     sync.Mutex
		merged = make([]TxResult, len(ops))
		errMsg string
		rejIdx = -1 // lowest envelope index of a failed pinned (map) guard
		rejMsg string
		wg     sync.WaitGroup
	)
	for sh := 0; sh < n; sh++ {
		if len(perShard[sh]) == 0 {
			continue
		}
		sub := Request{ID: req.ID, Op: OpTx, Tx: &Tx{Ops: perShard[sh]}}
		shardSlots := slots[sh]
		wg.Add(1)
		p := &pending{req: sub, reply: replyFunc(func(resp Response) {
			mu.Lock()
			switch resp.Status {
			case StatusOK:
			case StatusRejected:
				// A pinned map guard failed on its home shard: map the
				// sub-envelope-local failing index back to envelope order
				// so the caller's ErrTxAborted points at the right op.
				gi := len(ops)
				if i := int(resp.Num); i >= 0 && i < len(shardSlots) {
					gi = shardSlots[i]
				}
				if rejIdx < 0 || gi < rejIdx {
					rejIdx, rejMsg = gi, resp.Msg
				}
			default:
				if errMsg == "" {
					errMsg = resp.Msg
					if errMsg == "" {
						errMsg = "shard error"
					}
				}
			}
			for j, i := range shardSlots {
				if j >= len(resp.TxResults) {
					break
				}
				r := resp.TxResults[j]
				if counterOps[i] {
					merged[i].Status = StatusOK
					merged[i].Num += r.Num // sum of per-shard partials
				} else {
					merged[i] = r
				}
			}
			mu.Unlock()
			wg.Done()
		})}
		if !s.shards[sh].b.submit(p) {
			mu.Lock()
			if errMsg == "" {
				errMsg = "server closing"
			}
			mu.Unlock()
			wg.Done()
		}
	}
	go func() {
		wg.Wait()
		if errMsg != "" {
			deliver(Response{ID: req.ID, Status: StatusErr, Msg: errMsg})
			return
		}
		// Evaluate counter guards on the merged totals, then report the
		// LOWEST failing guard across both kinds — pinned map guards
		// (judged on their home shard above) and counter guards (judged
		// here) — clearing later results like a single-shard abort would
		// leave them. (Being a read-only envelope there is nothing to
		// roll back.)
		for i := range ops {
			if !counterOps[i] {
				continue
			}
			msg, ok := judgeCounterGuard(&ops[i], merged[i].Num)
			if ok {
				continue
			}
			if rejIdx < 0 || i < rejIdx {
				rejIdx, rejMsg = i, msg
				merged[i].Status = StatusRejected
			}
			break // later counter guards cannot lower the index
		}
		resp := Response{ID: req.ID, Status: StatusOK, TxResults: merged}
		if rejIdx >= 0 && rejIdx < len(ops) {
			for j := rejIdx + 1; j < len(merged); j++ {
				merged[j] = TxResult{}
			}
			resp.Status, resp.Num, resp.Msg = StatusRejected, int64(rejIdx), rejMsg
		}
		// Every shard's part passed checkReplySize on its own; the parts
		// together may still not fit one frame.
		if err := checkReplySize(merged); err != nil {
			resp = Response{ID: req.ID, Status: StatusErr, Msg: err.Error()}
		}
		deliver(resp)
	}()
}

// conn is the route responses take back to one client connection: any
// goroutine may deliver, the connection's writer goroutine drains out.
// It is the replier of every request the connection submits, so routing
// a response costs no closure per request.
type conn struct {
	out        chan Response
	closed     chan struct{} // reader gone: stop routing responses here
	writerDone chan struct{} // writer gone: never block the batcher on a dead conn
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
// submitting them to their shard's batcher, and a writer goroutine
// serializing responses (responses may complete out of order across
// batches and shards; clients match by request id).
//
// The reader owns the frame buffer and the decoder's name table; each
// request is decoded into the pending that carries it to its batch and
// back, and nothing a pending holds points into the frame buffer, so the
// next frame may overwrite it while the request is still queued.
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
	dec := requestDecoder{names: make(map[string]string)}
	var fb FrameBuf
	br := bufio.NewReader(nc)
	for {
		frame, err := ReadFrame(br, &fb)
		if err != nil {
			return // EOF, forced close, or an unrecoverable framing error
		}
		p := &pending{reply: cn}
		req := &p.req
		if err := dec.parse(frame, req); err != nil {
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
			p.lat = latPoint
			if len(s.shards) > 1 {
				// Checkouts credit their counters on the stock map's shard,
				// so a counter's total is the sum of per-shard partials
				// (D24) — which is what fanTx computes for the one-op
				// read-only envelope [{OpCounterSum, name}]: exact on a
				// quiesced store, which the workload verifiers rely on.
				env := Request{ID: req.ID, Op: OpTx, Tx: &Tx{Ops: []TxOp{{Op: OpCounterSum, Name: req.Name}}}}
				s.fanTx(&env, func(resp Response) {
					if resp.Status == StatusOK {
						resp = Response{ID: resp.ID, Status: StatusOK, Num: resp.TxResults[0].Num}
					}
					p.finish(resp)
				})
				continue
			}
			s.shards[0].b.submitOrFail(p)
		case OpTx:
			if len(req.Tx.Ops) == 0 {
				cn.deliver(Response{ID: req.ID, Status: StatusOK})
				continue
			}
			plan := s.routeTx(req)
			switch plan.kind {
			case planFan:
				p.lat = latTx
				s.fanTx(req, p.finish)
			case planCross:
				p.lat = latCross
				s.commitCrossShard(req, plan, p.finish)
			default:
				p.lat = latTx
				s.shards[plan.target].b.submitOrFail(p)
			}
		default:
			p.lat = latPoint
			s.shardFor(req.Name).b.submitOrFail(p)
		}
	}
}
