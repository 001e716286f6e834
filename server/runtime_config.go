package server

import (
	"fmt"
	"math"
	"time"
)

// The server's configuration is one immutable Config value published
// behind Server.cfg (D51). New stores the defaulted, validated value; a
// live update clones the current value, overlays the change, runs the
// same validate boot runs and publishes the clone with one Store — a
// rejected update publishes nothing. Readers load the pointer and never
// lock: a batch once when it is collected, the background loops once
// per tick, the admin handlers once per request.

// LiveConfig is the live-tunable part of Config in its JSON shape: the
// PUT /config body and the knob half of GET /config. PUT decodes the
// body over a LiveConfig filled from the current configuration, so an
// absent key leaves its knob alone.
type LiveConfig struct {
	MaxBatch        int     `json:"max_batch"`
	BatchDelayMs    float64 `json:"batch_delay_ms"`
	BatchFanout     int     `json:"batch_fanout"`
	MaxInflight     int     `json:"max_inflight"`
	SnapshotEveryMs float64 `json:"snapshot_every_ms"`
	Adaptive        bool    `json:"adaptive"`
	Tracing         bool    `json:"tracing"`
}

// ShardConfigView is one shard's EFFECTIVE commit-pipelining bound — what
// its batcher admits right now, which diverges from the base MaxInflight
// while the adaptive controller is walking it.
type ShardConfigView struct {
	Shard       int `json:"shard"`
	MaxInflight int `json:"max_inflight"`
}

// ConfigView is the GET /config payload (and PUT's success response):
// the live knobs, the boot-time facts that constrain them, and each
// shard's effective MaxInflight.
type ConfigView struct {
	LiveConfig
	Durable  bool              `json:"durable"`
	Serial   bool              `json:"serial"`
	PerShard []ShardConfigView `json:"per_shard,omitempty"`
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationOfMs rounds to the nanosecond, so a value rendered by msOf
// comes back as the duration it was.
func durationOfMs(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// live renders the live-tunable fields.
func (c *Config) live() LiveConfig {
	return LiveConfig{
		MaxBatch:        c.MaxBatch,
		BatchDelayMs:    msOf(c.BatchDelay),
		BatchFanout:     c.BatchFanout,
		MaxInflight:     c.MaxInflight,
		SnapshotEveryMs: msOf(c.SnapshotEvery),
		Adaptive:        c.Adaptive,
		Tracing:         !c.DisableTracing,
	}
}

// withLive returns a copy of c carrying l's values.
func (c *Config) withLive(l LiveConfig) *Config {
	next := *c
	next.MaxBatch = l.MaxBatch
	next.BatchDelay = durationOfMs(l.BatchDelayMs)
	next.BatchFanout = l.BatchFanout
	next.MaxInflight = l.MaxInflight
	next.SnapshotEvery = durationOfMs(l.SnapshotEveryMs)
	next.Adaptive = l.Adaptive
	next.DisableTracing = !l.Tracing
	return &next
}

// maxBatchLimit bounds MaxBatch: far beyond useful group sizes, small
// enough that a typo cannot make collect loop unboundedly.
const maxBatchLimit = 1 << 16

// inflightCap is D20, the one place it is written: a shard with a WAL
// logs its batches in root-commit order and the serial runtime forbids
// concurrent Run, so either commits one batch at a time. Boot clamps
// MaxInflight to the cap, validate refuses a value above it and the
// adaptive controller walks below it. why completes "max_inflight > 1
// is invalid ...".
func inflightCap(c *Config) (limit int, why string) {
	switch {
	case c.DataDir != "":
		return 1, "with a WAL: each shard's log records batches in root-commit order (D20)"
	case c.Serial:
		return 1, "in serial mode: the serial runtime forbids concurrent Run"
	}
	return math.MaxInt, ""
}

// validate checks a defaulted configuration, at boot and on every live
// update alike. The messages name the /config keys.
func (c *Config) validate() error {
	if c.MaxBatch < 1 || c.MaxBatch > maxBatchLimit {
		return fmt.Errorf("max_batch must be in [1, %d], got %d", maxBatchLimit, c.MaxBatch)
	}
	if c.BatchDelay < 0 {
		return fmt.Errorf("batch_delay_ms must be >= 0, got %g", msOf(c.BatchDelay))
	}
	if c.BatchFanout < 1 {
		return fmt.Errorf("batch_fanout must be >= 1, got %d", c.BatchFanout)
	}
	if c.MaxInflight < 1 {
		return fmt.Errorf("max_inflight must be >= 1, got %d", c.MaxInflight)
	}
	if limit, why := inflightCap(c); c.MaxInflight > limit {
		return fmt.Errorf("max_inflight > %d is invalid %s", limit, why)
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("snapshot_every_ms must be >= 0 (0 disables automatic checkpoints), got %g", msOf(c.SnapshotEvery))
	}
	if c.ReplicaOf != "" {
		if c.DataDir != "" {
			return fmt.Errorf("a replica is in-memory (the primary at %s owns durability); drop DataDir", c.ReplicaOf)
		}
		if c.Serial {
			return fmt.Errorf("replica mode replays concurrently with serving; Serial is unsupported")
		}
	}
	return nil
}

// UpdateConfig applies a live configuration change: edit overlays the
// new values on the current LiveConfig, the result is validated whole
// and published, and what lives outside the snapshot follows it — every
// shard's commit-pipelining bound returns to the new base MaxInflight
// (with the adaptive controller on, that is its new starting point) and
// the runtimes' tracing switch is set. An error from edit or from
// validation changes nothing.
func (s *Server) UpdateConfig(edit func(*LiveConfig) error) (ConfigView, error) {
	s.cfgWrite.Lock()
	defer s.cfgWrite.Unlock()
	cur := s.cfg.Load()
	live := cur.live()
	if err := edit(&live); err != nil {
		return ConfigView{}, err
	}
	next := cur.withLive(live)
	if err := next.validate(); err != nil {
		return ConfigView{}, err
	}
	s.cfg.Store(next)
	for _, sh := range s.shards {
		sh.b.pl.setLimit(next.MaxInflight)
		sh.rt.EnableTracing(!next.DisableTracing)
	}
	return s.ConfigSnapshot(), nil
}

// ConfigSnapshot renders the current configuration: the live knobs plus
// each shard's effective MaxInflight.
func (s *Server) ConfigSnapshot() ConfigView {
	cfg := s.cfg.Load()
	v := ConfigView{LiveConfig: cfg.live(), Durable: cfg.DataDir != "", Serial: cfg.Serial}
	for _, sh := range s.shards {
		v.PerShard = append(v.PerShard, ShardConfigView{Shard: sh.id, MaxInflight: sh.b.pl.getLimit()})
	}
	return v
}
