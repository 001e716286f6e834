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
	SnapshotEveryMs float64 `json:"snapshot_every_ms"`
	Tracing         bool    `json:"tracing"`
}

// ConfigView is the GET /config payload (and PUT's success response):
// the live knobs and the boot-time facts beside them.
type ConfigView struct {
	LiveConfig
	Durable bool `json:"durable"`
	Serial  bool `json:"serial"`
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
		SnapshotEveryMs: msOf(c.SnapshotEvery),
		Tracing:         !c.DisableTracing,
	}
}

// withLive returns a copy of c carrying l's values.
func (c *Config) withLive(l LiveConfig) *Config {
	next := *c
	next.MaxBatch = l.MaxBatch
	next.BatchDelay = durationOfMs(l.BatchDelayMs)
	next.SnapshotEvery = durationOfMs(l.SnapshotEveryMs)
	next.DisableTracing = !l.Tracing
	return &next
}

// maxBatchLimit bounds MaxBatch: far beyond useful group sizes, small
// enough that a typo cannot make collect loop unboundedly.
const maxBatchLimit = 1 << 16

// validate checks a defaulted configuration, at boot and on every live
// update alike. The messages name the /config keys.
func (c *Config) validate() error {
	if c.MaxInflight > 1 {
		return fmt.Errorf("MaxInflight %d: a shard commits one batch at a time (D20); leave it 0 or 1", c.MaxInflight)
	}
	if c.MaxBatch < 1 || c.MaxBatch > maxBatchLimit {
		return fmt.Errorf("max_batch must be in [1, %d], got %d", maxBatchLimit, c.MaxBatch)
	}
	if c.BatchDelay < 0 {
		return fmt.Errorf("batch_delay_ms must be >= 0, got %g", msOf(c.BatchDelay))
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("snapshot_every_ms must be >= 0 (0 disables automatic checkpoints), got %g", msOf(c.SnapshotEvery))
	}
	if c.ReplicaOf != "" {
		if c.DataDir != "" {
			return fmt.Errorf("a replica is in-memory (the primary at %s owns durability); drop DataDir", c.ReplicaOf)
		}
		if c.Serial {
			return fmt.Errorf("a replica imports snapshots outside the shard's loop, beside its read batches; Serial is unsupported")
		}
	}
	return nil
}

// UpdateConfig applies a live configuration change: edit overlays the
// new values on the current LiveConfig, the result is validated whole
// and published, and the one switch that lives outside the snapshot,
// the runtimes' tracing, follows it. An error from edit or from
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
		sh.rt.EnableTracing(!next.DisableTracing)
	}
	return s.ConfigSnapshot(), nil
}

// ConfigSnapshot renders the current configuration.
func (s *Server) ConfigSnapshot() ConfigView {
	cfg := s.cfg.Load()
	return ConfigView{LiveConfig: cfg.live(), Durable: cfg.DataDir != "", Serial: cfg.Serial}
}
