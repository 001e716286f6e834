package server

import (
	"errors"
	"fmt"
	"sync"

	"pnstm"
	"pnstm/stmlib"
)

// Hooks for the external (server_test) tests: where what a test must see
// is not on the public surface.

// RaceEnabled reports whether the race detector is on: the loopback
// ceilings hold a higher value there, where the race build's pools drop
// some of what is put back.
func RaceEnabled() bool { return raceEnabled }

// ConfigPointer is the published configuration snapshot itself, so a test
// can tell "the same value" from "an equal value published again".
func (s *Server) ConfigPointer() *Config { return s.cfg.Load() }

// ApplyReplicaRecord replays one WAL record body into shard i the way a
// replica's tailing loop does, on the shard's loop (shard.applyShipped).
func (s *Server) ApplyReplicaRecord(i int, body []byte) error {
	return s.shards[i].applyShipped(body)
}

// Export captures a stitched whole-store image, the reader tests compare
// stores with: a task on every shard's loop exports its registry via the
// parallel-nested bulk read, and the per-shard images are merged into one
// (counter partials summing — see mergeImages). The returned watermarks
// hold each shard's WAL tail LSN at capture time (zero without a data
// directory): the image is exactly the state after watermark[i] logged
// batches on shard i. The tasks are queued in one call (queueAll), so
// every cross-shard envelope runs before the export on all its
// participants or after it on all of them — the stitched image is a
// consistent cut, though each shard captures at its own moment.
func (s *Server) Export() (*stmlib.RegistryImage, []uint64, error) {
	n := len(s.shards)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	images := make([]*stmlib.RegistryImage, n)
	watermarks := make([]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	if err := s.queueAll(ids, nil, func(sh *shard) {
		defer wg.Done()
		if sh.wal != nil {
			watermarks[sh.id] = sh.wal.TailLSN()
		}
		errs[sh.id] = sh.rt.Run(func(c *pnstm.Ctx) { images[sh.id] = sh.reg.Export(c) })
	}); err != nil {
		return nil, nil, fmt.Errorf("server: export: %w", err)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, fmt.Errorf("server: export: %w", err)
	}
	img := images[0]
	for _, other := range images[1:] {
		mergeImages(img, other)
	}
	return img, watermarks, nil
}

// mergeImages folds other into img — the stitching step of a sharded
// whole-store export. Structures routed by ShardIndex live on exactly
// one shard, so maps and queues from different shards are disjoint by
// name (defensively, map entries overwrite by key and queue elements
// append). Counters are the exception: a cross-structure transaction
// (e.g. a checkout crediting a sold counter) materializes its counters
// on ITS shard, so one counter name may hold partial totals on several
// shards — mergeImages adds them, which is exact because counter state
// is a commutative sum.
func mergeImages(img, other *stmlib.RegistryImage) {
	if other == nil {
		return
	}
	for name, entries := range other.Maps {
		dst := img.Maps[name]
		if dst == nil {
			dst = make(map[string][]byte, len(entries))
			img.Maps[name] = dst
		}
		for k, v := range entries {
			dst[k] = v
		}
	}
	for name, elems := range other.Queues {
		img.Queues[name] = append(img.Queues[name], elems...)
	}
	for name, total := range other.Counters {
		img.Counters[name] += total
	}
	for name, ttls := range other.MapTTLs {
		if img.MapTTLs == nil {
			img.MapTTLs = make(map[string]map[string]int64)
		}
		dst := img.MapTTLs[name]
		if dst == nil {
			dst = make(map[string]int64, len(ttls))
			img.MapTTLs[name] = dst
		}
		for k, exp := range ttls {
			dst[k] = exp
		}
	}
	for name, entries := range other.Sorted {
		if img.Sorted == nil {
			img.Sorted = make(map[string][]stmlib.SortedEntry[string, []byte])
		}
		img.Sorted[name] = append(img.Sorted[name], entries...)
	}
	for name, recs := range other.Leases {
		if img.Leases == nil {
			img.Leases = make(map[string][]stmlib.LeaseRecord[[]byte])
		}
		img.Leases[name] = append(img.Leases[name], recs...)
	}
	for name, seq := range other.LeaseSeqs {
		if img.LeaseSeqs == nil {
			img.LeaseSeqs = make(map[string]uint64)
		}
		if seq > img.LeaseSeqs[name] {
			img.LeaseSeqs[name] = seq
		}
	}
}
