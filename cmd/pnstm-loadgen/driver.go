package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pnstm/client"
	"pnstm/server"
	"pnstm/stmlib"
)

// workload is one row of the -workload table. Everything that lists the
// workloads — flag validation and its error text, the -workload help,
// the -h usage — and everything that asks what a workload provisions and
// verifies reads this one table.
type workload struct {
	name  string
	doc   string // the line -h prints
	parts part   // what setup provisions and verify checks
	op    func(d *driver, rng *rand.Rand) error
}

// part is one independently provisioned and verified piece of server
// state; a workload is a set of parts plus the op mix that drives them.
type part uint8

const (
	partReadMap  part = 1 << iota // bench:m preloaded; puts only overwrite, so MapLen is invariant
	partQueues                    // bench:q*: held == baseline + pushed − popped
	partCounter                   // bench:hits == baseline + issued adds
	partCheckout                  // stock + sold conserved, revenue consistent, no oversell
	partTx                        // txmix: transfer-queue conservation and the guarded CAS ledger
	partLedger                    // crossshard: the zero-sum account ledger
	partZipf                      // hotkey: the zipfian popularity CDF over bench:m
	partPipeline                  // pipeline: board, sessions, leased queues (pipeline.go)
)

var workloads = []workload{
	{"readmap", "read-heavy point ops on one named map (-readfrac)",
		partReadMap, (*driver).opReadMap},
	{"queue", "producer/consumer traffic over several named queues",
		partQueues, (*driver).opQueue},
	{"counter", "hot-counter increments with occasional parallel-nested sums",
		partCounter, (*driver).opCounter},
	{"checkout", "cross-structure orders (stock map + sold/revenue counters), conservation checked at the end",
		partCheckout, (*driver).opCheckout},
	{"mixed", "all of the above interleaved",
		partReadMap | partQueues | partCounter | partCheckout, (*driver).opMixed},
	{"txmix", "multi-op wire transactions (client.Txn envelopes): checkout orders, atomic queue-to-queue transfers (cross-shard pairs preferred), guarded compare-and-swap bumps (lost guards tallied as rejections) and read-only cross-structure audits, cross-shard on a sharded server — transfer/CAS/conservation ledgers verified",
		partCheckout | partTx, (*driver).opTxMix},
	{"crossshard", "guarded balance transfers between account maps on different shards — every mutating envelope rides the cross-shard ordered-commit path — with the zero-sum ledger total verified exactly",
		partLedger, (*driver).opCrossShard},
	{"hotkey", "zipfian-skewed write-heavy point traffic: a handful of keys draw most of the writes; a batch runs each key's requests as one chain, so batch siblings no longer conflict on them (D58) and /debug/hotkeys shows what still does",
		partReadMap | partZipf, (*driver).opHotKey},
	{"pipeline", "second-generation structures composed (D45): leaderboard scans under score churn, TTL'd sessions, a leased work queue with deliberate abandons — lease conservation and exactly-once acks verified",
		partPipeline, (*driver).opPipeline},
}

// findWorkload returns the table row for name.
func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, workloadNames())
}

// workloadNames renders the table's names as "a, b, … or z".
func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// genCfg parameterizes one load-generation run.
type genCfg struct {
	workload    string // a name from the workloads table
	concurrency int    // issuing goroutines
	conns       int    // pooled client connections
	duration    time.Duration
	rate        float64 // total target ops/sec; 0 = closed loop
	keys        int     // readmap key-space size
	readFrac    float64 // readmap read fraction
	skus        int     // checkout SKU count
	stockPer    int64   // checkout initial units per SKU
	queues      int     // queue workload: distinct queues (txmix: queue pairs)
	seed        int64
}

func (c *genCfg) fillDefaults() error {
	if _, err := findWorkload(c.workload); err != nil {
		return err
	}
	if c.concurrency <= 0 {
		c.concurrency = 16
	}
	if c.conns <= 0 {
		c.conns = 4
	}
	if c.duration <= 0 {
		c.duration = 5 * time.Second
	}
	if c.keys <= 0 {
		c.keys = 1024
	}
	if c.readFrac <= 0 || c.readFrac > 1 {
		c.readFrac = 0.9
	}
	if c.skus <= 0 {
		c.skus = 16
	}
	if c.stockPer <= 0 {
		c.stockPer = 100000
	}
	if c.queues <= 0 {
		c.queues = 4
	}
	if c.seed == 0 {
		c.seed = 1
	}
	return nil
}

// genResult is the outcome of one run.
type genResult struct {
	ops        int64
	errs       int64
	rejected   int64
	wall       time.Duration
	latencies  []time.Duration
	violations []string

	// extra and notes carry what only one A/B leg measures (WAL fsyncs,
	// background writes, replica staleness) into the report beside the
	// standard metrics.
	extra map[string]float64
	notes []string

	statsOK     bool
	batchDelta  uint64
	reqDelta    uint64
	runtimeUsed server.ServerStats // the after snapshot
	runtimeStat serverDelta
	perShard    []shardDelta // per-partition activity (sharded servers)
}

// serverDelta is the server-side activity attributable to the run.
type serverDelta struct {
	meanBatch  float64
	abortRatio float64
	committed  uint64
	aborted    uint64
}

// shardDelta is one shard's slice of the run's server-side activity.
type shardDelta struct {
	shard              int
	batches, requests  uint64
	committed, aborted uint64
	abortRatio         float64
}

func (r *genResult) throughput() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.ops) / r.wall.Seconds()
}

// driver owns the shared workload state across issuing goroutines.
type driver struct {
	cfg genCfg
	wl  *workload // cfg.workload's table row
	cl  *client.Client

	adds     atomic.Int64 // counter workload: sum of issued deltas
	pushed   atomic.Int64
	popped   atomic.Int64
	accepted atomic.Int64
	rejected atomic.Int64
	mapPuts  atomic.Int64

	// txmix state: queue pairs for atomic transfers (cross-shard pairs
	// preferred — the ordered-commit path — with same-shard fallback),
	// and acked-transfer / CAS tallies for the conservation verifiers.
	txPairs    [][2]string
	txPushed   atomic.Int64
	txPopped   atomic.Int64
	casApplied atomic.Int64

	// crossshard state: acctPartners[i] is the transfer partner of
	// ledger map i, on a different shard whenever one exists.
	acctPartners []int

	// hotkey state: the zipfian CDF over the key-space, rank 0 hottest.
	// Built once in setup and only read afterwards, so every issuing
	// goroutine shares it without synchronization.
	hotCDF []float64

	// pipeline tallies (D45): produced/acked mirror the store's own
	// produced/done counters (each moved in the same envelope as its
	// queue mutation); abandoned counts leases deliberately walked away
	// from for the reaper to requeue.
	pipeProduced  atomic.Int64
	pipeAcked     atomic.Int64
	pipeAbandoned atomic.Int64

	// base snapshots the server state right after setup so verify()
	// compares deltas: a long-lived pnstmd carries counters and queue
	// contents from earlier runs.
	base struct {
		mapLen   int64
		queues   int64
		counter  int64
		sold     int64
		revenue  int64
		txQueues int64
		pipeDone int64
	}
}

const (
	mapName     = "bench:m"
	counterName = "bench:hits"
	stockName   = "bench:stock"
	soldName    = "bench:sold"
	revenueName = "bench:revenue"

	// metaName records each setup's provisioning epoch in the store
	// itself (durably, on a persistent server): the sold/revenue
	// baselines at the moment stock was re-provisioned, and the stock
	// total. -recovery-check reads these back, so its conservation law
	// holds across restarts AND across repeated load runs on one data
	// dir — the law is over the deltas since the last provisioning.
	metaName = "bench:meta"

	// txmix: CAS slots live in their own map (guard-contended version
	// counters) and transfers move elements between txQueueName queues.
	casMapName = "bench:cas"
	casSlots   = 64

	// crossshard: an account ledger spread over acctMaps maps (hashing
	// to different shards on a sharded server) with acctPerMap balances
	// each. Every transfer is a guarded three-op envelope between TWO
	// maps — on distinct shards whenever the layout allows — so the
	// workload hammers the cross-shard ordered-commit path while the
	// ledger total stays a closed-form constant.
	acctMaps    = 8
	acctPerMap  = 16
	acctInitial = int64(1000)
)

func queueName(i int) string   { return fmt.Sprintf("bench:q%d", i) }
func keyName(i int) string     { return fmt.Sprintf("k%06d", i) }
func skuName(i int) string     { return fmt.Sprintf("sku%03d", i) }
func txQueueName(i int) string { return fmt.Sprintf("bench:txq%d", i) }
func casKey(i int) string      { return fmt.Sprintf("slot%02d", i) }
func acctMapName(i int) string { return fmt.Sprintf("bench:acct%d", i) }
func acctKeyName(j int) string { return fmt.Sprintf("acct%02d", j) }

// txQueueNames is the txmix transfer-queue pool: four queues per
// configured -queues unit, so co-sharded partners usually exist and
// sibling transfers in one batch usually hit distinct pairs.
func (c *genCfg) txQueueNames() []string {
	names := make([]string, 4*c.queues)
	for i := range names {
		names[i] = txQueueName(i)
	}
	return names
}

// pairTxQueues pairs the transfer queues, preferring partners on
// DIFFERENT shards: a mutating two-queue envelope spanning shards
// exercises the cross-shard ordered-commit path, which is exactly the
// machinery the txmix conservation ledger should be stressing (before
// D29 the preference was inverted — the server refused cross-shard
// mutators). Deterministic: queues are grouped per shard in name
// order and the two largest groups (lowest shard id on ties) donate
// each pair, so one seed always drives one pairing. Leftovers pair
// within their shard; a final odd queue pairs with itself — a
// self-transfer conserves just the same.
func pairTxQueues(names []string, shards int) [][2]string {
	byShard := make([][]string, shards)
	for _, n := range names {
		sh := stmlib.ShardIndex(n, shards)
		byShard[sh] = append(byShard[sh], n)
	}
	var pairs [][2]string
	for {
		// The two biggest non-empty groups, lowest shard id first.
		a, b := -1, -1
		for sh := range byShard {
			switch {
			case len(byShard[sh]) == 0:
			case a < 0 || len(byShard[sh]) > len(byShard[a]):
				a, b = sh, a
			case b < 0 || len(byShard[sh]) > len(byShard[b]):
				b = sh
			}
		}
		if b < 0 {
			break // zero or one shard still has queues: no cross pair left
		}
		pairs = append(pairs, [2]string{byShard[a][0], byShard[b][0]})
		byShard[a] = byShard[a][1:]
		byShard[b] = byShard[b][1:]
	}
	for _, group := range byShard {
		for i := 0; i+1 < len(group); i += 2 {
			pairs = append(pairs, [2]string{group[i], group[i+1]})
		}
		if len(group)%2 == 1 {
			last := group[len(group)-1]
			pairs = append(pairs, [2]string{last, last})
		}
	}
	return pairs
}

// acctPartnerOf picks ledger map i's transfer partner: the next map (in
// index order) living on a DIFFERENT shard, falling back to the next
// map regardless when every ledger map hashes to one shard (a 1-shard
// server). Pure and deterministic in (i, shards).
func acctPartnerOf(i, shards int) int {
	home := stmlib.ShardIndex(acctMapName(i), shards)
	for d := 1; d < acctMaps; d++ {
		j := (i + d) % acctMaps
		if stmlib.ShardIndex(acctMapName(j), shards) != home {
			return j
		}
	}
	return (i + 1) % acctMaps
}

// has reports whether the workload includes part p (and so needs it
// provisioned, baselined and verified).
func (d *driver) has(p part) bool { return d.wl.parts&p != 0 }

// setup provisions the structures the run reads from.
func (d *driver) setup() error {
	c := d.cfg
	if d.has(partReadMap) {
		for i := 0; i < c.keys; i++ {
			if err := d.cl.MapPut(mapName, keyName(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return fmt.Errorf("setup map: %w", err)
			}
		}
	}
	if d.has(partCheckout) {
		for i := 0; i < c.skus; i++ {
			if err := d.cl.MapPutInt(stockName, skuName(i), c.stockPer); err != nil {
				return fmt.Errorf("setup stock: %w", err)
			}
		}
	}
	if d.has(partTx) {
		for i := 0; i < casSlots; i++ {
			if err := d.cl.MapPutInt(casMapName, casKey(i), 0); err != nil {
				return fmt.Errorf("setup cas slots: %w", err)
			}
		}
		// Pair queues across shards where possible (same-shard otherwise):
		// ask the server how many partitions it runs (1 when stats are
		// unavailable — a sharded server always answers stats).
		d.txPairs = pairTxQueues(c.txQueueNames(), d.serverShards())
	}
	if d.has(partZipf) {
		d.hotCDF = zipfCDF(c.keys, hotKeyExponent)
	}
	if d.has(partPipeline) {
		if err := d.setupPipeline(); err != nil {
			return err
		}
	}
	if d.has(partLedger) {
		shards := d.serverShards()
		d.acctPartners = make([]int, acctMaps)
		for i := 0; i < acctMaps; i++ {
			d.acctPartners[i] = acctPartnerOf(i, shards)
			for j := 0; j < acctPerMap; j++ {
				if err := d.cl.MapPutInt(acctMapName(i), acctKeyName(j), acctInitial); err != nil {
					return fmt.Errorf("setup ledger: %w", err)
				}
			}
		}
		// Durable provisioning record, like the checkout meta: lets
		// -recovery-check re-derive the ledger's conservation law after
		// an out-of-process kill -9 with no memory of this run.
		for k, v := range map[string]int64{
			"acct_maps":    int64(acctMaps),
			"acct_per_map": int64(acctPerMap),
			"acct_total":   int64(acctMaps) * int64(acctPerMap) * acctInitial,
		} {
			if err := d.cl.MapPutInt(metaName, k, v); err != nil {
				return fmt.Errorf("setup ledger meta: %w", err)
			}
		}
	}
	if err := d.snapshotBaselines(); err != nil {
		return err
	}
	if d.has(partCheckout) {
		for k, v := range map[string]int64{
			"sold0":       d.base.sold,
			"revenue0":    d.base.revenue,
			"skus":        int64(c.skus),
			"stock_total": int64(c.skus) * c.stockPer,
		} {
			if err := d.cl.MapPutInt(metaName, k, v); err != nil {
				return fmt.Errorf("setup meta: %w", err)
			}
		}
	}
	return nil
}

// serverShards asks the server how many engine partitions it runs (1
// when stats are unavailable — a sharded server always answers stats).
func (d *driver) serverShards() int {
	if st, err := d.cl.Stats(); err == nil && st.Shards > 0 {
		return int(st.Shards)
	}
	return 1
}

// snapshotBaselines records the post-setup server state the invariants
// are measured against. Stock is re-provisioned by setup, but counters
// and queues persist across runs on a long-lived server.
func (d *driver) snapshotBaselines() error {
	c := d.cfg
	var err error
	read := func(dst *int64, f func() (int64, error)) {
		if err != nil {
			return
		}
		*dst, err = f()
	}
	if d.has(partReadMap) {
		read(&d.base.mapLen, func() (int64, error) { return d.cl.MapLen(mapName) })
	}
	if d.has(partQueues) {
		for i := 0; i < c.queues; i++ {
			i := i
			var n int64
			read(&n, func() (int64, error) { return d.cl.QueueLen(queueName(i)) })
			d.base.queues += n
		}
	}
	if d.has(partCounter) {
		read(&d.base.counter, func() (int64, error) { return d.cl.CounterSum(counterName) })
	}
	if d.has(partCheckout) {
		read(&d.base.sold, func() (int64, error) { return d.cl.CounterSum(soldName) })
		read(&d.base.revenue, func() (int64, error) { return d.cl.CounterSum(revenueName) })
	}
	if d.has(partTx) {
		for _, q := range c.txQueueNames() {
			q := q
			var n int64
			read(&n, func() (int64, error) { return d.cl.QueueLen(q) })
			d.base.txQueues += n
		}
	}
	if err != nil {
		return fmt.Errorf("setup baselines: %w", err)
	}
	return nil
}

// opMixed interleaves the four single-structure workloads.
func (d *driver) opMixed(rng *rand.Rand) error {
	switch r := rng.Intn(10); {
	case r < 4:
		return d.opReadMap(rng)
	case r < 6:
		return d.opCounter(rng)
	case r < 8:
		return d.opQueue(rng)
	default:
		return d.opCheckout(rng)
	}
}

// opTxMix draws one of the four envelope shapes.
func (d *driver) opTxMix(rng *rand.Rand) error {
	switch r := rng.Intn(10); {
	case r < 4:
		return d.opCheckout(rng) // rides the generic envelope path
	case r < 7:
		return d.opTxTransfer(rng)
	case r < 9:
		return d.opTxCas(rng)
	default:
		return d.opTxAudit(rng)
	}
}

// opCrossShard is nine transfers to one read.
func (d *driver) opCrossShard(rng *rand.Rand) error {
	if rng.Intn(10) == 0 {
		return d.opAcctRead(rng)
	}
	return d.opAcctTransfer(rng)
}

// hotKeyExponent shapes the hotkey workload's zipfian key popularity:
// with 1.2 the rank-0 key draws roughly a fifth of all traffic on a
// 1024-key space, so a handful of keys dominate the traffic — the skew
// /debug/hotkeys exists to expose.
const hotKeyExponent = 1.2

// hotKeyWriteFrac is the hotkey workload's write fraction: write-heavy
// on purpose, because only writes conflict and /debug/hotkeys ranks
// conflicts.
const hotKeyWriteFrac = 0.8

// zipfCDF precomputes the cumulative distribution of P(rank=i) ∝
// 1/(i+1)^s over n ranks. Shared read-only across goroutines; each op
// inverts it with a binary search on one uniform draw.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// opHotKey issues zipfian-skewed traffic over the preloaded key-space:
// mostly overwrites, some point reads. The planner runs one key's
// requests as one chain (D58), so what still aborts — different keys
// sharing a bucket — lands in the flight recorder attributed to
// `bench:m:k000000`-style tags, the signal /debug/hotkeys ranks.
// Writes stay inside the preloaded keys, so the readmap MapLen
// invariant holds.
func (d *driver) opHotKey(rng *rand.Rand) error {
	i := sort.SearchFloat64s(d.hotCDF, rng.Float64())
	if i >= len(d.hotCDF) {
		i = len(d.hotCDF) - 1
	}
	key := keyName(i)
	if rng.Float64() >= hotKeyWriteFrac {
		_, _, err := d.cl.MapGet(mapName, key)
		return err
	}
	d.mapPuts.Add(1)
	return d.cl.MapPut(mapName, key, []byte(fmt.Sprintf("v%d", rng.Int())))
}

// opAcctTransfer moves a few units between balances in two ledger maps
// — a guarded three-op envelope that, on a sharded server, spans two
// shards and commits through the cross-shard ordered-commit path. A
// guard failure (source too poor) is the expected app-level outcome
// under drain, tallied as a rejection; either way the ledger total is
// untouched or conserved, never split.
func (d *driver) opAcctTransfer(rng *rand.Rand) error {
	src := rng.Intn(acctMaps)
	dst := d.acctPartners[src]
	srcKey := acctKeyName(rng.Intn(acctPerMap))
	dstKey := acctKeyName(rng.Intn(acctPerMap))
	amt := int64(1 + rng.Intn(5))
	_, err := d.cl.Txn().
		AssertGE(acctMapName(src), srcKey, amt).
		MapAddInt(acctMapName(src), srcKey, -amt).
		MapAddInt(acctMapName(dst), dstKey, amt).
		Commit()
	var aborted *client.ErrTxAborted
	if errors.As(err, &aborted) {
		d.rejected.Add(1)
		return nil
	}
	return err
}

// opAcctRead is the read side: one balance point-read plus a read-only
// two-map envelope (which takes the cross-shard ordered path on a
// sharded server).
func (d *driver) opAcctRead(rng *rand.Rand) error {
	src := rng.Intn(acctMaps)
	dst := d.acctPartners[src]
	_, err := d.cl.Txn().
		MapGet(acctMapName(src), acctKeyName(rng.Intn(acctPerMap))).
		MapGet(acctMapName(dst), acctKeyName(rng.Intn(acctPerMap))).
		Commit()
	return err
}

// opTxTransfer atomically moves one element between two queues (pop A,
// push B in ONE envelope) — usually on different shards, riding the
// cross-shard ordered commit. A pop that finds the source
// empty still pushes — the verifier's ledger accounts for both cases,
// so total elements across the transfer pool obey
// base + pushed − popped exactly.
func (d *driver) opTxTransfer(rng *rand.Rand) error {
	pair := d.txPairs[rng.Intn(len(d.txPairs))]
	res, err := d.cl.Txn().
		QueuePop(pair[0]).
		QueuePush(pair[1], server.EncodeInt64(rng.Int63())).
		Commit()
	if err != nil {
		return err
	}
	d.txPushed.Add(1)
	if res.Found(0) {
		d.txPopped.Add(1)
	}
	return nil
}

// opTxCas is the optimistic-concurrency pattern the guard ops exist
// for: read a version slot, then commit AssertEq(old) + Put(old+1) in
// one envelope. A lost race comes back as ErrTxAborted — the app-level
// conflict signal, tallied as a rejection, never an error.
func (d *driver) opTxCas(rng *rand.Rand) error {
	slot := casKey(rng.Intn(casSlots))
	old, ok, err := d.cl.MapGetInt(casMapName, slot)
	if err != nil {
		return err
	}
	tx := d.cl.Txn()
	if ok {
		tx.AssertEqInt(casMapName, slot, old)
	} else {
		tx.AssertEq(casMapName, slot, nil)
	}
	_, err = tx.MapPutInt(casMapName, slot, old+1).Commit()
	var aborted *client.ErrTxAborted
	if errors.As(err, &aborted) {
		d.rejected.Add(1)
		return nil
	}
	if err != nil {
		return err
	}
	d.casApplied.Add(1)
	return nil
}

// opTxAudit is a read-only envelope spanning structures (and, on a
// sharded server, shards — a read-only cross-shard envelope): point
// reads, lengths and a globally-summed counter guard.
func (d *driver) opTxAudit(rng *rand.Rand) error {
	pair := d.txPairs[rng.Intn(len(d.txPairs))]
	_, err := d.cl.Txn().
		MapGet(casMapName, casKey(rng.Intn(casSlots))).
		MapGet(stockName, skuName(rng.Intn(d.cfg.skus))).
		QueueLen(pair[0]).
		QueueLen(pair[1]).
		CounterSum(soldName).
		AssertCounterGE(soldName, 0).
		Commit()
	return err
}

// opReadMap reads or overwrites one key of the preloaded map. Writes stay
// inside the preloaded keys, so MapLen is invariant.
func (d *driver) opReadMap(rng *rand.Rand) error {
	key := keyName(rng.Intn(d.cfg.keys))
	if rng.Float64() < d.cfg.readFrac {
		_, _, err := d.cl.MapGet(mapName, key)
		return err
	}
	d.mapPuts.Add(1)
	return d.cl.MapPut(mapName, key, []byte(fmt.Sprintf("v%d", rng.Int())))
}

func (d *driver) opQueue(rng *rand.Rand) error {
	q := queueName(rng.Intn(d.cfg.queues))
	// Bias pushes slightly so pops usually find elements; the imbalance
	// is reconciled against QueueLen at verify time.
	if rng.Intn(5) < 3 {
		if err := d.cl.QueuePush(q, server.EncodeInt64(rng.Int63())); err != nil {
			return err
		}
		d.pushed.Add(1)
		return nil
	}
	_, ok, err := d.cl.QueuePop(q)
	if err != nil {
		return err
	}
	if ok {
		d.popped.Add(1)
	}
	return nil
}

func (d *driver) opCounter(rng *rand.Rand) error {
	if rng.Intn(64) == 0 {
		_, err := d.cl.CounterSum(counterName)
		return err
	}
	delta := int64(1 + rng.Intn(4))
	if err := d.cl.CounterAdd(counterName, delta); err != nil {
		return err
	}
	d.adds.Add(delta)
	return nil
}

func (d *driver) opCheckout(rng *rand.Rand) error {
	nLines := 1 + rng.Intn(3)
	lines := make([]server.CheckoutLine, 0, nLines)
	seen := make(map[int]bool, nLines)
	var units int64
	for len(lines) < nLines {
		s := rng.Intn(d.cfg.skus)
		if seen[s] {
			continue
		}
		seen[s] = true
		qty := int64(1 + rng.Intn(3))
		lines = append(lines, server.CheckoutLine{SKU: skuName(s), Qty: qty})
		units += qty
	}
	ok, _, err := d.cl.Checkout(stockName, server.Checkout{
		Sold:    soldName,
		Revenue: revenueName,
		Cents:   units * 100,
		Lines:   lines,
	})
	if err != nil {
		return err
	}
	if ok {
		d.accepted.Add(1)
	} else {
		d.rejected.Add(1)
	}
	return nil
}

// verify checks the workload's closed-form invariants against the
// server's final state and returns the violations.
func (d *driver) verify() []string {
	var out []string
	c := d.cfg
	fail := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	if d.has(partReadMap) {
		n, err := d.cl.MapLen(mapName)
		if err != nil {
			fail("map len: %v", err)
		} else if n != d.base.mapLen {
			fail("map len %d, want %d (puts only overwrite preloaded keys)", n, d.base.mapLen)
		}
	}
	if d.has(partQueues) {
		var remaining int64
		for i := 0; i < c.queues; i++ {
			n, err := d.cl.QueueLen(queueName(i))
			if err != nil {
				fail("queue len: %v", err)
				break
			}
			remaining += n
		}
		if want := d.base.queues + d.pushed.Load() - d.popped.Load(); remaining != want {
			fail("queues hold %d elements, want baseline+pushed−popped = %d", remaining, want)
		}
	}
	if d.has(partCounter) {
		sum, err := d.cl.CounterSum(counterName)
		if err != nil {
			fail("counter sum: %v", err)
		} else if sum != d.base.counter+d.adds.Load() {
			fail("counter = %d, want %d (baseline + issued adds)", sum, d.base.counter+d.adds.Load())
		}
	}
	if d.has(partTx) {
		// Transfer conservation: every committed envelope pushed exactly
		// once and popped at most once, atomically.
		var remaining int64
		for _, q := range c.txQueueNames() {
			n, err := d.cl.QueueLen(q)
			if err != nil {
				fail("tx queue len: %v", err)
				break
			}
			remaining += n
		}
		if want := d.base.txQueues + d.txPushed.Load() - d.txPopped.Load(); remaining != want {
			fail("transfer queues hold %d elements, want baseline+pushed−popped = %d", remaining, want)
		}
		// CAS ledger: each slot only ever moves by guarded +1, so the pool
		// total equals the number of wins the clients tallied.
		var sum int64
		for i := 0; i < casSlots; i++ {
			v, ok, err := d.cl.MapGetInt(casMapName, casKey(i))
			if err != nil || !ok {
				fail("cas slot %s: ok=%v err=%v", casKey(i), ok, err)
				return out
			}
			sum += v
		}
		if sum != d.casApplied.Load() {
			fail("cas slots total %d, want %d applied increments", sum, d.casApplied.Load())
		}
	}
	if d.has(partLedger) {
		// The strongest law in the suite: transfers are zero-sum and the
		// run issues nothing else, so the recovered ledger total equals
		// the provisioned total EXACTLY — any torn cross-shard commit
		// (one shard's slice applied without the other) shows up here.
		var total int64
		for i := 0; i < acctMaps; i++ {
			for j := 0; j < acctPerMap; j++ {
				v, ok, err := d.cl.MapGetInt(acctMapName(i), acctKeyName(j))
				if err != nil || !ok {
					fail("ledger %s/%s: ok=%v err=%v", acctMapName(i), acctKeyName(j), ok, err)
					return out
				}
				if v < 0 {
					fail("ledger %s/%s overdrawn: %d (a guard was bypassed)", acctMapName(i), acctKeyName(j), v)
				}
				total += v
			}
		}
		if want := int64(acctMaps) * int64(acctPerMap) * acctInitial; total != want {
			fail("ledger total %d, want %d: a cross-shard transfer split", total, want)
		}
	}
	if d.has(partPipeline) {
		out = append(out, d.verifyPipeline()...)
	}
	if d.has(partCheckout) {
		var remaining int64
		for i := 0; i < c.skus; i++ {
			v, ok, err := d.cl.MapGetInt(stockName, skuName(i))
			if err != nil || !ok {
				fail("stock %s: ok=%v err=%v", skuName(i), ok, err)
				return out
			}
			if v < 0 {
				fail("stock %s oversold: %d", skuName(i), v)
			}
			remaining += v
		}
		soldAbs, err := d.cl.CounterSum(soldName)
		if err != nil {
			fail("sold sum: %v", err)
			return out
		}
		revenueAbs, err := d.cl.CounterSum(revenueName)
		if err != nil {
			fail("revenue sum: %v", err)
			return out
		}
		// Stock was re-provisioned by setup; sold/revenue persist, so the
		// conservation law is over this run's deltas.
		sold := soldAbs - d.base.sold
		revenue := revenueAbs - d.base.revenue
		if total, want := remaining+sold, int64(c.skus)*c.stockPer; total != want {
			fail("conservation violated: remaining %d + sold %d = %d, want %d", remaining, sold, total, want)
		}
		if revenue != sold*100 {
			fail("revenue %d inconsistent with %d units sold", revenue, sold)
		}
	}
	return out
}

// runLoad drives the configured workload against the client and collects
// the result.
func runLoad(cl *client.Client, cfg genCfg) (*genResult, error) {
	d, err := prepare(cl, cfg)
	if err != nil {
		return nil, err
	}
	return d.run(), nil
}

// prepare provisions the workload's structures and snapshots the
// baselines its invariants are measured against. A caller with something
// to do between provisioning and the measured window (the replica A/B's
// catch-up barrier) calls prepare and run itself.
func prepare(cl *client.Client, cfg genCfg) (*driver, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	d := &driver{cfg: cfg, wl: wl, cl: cl}
	if err := d.setup(); err != nil {
		return nil, err
	}
	return d, nil
}

// run issues the workload for cfg.duration, verifies the invariants and
// collects the result. The server-stats delta (batching behaviour, abort
// rate) is captured when the server answers OpStats.
func (d *driver) run() *genResult {
	cl, cfg := d.cl, d.cfg
	before, statsOK := server.ServerStats{}, true
	if st, err := cl.Stats(); err == nil {
		before = st
	} else {
		statsOK = false
	}

	res := &genResult{}
	var mu sync.Mutex
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < cfg.concurrency; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(g)*7919))
			lats := make([]time.Duration, 0, 4096)
			var ops, errs int64

			// Open loop: each goroutine fires at rate/concurrency and
			// measures from the scheduled instant, so queueing delay under
			// overload shows up in the percentiles. Closed loop (rate 0):
			// back-to-back, measured from send.
			var interval time.Duration
			next := time.Now()
			if cfg.rate > 0 {
				interval = time.Duration(float64(time.Second) * float64(cfg.concurrency) / cfg.rate)
			}
			for {
				now := time.Now()
				if now.After(deadline) {
					break
				}
				issuedAt := now
				if interval > 0 {
					if next.After(now) {
						time.Sleep(next.Sub(now))
					}
					issuedAt = next
					next = next.Add(interval)
				}
				if err := d.wl.op(d, rng); err != nil {
					errs++
					// A dead connection fails every subsequent op; stop
					// instead of spinning on it.
					if time.Now().After(deadline) || errs > 100 {
						break
					}
					continue
				}
				ops++
				lats = append(lats, time.Since(issuedAt))
			}
			mu.Lock()
			res.ops += ops
			res.errs += errs
			res.latencies = append(res.latencies, lats...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.rejected = d.rejected.Load()
	res.violations = d.verify()

	if statsOK {
		if after, err := cl.Stats(); err == nil {
			res.statsOK = true
			res.runtimeUsed = after
			res.batchDelta = after.Batches - before.Batches
			res.reqDelta = after.Requests - before.Requests
			rd := after.Runtime.Sub(before.Runtime)
			res.runtimeStat = serverDelta{
				abortRatio: rd.AbortRate(),
				committed:  rd.Committed,
				aborted:    rd.Aborted,
			}
			if res.batchDelta > 0 {
				res.runtimeStat.meanBatch = float64(res.reqDelta) / float64(res.batchDelta)
			}
			for i, sh := range after.PerShard {
				var prev server.ShardStats
				if i < len(before.PerShard) {
					prev = before.PerShard[i]
				}
				srd := sh.Runtime.Sub(prev.Runtime)
				res.perShard = append(res.perShard, shardDelta{
					shard:      sh.Shard,
					batches:    sh.Batches - prev.Batches,
					requests:   sh.Requests - prev.Requests,
					committed:  srd.Committed,
					aborted:    srd.Aborted,
					abortRatio: srd.AbortRate(),
				})
			}
		}
	}
	return res
}
