package main

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"pnstm/client"
	"pnstm/server"
)

// The load generator's invariants, each stated once. A law reads back
// the state it is about and checks it against bounds its caller gives:
//
//   - live verify (driver.verify) takes them from the run's baselines
//     and tallies;
//   - -recovery-check (runRecoveryCheck) from the provisioning record
//     setup wrote into bench:meta, and nothing else;
//   - the crash drill (runCrash) runs that same recovery check, then
//     the laws that need its pre-crash tallies.
//
// A law whose read fails reports the error as its verdict and stops;
// the laws after it still run, so one failed read neither hides nor
// fakes another law's verdict.

// check collects the verdicts of the laws run against one client.
type check struct {
	cl  *client.Client
	out []string
}

func (c *check) fail(format string, args ...any) {
	c.out = append(c.out, fmt.Sprintf(format, args...))
}

// unread records err, when there is one, as the verdict of the law
// reading what.
func (c *check) unread(what string, err error) bool {
	if err != nil {
		c.fail("cannot read %s: %v", what, err)
	}
	return err != nil
}

// violations is a failed check as the run's error.
type violations []string

func (v violations) Error() string { return fmt.Sprintf("%d invariant violations", len(v)) }

// verdict prints the violations and returns them as an error, or prints
// ok when there are none.
func (c *check) verdict(ok string) error {
	for _, v := range c.out {
		fmt.Fprintf(os.Stderr, "INVARIANT VIOLATED: %s\n", v)
	}
	if len(c.out) > 0 {
		return violations(c.out)
	}
	fmt.Println(ok)
	return nil
}

// mapPopulation: bench:m's puts only overwrite preloaded keys, so it
// holds exactly the keys setup left in it.
func (c *check) mapPopulation(want int64) {
	n, err := c.cl.MapLen(mapName)
	if c.unread("map len", err) {
		return
	}
	if n != want {
		c.fail("map len %d, want %d (puts only overwrite preloaded keys)", n, want)
	}
}

// checkout: setup stocked skus SKUs with stockTotal units while the sold
// and revenue counters stood at sold0 and revenue0, and every order
// moves its units from stock to sold and 100 cents a unit to revenue in
// one atomic step. No SKU may be missing or oversold, stock + sold must
// equal the total, and revenue must be 100 × sold. Returns the units
// sold since setup.
func (c *check) checkout(skus int, stockTotal, sold0, revenue0 int64) (sold int64) {
	var remaining int64
	for i := 0; i < skus; i++ {
		v, ok, err := c.cl.MapGetInt(stockName, skuName(i))
		if c.unread("stock", err) {
			return 0
		}
		switch {
		case !ok:
			c.fail("stock %s missing", skuName(i))
		case v < 0:
			c.fail("stock %s oversold: %d", skuName(i), v)
		}
		remaining += v
	}
	soldAbs, err := c.cl.CounterSum(soldName)
	if c.unread("sold", err) {
		return 0
	}
	revenueAbs, err := c.cl.CounterSum(revenueName)
	if c.unread("revenue", err) {
		return 0
	}
	sold = soldAbs - sold0
	if total := remaining + sold; total != stockTotal {
		c.fail("conservation violated: remaining %d + sold %d = %d, want %d", remaining, sold, total, stockTotal)
	}
	if revenue := revenueAbs - revenue0; revenue != sold*100 {
		c.fail("revenue %d inconsistent with %d units sold", revenue, sold)
	}
	return sold
}

// ledger: maps × perMap accounts hold total between them, and the only
// writes are guarded zero-sum transfers. No account may be missing or
// overdrawn, and the total is exact: a torn cross-shard commit (one
// shard's slice applied without the other) is the only way it drifts.
func (c *check) ledger(maps, perMap int, total int64) {
	var sum int64
	for i := 0; i < maps; i++ {
		for j := 0; j < perMap; j++ {
			v, ok, err := c.cl.MapGetInt(acctMapName(i), acctKeyName(j))
			if c.unread("ledger", err) {
				return
			}
			switch {
			case !ok:
				c.fail("ledger %s/%s missing", acctMapName(i), acctKeyName(j))
			case v < 0:
				c.fail("ledger %s/%s overdrawn: %d (a guard was bypassed)", acctMapName(i), acctKeyName(j), v)
			}
			sum += v
		}
	}
	if sum != total {
		c.fail("ledger total %d, want %d: a cross-shard transfer split", sum, total)
	}
}

// pipeline: every push bumps produced and every ack bumps done in the
// same envelope, score writes only overwrite the board's players, the
// permanent sessions carry no TTL and the expired ones were written
// already dead. So produced − done equals what the queues hold (queued +
// leased), done never passes produced, the board holds exactly players
// and scans them in order, every permanent session is present and no
// expired one is readable. Returns the done counter; ok is false when
// it could not be read.
func (c *check) pipeline(players int64, queues, perm, exp int) (done int64, ok bool) {
	produced, err := c.cl.CounterSum(producedName)
	if c.unread("produced", err) {
		return 0, false
	}
	if done, err = c.cl.CounterSum(doneName); c.unread("done", err) {
		return 0, false
	}
	ok = true
	if done > produced {
		c.fail("done %d > produced %d: jobs acked more often than delivered", done, produced)
	}
	var held int64
	for i := 0; i < queues; i++ {
		res, err := c.cl.Txn().QueueLen(pipeQueueName(i)).LeaseLen(pipeQueueName(i)).Commit()
		if c.unread("pipe queues", err) {
			return
		}
		held += res.Num(0) + res.Num(1)
	}
	if produced-done != held {
		c.fail("lease conservation violated: produced %d − done %d = %d, but queues hold %d (queued+leased)",
			produced, done, produced-done, held)
	}

	cnt, err := c.cl.RangeCount(boardName, "", "")
	if c.unread("board", err) {
		return
	}
	if cnt != players {
		c.fail("board holds %d players, want %d", cnt, players)
	}
	es, err := c.cl.RangeScan(boardName, "", "", pipeTopK)
	if c.unread("board", err) {
		return
	}
	if want := min(pipeTopK, players); int64(len(es)) != want {
		c.fail("board top-K returned %d entries, want %d", len(es), want)
	}
	for i := 0; i < perm+exp; i++ {
		key := permSessionKey(i)
		if i >= perm {
			key = expSessionKey(i - perm)
		}
		_, found, err := c.cl.MapGet(sessionsName, key)
		if c.unread("sessions", err) {
			return
		}
		switch {
		case i < perm && !found:
			c.fail("permanent session %s gone", key)
		case i >= perm && found:
			c.fail("expired session %s is readable (resurrected)", key)
		}
	}
	return
}

// counter: bench:hits moved by every acked add and by no add beyond
// those attempted, so it lies in [lo, hi] (lo == hi on a live run).
func (c *check) counter(lo, hi int64) (sum int64) {
	sum, err := c.cl.CounterSum(counterName)
	if !c.unread("counter", err) && (sum < lo || sum > hi) {
		c.fail("counter = %d, want baseline + issued adds in [%d, %d]", sum, lo, hi)
	}
	return sum
}

// queueTotal: the named queues hold want elements between them — every
// committed push and pop was tallied (what names the set in the verdict).
func (c *check) queueTotal(what string, names []string, want int64) {
	held, err := queuesHeld(c.cl, names)
	if !c.unread(what, err) && held != want {
		c.fail("%s hold %d elements, want baseline+pushed−popped = %d", what, held, want)
	}
}

// queuesHeld sums the lengths of the named queues.
func queuesHeld(cl *client.Client, names []string) (int64, error) {
	var held int64
	for _, q := range names {
		n, err := cl.QueueLen(q)
		if err != nil {
			return 0, err
		}
		held += n
	}
	return held, nil
}

// casTotal: each CAS slot only ever moves by a guarded +1, so the slots
// sum to the increments the clients saw applied.
func (c *check) casTotal(applied int64) {
	var sum int64
	for i := 0; i < casSlots; i++ {
		v, ok, err := c.cl.MapGetInt(casMapName, casKey(i))
		if c.unread("cas slots", err) {
			return
		}
		if !ok {
			c.fail("cas slot %s missing", casKey(i))
		}
		sum += v
	}
	if sum != applied {
		c.fail("cas slots total %d, want %d applied increments", sum, applied)
	}
}

// fifoPrefix: one producer pushed 0, 1, 2, … into queue name, each push
// acked before the next was sent, so the queue holds 0..n−1 in order
// with n in [lo, hi]. Pops what it reads.
func (c *check) fifoPrefix(name string, lo, hi int64) {
	n, err := c.cl.QueueLen(name)
	if c.unread(name, err) {
		return
	}
	if n < lo || n > hi {
		c.fail("queue %s holds %d, outside [acked %d, attempted %d]", name, n, lo, hi)
	}
	for i := int64(0); i < n; i++ {
		raw, ok, err := c.cl.QueuePop(name)
		if c.unread(name, err) {
			return
		}
		if v, _ := server.DecodeInt64(raw); !ok || v != i {
			c.fail("queue %s pop %d = %d (found %v): FIFO prefix broken", name, i, v, ok)
			return
		}
	}
}

// meta reads one part's provisioning record from bench:meta. ok is false
// when the part was never provisioned (the record's first key is
// absent), or when the record cannot be read or is incomplete, which
// fails the check: there is no default to fall back to.
func (c *check) meta(keys ...string) (vals []int64, ok bool) {
	for i, k := range keys {
		v, found, err := c.cl.MapGetInt(metaName, k)
		if c.unread(metaName+" "+k, err) {
			return nil, false
		}
		if !found {
			if i > 0 {
				c.fail("%s holds %s but not %s", metaName, keys[0], k)
			}
			return nil, false
		}
		vals = append(vals, v)
	}
	return vals, true
}

// recovered is the whole of -recovery-check: every law whose
// provisioning record bench:meta holds, bounded by that record alone —
// no flag and no memory of the load that wrote it — so it holds across a
// kill -9, a failover and repeated loads on one data dir. Returns the
// parts whose record it found, and the units sold since checkout's
// setup.
func (c *check) recovered() (found []string, sold int64) {
	if m, ok := c.meta("map_keys"); ok {
		found = append(found, "map")
		c.mapPopulation(m[0])
	}
	if m, ok := c.meta("skus", "stock_total", "sold0", "revenue0"); ok {
		found = append(found, "checkout")
		sold = c.checkout(int(m[0]), m[1], m[2], m[3])
	}
	if m, ok := c.meta("acct_maps", "acct_per_map", "acct_total"); ok {
		found = append(found, "ledger")
		c.ledger(int(m[0]), int(m[1]), m[2])
	}
	if m, ok := c.meta("board_players", "pipe_queues", "perm_sessions", "exp_sessions"); ok {
		found = append(found, "pipeline")
		c.pipeline(m[0], int(m[1]), int(m[2]), int(m[3]))
	}
	return found, sold
}

// runRecoveryCheck (-recovery-check) checks a store a pnstmd recovered,
// or a replica it promoted, after a load ran against it.
func runRecoveryCheck(cl *client.Client) error {
	c := &check{cl: cl}
	found, _ := c.recovered()
	if len(found) == 0 && len(c.out) == 0 {
		return errors.New("recovery-check: bench:meta holds no provisioning record — was a load run against this data dir?")
	}
	return c.verdict("recovery-check ok: " + strings.Join(found, ", "))
}
