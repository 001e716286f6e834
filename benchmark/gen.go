package main

import (
	"encoding/binary"
	"fmt"
)

// Operation kinds. One workload mixes at most two of them.
const (
	opRoot      uint8 = iota + 1 // core-nest: one root transaction, Tag marks its writes
	opGet                        // point-mem: MapGet keys[A]
	opPut                        // point-mem: MapPut keys[A] = value(A, Tag)
	opTransfer                   // txn-durable: move 1 from accts[A] to accts[B]
	opScan                       // scan-mem: RangeScan [keys[A], keys[A+scanSpan)) limit scanLimit
	opSortedPut                  // scan-mem: SortedPut keys[A] = value(A, Tag)
)

func opName(kind uint8) string {
	switch kind {
	case opRoot:
		return "root"
	case opGet:
		return "map_get"
	case opPut:
		return "map_put"
	case opTransfer:
		return "transfer"
	case opScan:
		return "range_scan"
	case opSortedPut:
		return "sorted_put"
	}
	return "unknown"
}

// Dataset shape (ISSUE 12). The store has no cache of its own, so the
// working-set knob is keys per map bucket: 16,384 keys over the default
// 64 buckets is 256 per bucket, which sets Put's bucket-clone cost.
const (
	valueLen    = 64
	numKeys     = 16384
	numAccounts = 4096
	startBal    = int64(1) << 40
	scanSpan    = 256
	scanLimit   = 64
	numTails    = 256
	keyNameLen  = 8 // "k%07d"
	acctNameLen = 5 // "a%04d"

	coreLeaves  = 16
	coreDepth   = 3
	coreObjects = 200 // written per leaf, half shared with each neighbour
)

// op is one generated operation; which fields matter depends on Kind.
type op struct {
	Kind uint8
	A, B uint32
	Tag  uint32
}

// rng is splitmix64: a dozen lines we own, so that a seed names the same
// op stream on every Go release (math/rand makes no such promise for its
// derived helpers).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws from [0, n). The modulo bias is below 2^-40 for every n used
// here.
func (r *rng) intn(n int) uint32 { return uint32(r.next() % uint64(n)) }

// laneRNG derives an independent generator for one (seed, workload, lane)
// so that a caller's stream does not depend on how many ops any other
// caller has drawn, i.e. not on scheduling.
func laneRNG(seed int64, workload string, lane int) *rng {
	r := &rng{s: uint64(seed)}
	for _, b := range []byte(workload) {
		r.s = r.next() ^ uint64(b)
	}
	r.s = r.next() ^ uint64(lane)
	r.next()
	return r
}

// genLane generates n ops of one lane of a workload.
func genLane(workload string, seed int64, lane, n int) []op {
	r := laneRNG(seed, workload, lane)
	ops := make([]op, n)
	for i := range ops {
		switch workload {
		case "core-nest":
			ops[i] = op{Kind: opRoot, Tag: 1 + r.intn(1<<24)}
		case "point-mem":
			k := r.intn(numKeys)
			if r.intn(10) == 0 {
				ops[i] = op{Kind: opPut, A: k, Tag: r.intn(numTails)}
			} else {
				ops[i] = op{Kind: opGet, A: k}
			}
		case "txn-durable":
			from := r.intn(numAccounts)
			to := r.intn(numAccounts - 1)
			if to >= from {
				to++
			}
			ops[i] = op{Kind: opTransfer, A: from, B: to}
		case "scan-mem":
			if r.intn(10) < 7 {
				ops[i] = op{Kind: opScan, A: r.intn(numKeys - scanSpan + 1)}
			} else {
				ops[i] = op{Kind: opSortedPut, A: r.intn(numKeys), Tag: r.intn(numTails)}
			}
		default:
			panic("benchmark: unknown workload " + workload)
		}
	}
	return ops
}

// Lane numbering: measured lanes are 0..lanes-1; the warm-up draws from
// lanes warmLaneBase.. so that it never replays the measured stream.
const warmLaneBase = 1 << 10

// genLanes generates the per-caller streams of one phase: total ops split
// evenly over the lanes (total is rounded down to a multiple of lanes).
func genLanes(workload string, seed int64, laneBase, lanes, total int) [][]op {
	out := make([][]op, lanes)
	for l := range out {
		out[l] = genLane(workload, seed, laneBase+l, total/lanes)
	}
	return out
}

// dataset is the fixed part of the inputs: key names and value bytes.
// Keys sort lexicographically in index order, so keys[i+scanSpan] bounds
// a scan of exactly scanSpan keys; the table has one name past the last
// key for the top range's upper bound.
type dataset struct {
	keys  []string
	accts []string
	tails [numTails][valueLen - 4]byte
}

func newDataset(seed int64) *dataset {
	d := &dataset{
		keys:  make([]string, numKeys+1),
		accts: make([]string, numAccounts),
	}
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("k%07d", i)
	}
	for i := range d.accts {
		d.accts[i] = fmt.Sprintf("a%04d", i)
	}
	r := laneRNG(seed, "values", 0)
	for t := range d.tails {
		for j := 0; j < len(d.tails[t]); j += 4 {
			binary.BigEndian.PutUint32(d.tails[t][j:], uint32(r.next()))
		}
	}
	return d
}

// fillValue writes the valueLen-byte value of (key index, tag) into buf:
// the key's index, so a reader can tell the value belongs to the key it
// asked for, then the tag's random tail.
func (d *dataset) fillValue(buf []byte, key, tag uint32) {
	binary.BigEndian.PutUint32(buf, key)
	copy(buf[4:valueLen], d.tails[tag][:])
}
