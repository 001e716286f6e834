package epoch

import (
	"sync"
	"sync/atomic"

	"pnstm/internal/bitvec"
)

// chunkBits sizes mask-table chunks: 1<<chunkBits epochs per chunk
// (4096 epochs = 32 KiB per chunk).
const chunkBits = 12

const chunkLen = 1 << chunkBits

type maskChunk [chunkLen]atomic.Uint64

// maskDir is an immutable chunk directory: chunks[i] holds the masks of
// epochs [(base+i)·chunkLen, (base+i+1)·chunkLen). Chunks below base were
// left behind because the floor covers them.
type maskDir struct {
	base   int
	chunks []*maskChunk
}

// MaskTable is the global array of committed masks, one bit vector per
// epoch (paper §5: comMask[0..E]). comMask[e] holds the bitnums of
// transactions that were active at epoch e and have since committed (or
// whose bitnum was discarded at-or-before e).
//
// The paper allocates a fixed-size array of E masks and reclaims it in
// "sessions"; we grow the table on demand and reclaim it continuously. The
// publisher sets bitnum b's bit on a contiguous epoch range [1, frontier(b)]
// — every publication extends it from the old frontier — so every epoch in
// [1, floor], floor being the lowest frontier, holds every bit (D55). Get
// answers those epochs from the floor, and a directory grown past them
// leaves their chunks behind: the table holds the epochs between the floor
// and the newest publication, not the whole history. Only publisher
// goroutines write (Or, raiseFloor); any context may read (Get) without
// locking: the directory is swapped with an atomic pointer and chunks
// themselves are arrays of atomics.
type MaskTable struct {
	dir    atomic.Pointer[maskDir]
	growMu sync.Mutex // serializes directory growth among publishers

	// floor is the highest epoch up to which every mask is full; full is
	// every bitnum of the runtime's space, set before any Get.
	floor atomic.Uint64
	full  bitvec.Vec
}

// Get returns the committed mask of epoch e. Epochs beyond the allocated
// range have an empty mask, which is exactly the lazy semantics: nothing
// has been published there yet.
func (t *MaskTable) Get(e Epoch) bitvec.Vec {
	// The directory first: the floor read after it is at least the one it
	// was grown under, which covers every chunk it left behind. Epoch 0 is
	// never published.
	dir := t.dir.Load()
	if e != 0 && uint64(e) <= t.floor.Load() {
		return t.full
	}
	if dir == nil {
		return 0
	}
	idx := int(e>>chunkBits) - dir.base
	if idx < 0 || idx >= len(dir.chunks) {
		return 0
	}
	return bitvec.Vec(dir.chunks[idx][e&(chunkLen-1)].Load())
}

// Or sets the given bits in the committed mask of epoch e. Publisher-only,
// and never at or below the floor.
func (t *MaskTable) Or(e Epoch, bits bitvec.Vec) {
	idx := int(e >> chunkBits)
	dir := t.dir.Load()
	if dir == nil || idx-dir.base >= len(dir.chunks) {
		t.grow(idx)
		dir = t.dir.Load()
	}
	dir.chunks[idx-dir.base][e&(chunkLen-1)].Or(uint64(bits))
}

// OrRange sets bits in every mask of the inclusive epoch range [lo, hi].
// This is the publisher's bulk operation (paper Fig. 4, lines 5–6 and
// 11–12). It is a no-op when lo > hi.
func (t *MaskTable) OrRange(lo, hi Epoch, bits bitvec.Vec) {
	for e := lo; e <= hi; e++ {
		t.Or(e, bits)
	}
}

// grow replaces the directory with one that holds chunk idx: it starts at
// the first chunk not wholly covered by the floor and spans twice the
// chunks from there to idx. Existing chunk pointers are copied, so
// concurrent readers holding the old directory still observe every
// published mask.
func (t *MaskTable) grow(idx int) {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	old := t.dir.Load()
	if old != nil && idx-old.base < len(old.chunks) {
		return
	}
	base := int((t.floor.Load() + 1) >> chunkBits)
	next := &maskDir{base: base, chunks: make([]*maskChunk, max(2*(idx-base+1), 4))}
	for i := range next.chunks {
		if old != nil && base+i-old.base < len(old.chunks) {
			next.chunks[i] = old.chunks[base+i-old.base]
		} else {
			next.chunks[i] = new(maskChunk)
		}
	}
	t.dir.Store(next)
}

// raiseFloor records that every mask of the epochs [1, floor] is full.
// Publisher-only; the floor never moves down.
func (t *MaskTable) raiseFloor(floor Epoch) {
	for {
		cur := t.floor.Load()
		if uint64(floor) <= cur || t.floor.CompareAndSwap(cur, uint64(floor)) {
			return
		}
	}
}

// Allocated returns the number of epochs the table currently has storage
// for. Diagnostics only.
func (t *MaskTable) Allocated() int {
	dir := t.dir.Load()
	if dir == nil {
		return 0
	}
	return len(dir.chunks) * chunkLen
}
