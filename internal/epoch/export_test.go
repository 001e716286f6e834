package epoch

import "pnstm/internal/bitvec"

// Allocated returns the number of epochs the table currently has storage
// for.
func (t *MaskTable) Allocated() int {
	dir := t.dir.Load()
	if dir == nil {
		return 0
	}
	return len(dir.chunks) * chunkLen
}

// Frontier returns the publication frontier of bn.
func (p *Publisher) Frontier(bn bitvec.Bitnum) Epoch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastInMask[bn]
}

// vecOf builds a vector from the given bitnums.
func vecOf(bs ...bitvec.Bitnum) bitvec.Vec {
	var v bitvec.Vec
	for _, b := range bs {
		v = v.Add(b)
	}
	return v
}
