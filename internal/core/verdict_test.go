package core

import (
	"testing"

	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

// TestVerdictTable runs admit, the one conflict verdict, on hand-built
// access stacks and reader sets. The masks are set directly under a
// paused publisher, so every row's view of what has committed is exactly
// the one it states. Bitnum 0 is the accessor's root, 1 its own bitnum,
// 2 and 3 belong to other transactions.
func TestVerdictTable(t *testing.T) {
	for _, r := range []struct {
		name        string
		masks       map[epoch.Epoch]bitvec.Vec
		stack       []objEntry
		readers     []objEntry
		anc         bitvec.Vec
		beginEp, ep epoch.Epoch
		write       bool
		granted     bool
		depth       int // live stack depth after the verdict
		nreaders    int // reader entries after the verdict
	}{
		// The entry was pushed at the first epoch of the accessor's
		// window, which is also its current one: both ends of the window
		// are inclusive.
		{name: "own top entry, write", stack: []objEntry{{anc: vecOf(0, 1), ep: 5}},
			anc: vecOf(0, 1), beginEp: 5, ep: 5, write: true, granted: true, depth: 1},
		{name: "own top entry, read", stack: []objEntry{{anc: vecOf(0, 1), ep: 5}},
			anc: vecOf(0, 1), beginEp: 5, ep: 5, granted: true, depth: 1},
		// §5.2 case 1: an earlier sibling used bitnum 1, committed and was
		// published; its entry predates the accessor's window.
		{name: "same bitnum before the window", masks: map[epoch.Epoch]bitvec.Vec{3: vecOf(1)},
			stack: []objEntry{{anc: vecOf(0, 1), ep: 3}},
			anc:   vecOf(0, 1), beginEp: 5, ep: 6, write: true, granted: true, depth: 2},
		{name: "all-dead stack is reset", masks: map[epoch.Epoch]bitvec.Vec{4: vecOf(2, 3)},
			stack: []objEntry{{anc: vecOf(2), ep: 4}, {anc: vecOf(2, 3), ep: 4}},
			anc:   vecOf(0, 1), beginEp: 5, ep: 6, write: true, granted: true, depth: 1},
		{name: "live foreign top, write", stack: []objEntry{{anc: vecOf(2), ep: 6}},
			anc: vecOf(0, 1), beginEp: 5, ep: 6, write: true, depth: 1},
		{name: "live foreign top, read", stack: []objEntry{{anc: vecOf(2), ep: 6}},
			anc: vecOf(0, 1), beginEp: 5, ep: 6, depth: 1},
		{name: "live ancestor reader, write", readers: []objEntry{{anc: vecOf(0), ep: 4}},
			anc: vecOf(0, 1), beginEp: 5, ep: 6, write: true, granted: true, depth: 1, nreaders: 1},
		{name: "live foreign reader, write", readers: []objEntry{{anc: vecOf(2), ep: 6}},
			anc: vecOf(0, 1), beginEp: 5, ep: 6, write: true, nreaders: 1},
		{name: "live foreign reader, read", readers: []objEntry{{anc: vecOf(2), ep: 6}},
			anc: vecOf(0, 1), beginEp: 5, ep: 6, granted: true, nreaders: 2},
		// The accessor's set still holds bitnum 1, which the mask of its
		// own epoch marks committed: a unilateral discard the refresh
		// (D11) erases. A live reader re-uses 1 at a later epoch. Without
		// the refresh the stale bit makes that reader look like an
		// ancestor.
		{name: "stale-bit reader, write", masks: map[epoch.Epoch]bitvec.Vec{5: vecOf(1)},
			readers: []objEntry{{anc: vecOf(1), ep: 7}},
			anc:     vecOf(0, 1), beginEp: 5, ep: 5, write: true, nreaders: 1},
	} {
		t.Run(r.name, func(t *testing.T) {
			rt := newRT(t, 2)
			rt.Publisher().Pause()
			for ep, bits := range r.masks {
				rt.st.Masks.Or(ep, bits)
			}
			o := NewObject(0)
			o.stack = append([]objEntry(nil), r.stack...)
			o.readers.entries = append([]objEntry(nil), r.readers...)
			tx := &txDesc{beginEp: r.beginEp}
			c := &Ctx{rt: rt, ep: r.ep, ancBase: r.anc, cur: tx}
			o.mu.lock()
			granted := c.admit(o, tx, r.write)
			o.mu.unlock()
			if granted != r.granted {
				t.Fatalf("admit = %v, want %v", granted, r.granted)
			}
			if d := o.StackDepth(); d != r.depth {
				t.Errorf("live stack depth %d, want %d (stack %+v)", d, r.depth, o.stack)
			}
			if n := len(o.readers.entries); n != r.nreaders {
				t.Errorf("%d reader entries, want %d (%+v)", n, r.nreaders, o.readers.entries)
			}
		})
	}
}
