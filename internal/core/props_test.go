package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pnstm/internal/bitvec"
	"pnstm/internal/epoch"
)

// Property tests on the core bookkeeping structures.

// Undo splicing must preserve newest-first order and record counts across
// arbitrary child/parent interleavings: the child's records come first,
// each log newest-first within itself.
func TestUndoSpliceProperties(t *testing.T) {
	f := func(parentWrites, childWrites uint8, interleave bool) bool {
		parent := &txDesc{}
		child := &txDesc{parent: parent}
		obj := NewObject(0)
		seq := uint64(1)
		var parentSeqs, childSeqs []uint64 // oldest first

		push := func(tx *txDesc, seqs *[]uint64) {
			tx.pushUndo(obj, Value{P: int(seq), W: seq}, seq)
			*seqs = append(*seqs, seq)
			seq++
		}
		// Up to 2N+1 records each, so logs of zero, one and several chunks
		// meet in every combination.
		pw, cw := int(parentWrites)%(2*undoChunkLen+2), int(childWrites)%(2*undoChunkLen+2)
		if interleave {
			for i := 0; i < pw || i < cw; i++ {
				if i < pw {
					push(parent, &parentSeqs)
				}
				if i < cw {
					push(child, &childSeqs)
				}
			}
		} else {
			for i := 0; i < pw; i++ {
				push(parent, &parentSeqs)
			}
			for i := 0; i < cw; i++ {
				push(child, &childSeqs)
			}
		}
		child.spliceInto(parent, nil)
		if child.undoHead != nil || child.undoTail != nil || child.writes != 0 {
			return false
		}
		want := append(reversed(childSeqs), reversed(parentSeqs)...)
		return slices.Equal(undoSeqs(parent), want) && parent.writes == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// comNote bookkeeping: at most one live note per bitnum; cleaning drops
// exactly the published notes; merging is idempotent.
func TestComNoteProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 500; round++ {
		var notes []comNote
		used := map[bitvec.Bitnum]bool{}
		for i := 0; i < rng.Intn(10); i++ {
			n := comNote{bn: bitvec.Bitnum(rng.Intn(8)), ep: epoch.Epoch(rng.Intn(50))}
			notes = addNote(notes, n)
			used[n.bn] = true
		}
		// One note per bitnum.
		seen := map[bitvec.Bitnum]bool{}
		for _, n := range notes {
			if seen[n.bn] {
				t.Fatalf("duplicate note for %v: %+v", n.bn, notes)
			}
			seen[n.bn] = true
		}
		if len(notes) > len(used) {
			t.Fatalf("more notes than bitnums: %+v", notes)
		}
		// Merging a clone into itself changes nothing.
		merged := mergeNotes(append([]comNote(nil), notes...), notes)
		if len(merged) != len(notes) {
			t.Fatalf("self-merge changed size: %d != %d", len(merged), len(notes))
		}
	}
}

// cleanNotes drops exactly the notes whose bitnum is published at the note
// epoch.
func TestCleanNotesAgainstMasks(t *testing.T) {
	rt := newRT(t, 2)
	rt.Publisher().Pause()
	st := rt.st
	st.Masks.Or(5, vecOf(1))
	st.Masks.Or(9, vecOf(2))
	notes := []comNote{
		{bn: 1, ep: 5}, // published → dropped
		{bn: 1, ep: 6}, // not published at 6 → kept
		{bn: 2, ep: 9}, // published → dropped
		{bn: 3, ep: 5}, // bn 3 never published → kept
	}
	out := rt.cleanNotes(notes)
	if len(out) != 2 || out[0].ep != 6 || out[1].bn != 3 {
		t.Fatalf("cleanNotes = %+v", out)
	}
}

// Reader-set bookkeeping: recordReader refreshes within a transaction
// window and appends otherwise; retract removes exactly one entry.
func TestReaderSetProperties(t *testing.T) {
	var rs readerSet
	anc := vecOf(0, 3)
	if !rs.recordReader(anc, 1, 5) {
		t.Fatal("first record must append")
	}
	if rs.recordReader(anc, 1, 7) {
		t.Fatal("same window must refresh, not append")
	}
	if len(rs.entries) != 1 || rs.entries[0].ep != 7 {
		t.Fatalf("entries = %+v", rs.entries)
	}
	// A later transaction with the same ancestor set (sequential sibling)
	// has a window beyond the entry's epoch → appends.
	if !rs.recordReader(anc, 10, 12) {
		t.Fatal("new window must append")
	}
	if len(rs.entries) != 2 {
		t.Fatalf("entries = %+v", rs.entries)
	}
	rs.retract(anc, 12)
	if len(rs.entries) != 1 {
		t.Fatalf("retract failed: %+v", rs.entries)
	}
	rs.retract(anc, 5) // matches the refreshed (ep=7) entry
	if len(rs.entries) != 0 {
		t.Fatalf("retract failed: %+v", rs.entries)
	}
	rs.retract(anc, 5) // no-op on empty
}

// Rollback with out-of-order records (the D16 interleaving) must restore
// the oldest saved value and remove exactly the recorded entries.
func TestRollbackOrderRobustness(t *testing.T) {
	rt := newRT(t, 2)
	_ = rt
	o := NewObject("v0")
	tx := &txDesc{}
	// Simulate: entry seq 1 (saved v0), then seq 2 (saved v1), but the
	// records arrive in splice order [older, newer] — i.e. the log's newest
	// record is the OLDER entry's, as can happen after a merged victim's abort
	// splice races a sibling's commit splice.
	o.stack = append(o.stack,
		objEntry{anc: vecOf(0), ep: 1, seq: 1},
		objEntry{anc: vecOf(0, 1), ep: 2, seq: 2},
	)
	o.pushSeq = 2
	o.val = Value{P: "v2", W: 2}
	// Build the log with seq 1 newest (older entry first — the adversarial
	// order).
	tx.pushUndo(o, Value{P: "v1", W: 1}, 2) // older in the log
	tx.pushUndo(o, Value{P: "v0"}, 1)       // newest in the log: rolled back first
	ctx := &Ctx{rt: rt}
	ctx.rollback(tx)
	if got := PeekValue(o); got != (Value{P: "v0"}) {
		t.Fatalf("rollback restored %+v, want {v0 0}", got)
	}
	if o.StackDepth() != 0 {
		t.Fatalf("stack depth = %d", o.StackDepth())
	}
}

// Randomized rollback property: push k entries with shuffled record order;
// rollback must always restore the first saved value and empty the stack.
func TestRollbackShuffledRecordsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rt := newRT(t, 2)
	for round := 0; round < 200; round++ {
		o := NewObject(nil)
		k := 1 + rng.Intn(2*undoChunkLen+2) // up to three chunks of records
		type rec struct {
			seq   uint64
			saved Value
		}
		recs := make([]rec, k)
		for i := 0; i < k; i++ {
			seq := uint64(i + 1)
			o.stack = append(o.stack, objEntry{anc: vecOf(0), ep: epoch.Epoch(i), seq: seq})
			// The value before push i was i: boxed in even rounds, in the
			// word in odd ones.
			if recs[i] = (rec{seq: seq, saved: Value{P: i}}); round%2 == 1 {
				recs[i].saved = Value{W: uint64(i)}
			}
		}
		o.pushSeq = uint64(k)
		o.val = Value{P: k, W: uint64(k)}
		rng.Shuffle(k, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		tx := &txDesc{}
		for i := k - 1; i >= 0; i-- { // last pushed is rolled back first: rollback order = recs order
			tx.pushUndo(o, recs[i].saved, recs[i].seq)
		}
		ctx := &Ctx{rt: rt}
		ctx.rollback(tx)
		if got, want := PeekValue(o), []Value{{P: 0}, {W: 0}}[round%2]; got != want {
			t.Fatalf("round %d: restored %+v, want %+v (recs %+v)", round, got, want, recs)
		}
		if o.StackDepth() != 0 {
			t.Fatalf("round %d: stack depth %d", round, o.StackDepth())
		}
	}
}
