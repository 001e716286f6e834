package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// Tests of the chunked, recycled undo log (ARCHITECTURE.md D6).

// undoSeqs returns the seq of every record of tx's log in rollback order:
// chunks head-first, each chunk from its last record down.
func undoSeqs(tx *txDesc) []uint64 {
	var out []uint64
	for ch := tx.undoHead; ch != nil; ch = ch.next {
		for i := ch.n - 1; i >= 0; i-- {
			out = append(out, ch.recs[i].seq)
		}
	}
	return out
}

func reversed(s []uint64) []uint64 {
	out := slices.Clone(s)
	slices.Reverse(out)
	return out
}

// undoBursts are the write counts the tests push in one go: they straddle
// the chunk boundary from both sides and span several chunks.
var undoBursts = []int{0, 1, undoChunkLen - 1, undoChunkLen, undoChunkLen + 1, 3*undoChunkLen + 2}

// poisonUndo makes rt overwrite every released chunk with records that
// "restore" a sentinel object, and present the chunk as full. A rollback
// that walks a chunk it no longer owns therefore changes the sentinel;
// the returned check fails the test when that happened.
func poisonUndo(t *testing.T, rt *Runtime) (check func()) {
	t.Helper()
	sentinel := NewObject("clean")
	rt.undoReleaseHook = func(ch *undoChunk) {
		for i := range ch.recs {
			ch.recs[i] = undoRec{obj: sentinel, saved: Value{P: "poisoned", W: 1 << 61}, seq: 1 << 62}
		}
		ch.n = undoChunkLen
	}
	// Poison outlives the records a later owner overwrites; do not leave
	// such chunks to the tests that run next.
	t.Cleanup(func() { undoChunks = sync.Pool{New: undoChunks.New} })
	return func() {
		t.Helper()
		sentinel.mu.lock()
		got := sentinel.val
		sentinel.mu.unlock()
		if got != (Value{P: "clean"}) {
			t.Fatalf("a rollback read a record of a released chunk (sentinel = %+v)", got)
		}
	}
}

// The model: a tree of live transactions, each with the records a rollback
// of it must undo (oldest first), over objects whose model state is the
// stack of records pushed on them and not yet undone.
type modelObj struct {
	o    *Object
	val  Value
	recs []*modelRec // oldest first
}

type modelRec struct {
	obj    *modelObj
	holder *modelTx // whose log holds the record now
	saved  Value
	seq    uint64
}

type modelTx struct {
	tx       *txDesc
	parent   *modelTx
	children int // live children: the transaction is parked while > 0
	recs     []*modelRec
}

func (m *modelTx) descendsFrom(a *modelTx) bool {
	for ; m != nil; m = m.parent {
		if m == a {
			return true
		}
	}
	return false
}

// TestUndoLogAgainstModel drives random trees of push / begin-child /
// commit (splice) / rollback — including parents that keep pushing after a
// child's splice, and parallel siblings committing in any order — against a
// plain-slice reference, with released chunks poisoned. Values are boxed or
// word-carried at random, so one chunk holds records of both kinds.
func TestUndoLogAgainstModel(t *testing.T) {
	rt := newRT(t, 2)
	rt.Publisher().Pause()
	checkPoison := poisonUndo(t, rt)
	ctx := &Ctx{rt: rt, ancBase: vecOf(0), ep: 1}

	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			live  []*modelTx
			objs  []*modelObj // objects of the current root's tree
			nextV = 1
		)
		// fresh returns a value no object has held, in either representation.
		fresh := func() Value {
			nextV++
			if rng.Intn(2) == 0 {
				return Value{W: uint64(nextV)}
			}
			return Value{P: nextV}
		}
		checkLog := func(m *modelTx) {
			t.Helper()
			var want []uint64
			for i := len(m.recs) - 1; i >= 0; i-- {
				want = append(want, m.recs[i].seq)
			}
			if got := undoSeqs(m.tx); !slices.Equal(got, want) {
				t.Fatalf("seed %d: log order\n got %v\nwant %v", seed, got, want)
			}
			writes := 0
			for ch := m.tx.undoHead; ch != nil; ch = ch.next {
				writes += ch.n
				if ch.next == nil && ch != m.tx.undoTail {
					t.Fatalf("seed %d: undoTail is not the last chunk", seed)
				}
			}
			if m.tx.writes != writes || writes != len(m.recs) {
				t.Fatalf("seed %d: writes = %d, chunks hold %d, model %d", seed, m.tx.writes, writes, len(m.recs))
			}
		}
		checkObjs := func() {
			t.Helper()
			for _, mo := range objs {
				if got := PeekValue(mo.o); got != mo.val {
					t.Fatalf("seed %d: object value %+v, model %+v", seed, got, mo.val)
				}
				if got := mo.o.StackDepth(); got != len(mo.recs) {
					t.Fatalf("seed %d: stack depth %d, model %d", seed, got, len(mo.recs))
				}
			}
		}
		remove := func(m *modelTx) {
			live = slices.DeleteFunc(live, func(x *modelTx) bool { return x == m })
			if m.parent != nil {
				m.parent.children--
			} else {
				objs = nil
			}
		}
		push := func(m *modelTx) {
			// An object may be written by m only when its newest pending
			// record is held by m or an ancestor (the paper's conflict rule,
			// which is also what keeps rollback LIFO per object).
			var mo *modelObj
			if len(objs) > 0 && rng.Intn(3) == 0 {
				cand := objs[rng.Intn(len(objs))]
				if n := len(cand.recs); n == 0 || m.descendsFrom(cand.recs[n-1].holder) {
					mo = cand
				}
			}
			if mo == nil {
				mo = &modelObj{o: NewObject(nil), val: fresh()}
				SetValue(mo.o, mo.val)
				objs = append(objs, mo)
			}
			mo.o.pushEntry(ctx, m.tx)
			r := &modelRec{obj: mo, holder: m, saved: mo.val, seq: mo.o.pushSeq}
			mo.recs = append(mo.recs, r)
			m.recs = append(m.recs, r)
			mo.val = fresh()
			mo.o.val = mo.val
		}

		for step := 0; step < 300; step++ {
			if len(live) == 0 {
				live = append(live, &modelTx{tx: &txDesc{}})
			}
			m := live[rng.Intn(len(live))]
			if m.children > 0 {
				// Parked at a fork: all it can get is another sibling child.
				if rng.Intn(4) == 0 {
					m.children++
					live = append(live, &modelTx{tx: &txDesc{parent: m.tx}, parent: m})
				}
				continue
			}
			switch op := rng.Intn(10); {
			case op < 4:
				for i := undoBursts[rng.Intn(len(undoBursts))]; i > 0; i-- {
					push(m)
				}
				checkLog(m)
			case op < 7:
				m.children++
				live = append(live, &modelTx{tx: &txDesc{parent: m.tx}, parent: m})
			case op < 9 && m.parent != nil:
				m.tx.spliceInto(m.parent.tx, rt.undoReleaseHook)
				if m.tx.undoHead != nil || m.tx.undoTail != nil || m.tx.writes != 0 {
					t.Fatalf("seed %d: spliced log not emptied", seed)
				}
				for _, r := range m.recs {
					r.holder = m.parent
				}
				m.parent.recs = append(m.parent.recs, m.recs...)
				remove(m)
				checkLog(m.parent)
			case op < 9:
				// Root commit: the log dies, the values stay.
				checkLog(m)
				for _, r := range m.recs {
					r.obj.recs = nil
				}
				for _, mo := range objs {
					if got := PeekValue(mo.o); got != mo.val {
						t.Fatalf("seed %d: committed value %+v, model %+v", seed, got, mo.val)
					}
				}
				m.tx.releaseUndo(rt.undoReleaseHook)
				remove(m)
			default:
				checkLog(m)
				ctx.rollback(m.tx)
				if m.tx.undoHead != nil || m.tx.undoTail != nil || m.tx.writes != 0 {
					t.Fatalf("seed %d: rolled-back log not emptied", seed)
				}
				for i := len(m.recs) - 1; i >= 0; i-- {
					r := m.recs[i]
					if top := r.obj.recs[len(r.obj.recs)-1]; top != r {
						t.Fatalf("seed %d: model not LIFO", seed)
					}
					r.obj.recs = r.obj.recs[:len(r.obj.recs)-1]
					r.obj.val = r.saved
				}
				checkObjs()
				remove(m)
			}
			checkPoison()
		}
	}
}

// TestSpliceCopiesSmallChildLog: a parent that commits many one-record
// children keeps one chunk per undoChunkLen records, not one per child. A
// child's log that fits in the parent's head chunk is copied there and its
// chunk released on the spot; the first child that does not fit is linked.
func TestSpliceCopiesSmallChildLog(t *testing.T) {
	parent, obj := &txDesc{}, NewObject(0)
	released := 0
	hook := func(*undoChunk) { released++ }
	parent.pushUndo(obj, Value{W: 1}, 1)
	for seq := uint64(2); seq <= undoChunkLen+1; seq++ {
		child := &txDesc{parent: parent}
		child.pushUndo(obj, Value{W: seq}, seq)
		child.spliceInto(parent, hook)
		if child.undoHead != nil || child.writes != 0 {
			t.Fatalf("child %d: spliced log not emptied", seq)
		}
	}
	chunks := 0
	for ch := parent.undoHead; ch != nil; ch = ch.next {
		chunks++
	}
	if chunks != 2 || released != undoChunkLen-1 || parent.writes != undoChunkLen+1 {
		t.Fatalf("%d chunks, %d released, %d writes; want 2, %d, %d", chunks, released, parent.writes, undoChunkLen-1, undoChunkLen+1)
	}
	want := make([]uint64, 0, undoChunkLen+1)
	for seq := uint64(undoChunkLen + 1); seq >= 1; seq-- {
		want = append(want, seq)
	}
	if got := undoSeqs(parent); !slices.Equal(got, want) {
		t.Fatalf("log order\n got %v\nwant %v", got, want)
	}
}

// TestUndoRecycleSafety runs conflicting, partly failing nested trees from
// several goroutines with released chunks poisoned (run it under -race: a
// chunk reused while another log still links it is then a reported race as
// well). Every transaction moves value between accounts, so a record
// undone twice, undone by the wrong transaction or lost shows up in the
// total.
func TestUndoRecycleSafety(t *testing.T) {
	const (
		accounts = 256
		initial  = 1000
		drivers  = 4
		roots    = 60
	)
	rt := newRT(t, 4, shortWait)
	checkPoison := poisonUndo(t, rt)
	objs := make([]*Object, accounts)
	for i := range objs {
		objs[i] = NewObject(initial)
	}
	errFail := errors.New("fail")

	// transfer moves one unit along a chain of n+1 distinct accounts
	// starting at a random offset.
	transfer := func(c *Ctx, rng *rand.Rand, n int) {
		at := rng.Intn(accounts)
		for i := 0; i < n; i++ {
			from, to := objs[(at+i)%accounts], objs[(at+i+1)%accounts]
			c.Store(from, c.Load(from).(int)-1)
			c.Store(to, c.Load(to).(int)+1)
		}
	}
	budget := &attemptBudget{t: t, perRoot: 1000}
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			seeds := rand.New(rand.NewSource(int64(d) + 1))
			for r := 0; r < roots; r++ {
				// Every attempt of a transaction replays the same choices.
				rootSeed := seeds.Int63()
				budgeted := budget.root(fmt.Sprintf("driver %d, root %d", d, r))
				err := rt.Run(func(c *Ctx) {
					_ = c.Atomic(budgeted(func(c *Ctx) error {
						rng := rand.New(rand.NewSource(rootSeed))
						transfer(c, rng, undoBursts[rng.Intn(len(undoBursts))]/2)
						children := make([]func(*Ctx), 3)
						for i := range children {
							childSeed := rng.Int63()
							children[i] = func(c *Ctx) {
								_ = c.Atomic(budgeted(func(c *Ctx) error {
									rng := rand.New(rand.NewSource(childSeed))
									transfer(c, rng, undoBursts[rng.Intn(len(undoBursts))]/2)
									if rng.Intn(4) == 0 {
										return errFail // undoes this child only
									}
									return nil
								}))
							}
						}
						c.Parallel(children...)
						// The parent resumes on whatever chunk the splices
						// left at the head of its log.
						transfer(c, rng, 1+rng.Intn(3))
						if rng.Intn(4) == 0 {
							return errFail // undoes the children's merged logs too
						}
						return nil
					}))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	checkPoison()
	total := 0
	for _, o := range objs {
		total += o.Peek().(int)
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d", total, accounts*initial)
	}
}

// TestUndoReleasedChunksHoldNothing: a chunk on its way to the pool
// references neither the values its records saved nor the objects they
// named, so recycling cannot keep a committed-over value or a dropped
// object alive. The test holds on to every released chunk itself, which
// makes the outcome independent of when the pool lets go of them.
func TestUndoReleasedChunksHoldNothing(t *testing.T) {
	rt := newRT(t, 2)
	var released []*undoChunk // single driver goroutine at a time: no lock
	rt.undoReleaseHook = func(ch *undoChunk) { released = append(released, ch) }

	type big struct{ b [1 << 16]byte }
	valueGone, objectGone := make(chan struct{}), make(chan struct{})
	func() {
		kept := NewObject(nil)
		dropped := NewObject(0)
		v := &big{}
		runtime.SetFinalizer(v, func(*big) { close(valueGone) })
		runtime.SetFinalizer(dropped, func(*Object) { close(objectGone) })
		// Every store also leaves a word in the record: a recycled chunk must
		// not carry that to its next owner either.
		word := NewObject(nil)
		SetValue(word, Value{W: 1<<64 - 1})
		store := func(o *Object, val any, fail bool) {
			if err := rt.Run(func(c *Ctx) {
				_ = c.Atomic(func(c *Ctx) error {
					Access(c, word, Value{W: 1<<64 - 1}, true)
					c.Store(o, val)
					if fail {
						return errors.New("fail")
					}
					return nil
				})
			}); err != nil {
				t.Fatal(err)
			}
		}
		store(kept, v, false)   // kept now holds v
		store(kept, nil, false) // the record saved v; its log died at commit
		store(dropped, 1, false)
		store(dropped, v, true) // rolled back: the log died in rollback
	}()
	if len(released) < 4 {
		t.Fatalf("released %d chunks, want one per root", len(released))
	}
	for _, ch := range released {
		for i := range ch.recs {
			if r := &ch.recs[i]; *r != (undoRec{}) {
				t.Fatalf("released chunk keeps record %d: %+v", i, *r)
			}
		}
		if ch.next != nil {
			t.Fatal("released chunk still linked")
		}
	}
	for _, gone := range []chan struct{}{valueGone, objectGone} {
		deadline := time.After(10 * time.Second)
		for done := false; !done; {
			runtime.GC()
			select {
			case <-gone:
				done = true
			case <-deadline:
				t.Fatal("a value or object a dead undo log referenced was never collected")
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	runtime.KeepAlive(released)
}

// TestUndoAllocCeilings is the allocation gate for the write path: logging
// K undo records costs at most one chunk per undoChunkLen records (none
// when the pool has chunks), and rolling them all back costs nothing more.
// The values are pointers, so storing them allocates no interface box; the
// root package holds the same ceiling for word-backed TVar[int] stores.
func TestUndoAllocCeilings(t *testing.T) {
	const K = 10 * undoChunkLen
	const runs = 100
	rt := newRT(t, 2)
	objs := make([]*Object, K)
	for i := range objs {
		objs[i] = NewObject(nil)
	}
	val := new(int)
	errFail := errors.New("fail")
	root := func(stores int, result error) func() {
		return func() {
			if err := rt.Run(func(c *Ctx) {
				_ = c.Atomic(func(c *Ctx) error {
					for _, o := range objs[:stores] {
						c.Store(o, val)
					}
					return result
				})
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// c: what a root costs before it logs anything, plus slack for the
	// occasional conflict with the previous root's unpublished commit.
	empty := testing.AllocsPerRun(runs, root(0, nil))
	ceiling := empty + 2 + K/undoChunkLen
	if got := testing.AllocsPerRun(runs, root(K, nil)); got > ceiling {
		t.Errorf("root storing %d values: %.0f allocs, ceiling %.0f (empty root %.0f)", K, got, ceiling, empty)
	}
	if got := testing.AllocsPerRun(runs, root(K, errFail)); got > ceiling {
		t.Errorf("root storing and rolling back %d values: %.0f allocs, ceiling %.0f (empty root %.0f)", K, got, ceiling, empty)
	}
}
