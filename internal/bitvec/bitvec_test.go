package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitnumValid(t *testing.T) {
	for b := Bitnum(0); b < Word; b++ {
		if !b.Valid() {
			t.Fatalf("bitnum %d should be valid", b)
		}
	}
	if None.Valid() {
		t.Fatal("None must not be valid")
	}
	if Bitnum(65).Valid() {
		t.Fatal("65 must not be valid")
	}
}

func TestBitPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bit() on None should panic")
		}
	}()
	_ = None.Bit()
}

func TestAddRemoveHas(t *testing.T) {
	var v Vec
	for b := Bitnum(0); b < Word; b++ {
		if v.Has(b) {
			t.Fatalf("empty vec has %v", b)
		}
		v = v.Add(b)
		if !v.Has(b) {
			t.Fatalf("vec missing %v after Add", b)
		}
	}
	if v.Count() != Word {
		t.Fatalf("count = %d, want %d", v.Count(), Word)
	}
	for b := Bitnum(0); b < Word; b++ {
		v = v.Remove(b)
		if v.Has(b) {
			t.Fatalf("vec still has %v after Remove", b)
		}
	}
	if !v.Empty() {
		t.Fatalf("vec not empty after removing all: %v", v)
	}
}

func TestHasInvalidBitnum(t *testing.T) {
	v := Of(0, 63)
	if v.Has(None) {
		t.Fatal("Has(None) must be false")
	}
}

func TestSubsetOfBasics(t *testing.T) {
	cases := []struct {
		a, b Vec
		want bool
	}{
		{0, 0, true},
		{0, Of(3), true},
		{Of(3), 0, false},
		{Of(3), Of(3), true},
		{Of(1, 2), Of(1, 2, 9), true},
		{Of(1, 2, 9), Of(1, 2), false},
		{Of(63), Of(63, 0), true},
		{Of(0), Of(63), false},
	}
	for _, c := range cases {
		if got := c.a.SubsetOf(c.b); got != c.want {
			t.Errorf("SubsetOf(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// oracle-based property: the paper's two-op subset test must agree with a
// naive per-bit check for arbitrary vectors.
func TestSubsetOfMatchesOracle(t *testing.T) {
	oracle := func(a, b Vec) bool {
		for bn := Bitnum(0); bn < Word; bn++ {
			if a.Has(bn) && !b.Has(bn) {
				return false
			}
		}
		return true
	}
	f := func(a, b uint64) bool {
		return Vec(a).SubsetOf(Vec(b)) == oracle(Vec(a), Vec(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	// Reflexivity.
	if err := quick.Check(func(a uint64) bool {
		return Vec(a).SubsetOf(Vec(a))
	}, cfg); err != nil {
		t.Error("reflexivity:", err)
	}
	// Antisymmetry: a⊆b ∧ b⊆a ⇒ a==b.
	if err := quick.Check(func(a, b uint64) bool {
		if Vec(a).SubsetOf(Vec(b)) && Vec(b).SubsetOf(Vec(a)) {
			return a == b
		}
		return true
	}, cfg); err != nil {
		t.Error("antisymmetry:", err)
	}
	// Transitivity via union: a ⊆ a∪b always.
	if err := quick.Check(func(a, b uint64) bool {
		return Vec(a).SubsetOf(Vec(a).Union(Vec(b)))
	}, cfg); err != nil {
		t.Error("a ⊆ a∪b:", err)
	}
	// Minus removes: (a−b) ∩ b == ∅.
	if err := quick.Check(func(a, b uint64) bool {
		return Vec(a).Minus(Vec(b)).Intersect(Vec(b)).Empty()
	}, cfg); err != nil {
		t.Error("minus:", err)
	}
}

func TestMinusUnionIntersect(t *testing.T) {
	a, b := Of(1, 5, 9), Of(5, 10)
	if got := a.Minus(b); got != Of(1, 9) {
		t.Errorf("Minus = %v", got)
	}
	if got := a.Union(b); got != Of(1, 5, 9, 10) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != Of(5) {
		t.Errorf("Intersect = %v", got)
	}
}

func TestForEachOrderAndSlice(t *testing.T) {
	v := Of(63, 0, 17)
	got := v.Slice()
	want := []Bitnum{0, 17, 63}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	if s := Vec(0).String(); s != "{}" {
		t.Errorf("empty String = %q", s)
	}
	if s := Of(2, 40).String(); s != "{2,40}" {
		t.Errorf("String = %q", s)
	}
	if s := Bitnum(3).String(); s != "bn(3)" {
		t.Errorf("Bitnum String = %q", s)
	}
	if s := None.String(); s != "bn(none)" {
		t.Errorf("None String = %q", s)
	}
}

// The ancestor test is the hot path; make sure it stays allocation-free.
func TestSubsetNoAllocs(t *testing.T) {
	a, b := Of(1, 2, 3), Of(1, 2, 3, 4)
	allocs := testing.AllocsPerRun(100, func() {
		if !a.SubsetOf(b) {
			t.Fatal("subset expected")
		}
	})
	if allocs != 0 {
		t.Fatalf("SubsetOf allocates: %v allocs/op", allocs)
	}
}

func TestRandomSetAlgebraAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	set := map[Bitnum]bool{}
	var v Vec
	for i := 0; i < 20000; i++ {
		b := Bitnum(rng.Intn(Word))
		switch rng.Intn(3) {
		case 0:
			set[b] = true
			v = v.Add(b)
		case 1:
			delete(set, b)
			v = v.Remove(b)
		case 2:
			if v.Has(b) != set[b] {
				t.Fatalf("step %d: Has(%v)=%v oracle=%v", i, b, v.Has(b), set[b])
			}
		}
		if v.Count() != len(set) {
			t.Fatalf("step %d: Count=%d oracle=%d", i, v.Count(), len(set))
		}
	}
}

func BenchmarkSubsetOf(b *testing.B) {
	x, y := Of(1, 5, 9, 33), Of(1, 5, 9, 33, 40)
	sink := false
	for i := 0; i < b.N; i++ {
		sink = x.SubsetOf(y)
	}
	_ = sink
}
