package model

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestProcessIDString(t *testing.T) {
	tests := []struct {
		id   ProcessID
		want string
	}{
		{0, "p?"},
		{1, "p1"},
		{17, "p17"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("ProcessID(%d).String() = %q, want %q", int(tt.id), got, tt.want)
		}
	}
}

func TestProcessIDValid(t *testing.T) {
	tests := []struct {
		id   ProcessID
		n    int
		want bool
	}{
		{1, 3, true},
		{3, 3, true},
		{0, 3, false},
		{4, 3, false},
		{-1, 3, false},
	}
	for _, tt := range tests {
		if got := tt.id.Valid(tt.n); got != tt.want {
			t.Errorf("ProcessID(%d).Valid(%d) = %v, want %v", int(tt.id), tt.n, got, tt.want)
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(7).String(); got != "7" {
		t.Errorf("Time(7).String() = %q, want %q", got, "7")
	}
	if got := TimeNever.String(); got != "∞" {
		t.Errorf("TimeNever.String() = %q, want ∞", got)
	}
}

func TestFullSet(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{0, 0}, {1, 1}, {5, 5}, {64, 64},
	}
	for _, tt := range tests {
		s := FullSet(tt.n)
		if got := s.Count(); got != tt.want {
			t.Errorf("FullSet(%d).Count() = %d, want %d", tt.n, got, tt.want)
		}
		for i := 1; i <= tt.n; i++ {
			if !s.Has(ProcessID(i)) {
				t.Errorf("FullSet(%d) missing p%d", tt.n, i)
			}
		}
	}
}

func TestFullSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FullSet(65) did not panic")
		}
	}()
	FullSet(65)
}

func TestProcSetBasicOps(t *testing.T) {
	s := Singleton(2).Add(5).Add(7)
	if got := s.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if !s.Has(5) || s.Has(4) {
		t.Fatalf("membership wrong: %v", s)
	}
	s = s.Remove(5)
	if s.Has(5) || s.Count() != 2 {
		t.Fatalf("Remove failed: %v", s)
	}
	if got, want := s.String(), "{p2,p7}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := ProcSet(0).String(); got != "{}" {
		t.Errorf("empty String = %q, want {}", got)
	}
}

func TestProcSetAlgebra(t *testing.T) {
	a := Singleton(1).Add(2).Add(3)
	b := Singleton(3).Add(4)
	if got, want := a.Union(b), Singleton(1).Add(2).Add(3).Add(4); got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), Singleton(3); got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Minus(b), Singleton(1).Add(2); got != want {
		t.Errorf("Minus = %v, want %v", got, want)
	}
	if !Singleton(3).Subset(a) || b.Subset(a) {
		t.Error("Subset results wrong")
	}
}

func TestProcSetMembersOrdered(t *testing.T) {
	s := Singleton(9).Add(1).Add(4)
	got := s.Members()
	want := []ProcessID{1, 4, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Members = %v, want %v", got, want)
	}
}

func TestProcSetForEachEarlyStop(t *testing.T) {
	s := FullSet(10)
	var seen int
	s.ForEach(func(p ProcessID) bool {
		seen++
		return p < 3
	})
	if seen != 3 {
		t.Errorf("ForEach visited %d members, want 3 (early stop at p3)", seen)
	}
}

// Property: set algebra laws hold for arbitrary bit patterns.
func TestProcSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}

	deMorgan := func(a, b uint64) bool {
		x, y := ProcSet(a), ProcSet(b)
		u := FullSet(MaxProcs)
		return u.Minus(x.Union(y)) == u.Minus(x).Intersect(u.Minus(y))
	}
	if err := quick.Check(deMorgan, cfg); err != nil {
		t.Errorf("De Morgan law failed: %v", err)
	}

	minusDef := func(a, b uint64) bool {
		x, y := ProcSet(a), ProcSet(b)
		return x.Minus(y).Intersect(y).Empty() && x.Minus(y).Union(x.Intersect(y)) == x
	}
	if err := quick.Check(minusDef, cfg); err != nil {
		t.Errorf("Minus law failed: %v", err)
	}

	countAdd := func(a uint64, pRaw uint8) bool {
		x := ProcSet(a)
		p := ProcessID(int(pRaw)%MaxProcs + 1)
		withP := x.Add(p)
		if x.Has(p) {
			return withP.Count() == x.Count()
		}
		return withP.Count() == x.Count()+1
	}
	if err := quick.Check(countAdd, cfg); err != nil {
		t.Errorf("Count/Add law failed: %v", err)
	}
}

func TestValueSetInsertAndMin(t *testing.T) {
	s := NewValueSet(5, 3, 9, 3, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedup)", s.Len())
	}
	if !s.Equal(NewValueSet(9, 5, 3)) || s.Equal(NewValueSet(3, 5)) || s.Equal(NewValueSet(3, 5, 8)) {
		t.Error("Equal wrong")
	}
	v, ok := s.Min()
	if !ok || v != 3 {
		t.Fatalf("Min = (%d,%v), want (3,true)", v, ok)
	}
	var empty ValueSet
	if _, ok := empty.Min(); ok {
		t.Fatal("empty Min reported ok")
	}
}

func TestValueSetUnionWith(t *testing.T) {
	a := NewValueSet(1, 2).Union(NewValueSet(2, 3))
	want := []Value{1, 2, 3}
	if !reflect.DeepEqual(a.Values(), want) {
		t.Errorf("Union = %v, want %v", a.Values(), want)
	}
	if !a.Has(3) || a.Has(4) {
		t.Error("Has wrong after union")
	}
}

func TestValueSetString(t *testing.T) {
	s := NewValueSet(2, 1)
	if got := s.String(); got != "{1,2}" {
		t.Errorf("String = %q, want {1,2}", got)
	}
}

// Property: ValueSet stays sorted and deduplicated under arbitrary inserts.
func TestValueSetSortedInvariant(t *testing.T) {
	f := func(raw []int16) bool {
		var s ValueSet
		for _, r := range raw {
			s.Insert(Value(r))
		}
		vs := s.Values()
		for i := 1; i < len(vs); i++ {
			if vs[i-1] >= vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Errorf("sorted/dedup invariant failed: %v", err)
	}
}

func TestFailurePatternBasics(t *testing.T) {
	f := NewFailurePattern(4)
	if f.NumFaulty() != 0 || !f.Faulty().Empty() {
		t.Fatal("fresh pattern should be failure-free")
	}
	if err := f.SetCrash(2, 3); err != nil {
		t.Fatal(err)
	}
	if f.Alive(2, 3) {
		t.Error("p2 should be crashed at its crash time")
	}
	if !f.Alive(2, 2) {
		t.Error("p2 should be alive before its crash time")
	}
	if got := f.CrashedBy(10); got != Singleton(2) {
		t.Errorf("CrashedBy(10) = %v, want {p2}", got)
	}
	if got := f.Correct(); got != FullSet(4).Remove(2) {
		t.Errorf("Correct = %v", got)
	}
	if got := f.String(); got != "F{p2@3}" {
		t.Errorf("String = %q", got)
	}
}

func TestFailurePatternMonotonicity(t *testing.T) {
	f := NewFailurePattern(3)
	if err := f.SetCrash(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := f.SetCrash(1, 9); err == nil {
		t.Error("moving a crash later should be rejected (no recovery)")
	}
	if err := f.SetCrash(1, 2); err != nil {
		t.Errorf("tightening a crash earlier should be allowed: %v", err)
	}
	if err := f.SetCrash(7, 0); err == nil {
		t.Error("out-of-range process accepted")
	}
	if err := f.SetCrash(2, -1); err == nil {
		t.Error("negative time accepted")
	}
}

// Property: F(t) ⊆ F(t+1) for arbitrary crash assignments (the paper's
// no-recovery axiom).
func TestFailurePatternCumulative(t *testing.T) {
	f := func(crashTimes []uint8) bool {
		n := 8
		fp := NewFailurePattern(n)
		for i, ct := range crashTimes {
			if i >= n {
				break
			}
			if ct < 200 { // some processes stay correct
				_ = fp.SetCrash(ProcessID(i+1), Time(ct))
			}
		}
		for tm := Time(0); tm < 210; tm++ {
			if !fp.CrashedBy(tm).Subset(fp.CrashedBy(tm + 1)) {
				return false
			}
		}
		// Every finite crash happens by time 199, so the horizon 300
		// captures exactly Faulty(F).
		return fp.Faulty() == fp.CrashedBy(300)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Errorf("cumulative failure property failed: %v", err)
	}
}

// unionByInsert is the reference Union is held to: one Insert per element.
func unionByInsert(s, o ValueSet) ValueSet {
	out := NewValueSet(s.Values()...)
	for _, v := range o.Values() {
		out.Insert(v)
	}
	return out
}

// TestValueSetUnionWithMatchesInsert: the linear merge means what inserting
// one element at a time means, over the shapes a flood produces (empty on
// either side, subset, disjoint, interleaved, negatives, duplicates in the
// input), and only ever reads its operands.
func TestValueSetUnionWithMatchesInsert(t *testing.T) {
	check := func(t *testing.T, a, b []Value) {
		t.Helper()
		s, o := NewValueSet(a...), NewValueSet(b...)
		want, sBefore, oBefore := unionByInsert(s, o), s.Values(), o.Values()
		if u := s.Union(o); !reflect.DeepEqual(u.Values(), want.Values()) {
			t.Errorf("%v ∪ %v = %v, want %v", a, b, u, want)
		}
		if !reflect.DeepEqual(s.Values(), sBefore) || !reflect.DeepEqual(o.Values(), oBefore) {
			t.Errorf("%v ∪ %v mutated an operand: %v, %v", a, b, s, o)
		}
	}
	for _, tc := range []struct{ a, b []Value }{
		{nil, nil},
		{nil, []Value{1, 2}},
		{[]Value{1, 2}, nil},
		{[]Value{1, 2, 3}, []Value{2}},              // subset
		{[]Value{1, 2, 3}, []Value{1, 2, 3}},        // equal
		{[]Value{1, 2}, []Value{7, 9}},              // disjoint, all above
		{[]Value{7, 9}, []Value{1, 2}},              // disjoint, all below
		{[]Value{1, 5, 9}, []Value{0, 3, 5, 7, 11}}, // interleaved
		{[]Value{-4, 0, 4}, []Value{-9, -4, 2, 2, 2}},
		{[]Value{NoValue, 3}, []Value{-1, NoValue}},
	} {
		check(t, tc.a, tc.b)
	}
	f := func(a, b []int8) bool {
		av, bv := make([]Value, len(a)), make([]Value, len(b))
		for i, x := range a {
			av[i] = Value(x)
		}
		for i, x := range b {
			bv[i] = Value(x)
		}
		check(t, av, bv)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Errorf("Union vs insert reference: %v", err)
	}
}

// TestValueSetUnionAllocatesOnce: a union that adds values costs one
// allocation however many sets it merges, leaves no spare capacity and
// writes neither s nor an operand; a converged one returns s itself and
// costs nothing.
func TestValueSetUnionAllocatesOnce(t *testing.T) {
	s := NewValueSet(5)
	os := []ValueSet{NewValueSet(1, 5), NewValueSet(3, 9), NewValueSet(1, 9)}
	var u ValueSet
	if a := testing.AllocsPerRun(10, func() { u = s.Union(os...) }); a != 1 {
		t.Errorf("a growing union allocates %v times, want 1", a)
	}
	if !u.Equal(NewValueSet(1, 3, 5, 9)) || cap(u.vs) != len(u.vs) {
		t.Errorf("union = %v with capacity %d, want {1,3,5,9} with none spare", u, cap(u.vs))
	}
	if !s.Equal(NewValueSet(5)) || !os[0].Equal(NewValueSet(1, 5)) || !os[1].Equal(NewValueSet(3, 9)) {
		t.Errorf("union wrote its operands: s=%v os=%v", s, os)
	}
	var v ValueSet
	if a := testing.AllocsPerRun(10, func() { v = u.Union(os...) }); a != 0 || &v.vs[0] != &u.vs[0] {
		t.Errorf("a converged union allocates %v times or copies, want s itself", a)
	}
}

// TestValueSetUnionWithOwnsItsStorage: the union shares no backing array
// with its operand, whichever was empty — mutating one leaves the other
// alone.
func TestValueSetUnionWithOwnsItsStorage(t *testing.T) {
	for _, tc := range []struct{ a, b []Value }{
		{nil, []Value{1, 2, 3}},
		{[]Value{2}, []Value{1, 2, 3}},
		{[]Value{1, 2, 3}, []Value{2}},
		{[]Value{5}, []Value{1, 9}},
	} {
		s, o := NewValueSet(tc.a...), NewValueSet(tc.b...)
		s = s.Union(o)
		sWant, oWant := s.Values(), o.Values()
		s.Insert(-100)
		if !reflect.DeepEqual(o.Values(), oWant) {
			t.Errorf("%v ∪ %v: inserting into the result changed the argument to %v", tc.a, tc.b, o)
		}
		o.Insert(-200)
		o.Insert(2)
		if !reflect.DeepEqual(s.Values(), append([]Value{-100}, sWant...)) {
			t.Errorf("%v ∪ %v: inserting into the argument changed the result to %v", tc.a, tc.b, s)
		}
	}
}

// TestValueSetUnionWithSubsetAllocatesNothing pins the fast path flooding
// lives on once it has converged.
func TestValueSetUnionWithSubsetAllocatesNothing(t *testing.T) {
	s, o := NewValueSet(1, 2, 3, 4, 5), NewValueSet(2, 4, 5)
	if n := testing.AllocsPerRun(100, func() { s = s.Union(o) }); n != 0 {
		t.Errorf("Union with a subset allocates %v times, want 0", n)
	}
}

// TestValueSetOfSorted: strictly increasing input is adopted as it stands;
// anything else means what NewValueSet means.
func TestValueSetOfSorted(t *testing.T) {
	for _, in := range [][]Value{
		{1, 2, 3},
		{-5, 0, 7},
		{3, 1, 2},      // unsorted
		{1, 1, 2},      // duplicate
		{2, 2},         // duplicate only
		{9, -9, 9, -9}, // both
		{4},
	} {
		got := ValueSetOfSorted(append([]Value(nil), in...))
		if want := NewValueSet(in...); !reflect.DeepEqual(got, want) {
			t.Errorf("ValueSetOfSorted(%v) = %v, want %v", in, got, want)
		}
	}
	for _, empty := range [][]Value{nil, {}, make([]Value, 0, 8)} {
		if got := ValueSetOfSorted(empty); !reflect.DeepEqual(got, NewValueSet()) {
			t.Errorf("ValueSetOfSorted(empty, cap %d) = %#v, want the zero set", cap(empty), got)
		}
	}
	s := ValueSetOfSorted([]Value{1, 5, 9})
	for i, want := range []Value{1, 5, 9} {
		if s.At(i) != want {
			t.Errorf("At(%d) = %d, want %d", i, s.At(i), want)
		}
	}
}
