// Package model defines the fundamental vocabulary shared by every other
// package in this repository: process identifiers and sets, discrete time,
// decision values and failure patterns. Failure-detector histories are
// package fd's.
//
// The definitions follow Section 2 of Charron-Bost, Guerraoui and Schiper,
// "Synchronous System and Perfect Failure Detector: solvability and
// efficiency issues" (DSN 2000). A distributed system consists of n
// processes Π = {p1, ..., pn} connected pairwise by reliable channels.
// Processes fail only by crashing and never recover. A discrete global
// clock (to which processes have no access) indexes events.
package model

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxProcs is the largest system size supported by ProcSet's bitset
// representation. All experiments in the paper involve a handful of
// processes; 64 leaves ample headroom while keeping set operations O(1).
const MaxProcs = 64

// ProcessID identifies a process. IDs are 1-based, matching the paper's
// p1..pn convention; 0 is reserved as the invalid/zero value.
type ProcessID int

// Valid reports whether id denotes a real process in a system of n processes.
func (id ProcessID) Valid(n int) bool { return id >= 1 && int(id) <= n }

// String renders the identifier in the paper's notation, e.g. "p3".
func (id ProcessID) String() string {
	if id == 0 {
		return "p?"
	}
	return fmt.Sprintf("p%d", int(id))
}

// Time is a tick of the discrete global clock T. Processes never observe it
// directly; it exists to index failure patterns (and package fd's
// failure-detector histories).
type Time int

// TimeNever is a sentinel meaning "does not happen" (e.g. a process that
// never crashes). It compares greater than every real Time.
const TimeNever Time = 1<<31 - 1

// String renders a Time, using "∞" for TimeNever.
func (t Time) String() string {
	if t == TimeNever {
		return "∞"
	}
	return fmt.Sprintf("%d", int(t))
}

// Value is a decision value drawn from the totally ordered value set V of
// the uniform consensus specification. The ordering is the natural integer
// ordering.
type Value int64

// NoValue is a conventional placeholder used by callers that need an
// explicit "unknown" marker alongside a decided flag; the type itself does
// not reserve it.
const NoValue Value = -1 << 62

// ProcSet is a subset of Π represented as a bitset. Bit i-1 corresponds to
// process p_i. The zero value is the empty set.
type ProcSet uint64

// FullSet returns the set {p1, ..., pn}.
func FullSet(n int) ProcSet {
	if n < 0 || n > MaxProcs {
		panic(fmt.Sprintf("model: FullSet(%d) out of range [0,%d]", n, MaxProcs))
	}
	if n == MaxProcs {
		return ^ProcSet(0)
	}
	return ProcSet(1)<<uint(n) - 1
}

// Singleton returns the set {p}.
func Singleton(p ProcessID) ProcSet { return ProcSet(1) << uint(p-1) }

// NewProcSet returns the set of the given processes.
func NewProcSet(ids ...ProcessID) ProcSet {
	var s ProcSet
	for _, p := range ids {
		s = s.Add(p)
	}
	return s
}

// Has reports whether p is a member of s.
func (s ProcSet) Has(p ProcessID) bool {
	if p < 1 || p > MaxProcs {
		return false
	}
	return s&Singleton(p) != 0
}

// Add returns s ∪ {p}.
func (s ProcSet) Add(p ProcessID) ProcSet { return s | Singleton(p) }

// Remove returns s \ {p}.
func (s ProcSet) Remove(p ProcessID) ProcSet { return s &^ Singleton(p) }

// Union returns s ∪ o.
func (s ProcSet) Union(o ProcSet) ProcSet { return s | o }

// Intersect returns s ∩ o.
func (s ProcSet) Intersect(o ProcSet) ProcSet { return s & o }

// Minus returns s \ o.
func (s ProcSet) Minus(o ProcSet) ProcSet { return s &^ o }

// Count returns |s|.
func (s ProcSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether s is the empty set.
func (s ProcSet) Empty() bool { return s == 0 }

// Subset reports whether s ⊆ o.
func (s ProcSet) Subset(o ProcSet) bool { return s&^o == 0 }

// Members returns the elements of s in increasing order.
func (s ProcSet) Members() []ProcessID {
	out := make([]ProcessID, 0, s.Count())
	for v := uint64(s); v != 0; {
		i := bits.TrailingZeros64(v)
		out = append(out, ProcessID(i+1))
		v &^= 1 << uint(i)
	}
	return out
}

// ForEach invokes fn for each member of s in increasing order, stopping
// early if fn returns false.
func (s ProcSet) ForEach(fn func(ProcessID) bool) {
	for v := uint64(s); v != 0; {
		i := bits.TrailingZeros64(v)
		if !fn(ProcessID(i + 1)) {
			return
		}
		v &^= 1 << uint(i)
	}
}

// String renders the set in the paper's notation, e.g. "{p1,p3}".
func (s ProcSet) String() string {
	if s.Empty() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(p ProcessID) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(p.String())
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// ValueSet is a finite subset of the value set V, used by flooding
// algorithms that accumulate every value ever seen (the W variable of
// FloodSet). It is kept sorted and deduplicated.
type ValueSet struct {
	vs []Value
}

// NewValueSet returns the set containing exactly the given values.
func NewValueSet(vals ...Value) ValueSet {
	var s ValueSet
	for _, v := range vals {
		s.Insert(v)
	}
	return s
}

// ValueSetOfSorted returns the set containing exactly the given values,
// adopting vals as the set's storage when it is already strictly increasing
// (the caller surrenders the slice). Unsorted or duplicate input is rebuilt
// through NewValueSet; empty input is the zero set.
func ValueSetOfSorted(vals []Value) ValueSet {
	if len(vals) == 0 {
		return ValueSet{}
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1] >= vals[i] {
			return NewValueSet(vals...)
		}
	}
	return ValueSet{vs: vals}
}

// Insert adds v to the set, writing its storage in place: use it only while
// building a set no message shares yet.
func (s *ValueSet) Insert(v Value) {
	i := sort.Search(len(s.vs), func(i int) bool { return s.vs[i] >= v })
	if i < len(s.vs) && s.vs[i] == v {
		return
	}
	s.vs = append(s.vs, 0)
	copy(s.vs[i+1:], s.vs[i:])
	s.vs[i] = v
}

// Union returns s ∪ o₁ ∪ … ∪ oₖ. It only reads its operands — a set a
// message shares stays as it was sent — and never shares the result's
// storage with any oᵢ. When every oᵢ ⊆ s (flooding has converged) it
// returns s itself and allocates nothing; otherwise it counts the values s
// lacks first and builds the union in one allocation with no spare capacity.
func (s ValueSet) Union(os ...ValueSet) ValueSet {
	grow := 0
	for _, o := range os {
		grow += missing(s.vs, o.vs)
	}
	if grow == 0 {
		return s
	}
	// grow over-counts a value several oᵢ lack alike: the buffer only has to
	// be large enough, since every merge below stays inside it.
	out := append(make([]Value, 0, len(s.vs)+grow), s.vs...)
	for _, o := range os {
		out = mergeInto(out, o.vs)
	}
	return ValueSet{vs: out[:len(out):len(out)]}
}

// missing counts the elements of b that a lacks (both sorted).
func missing(a, b []Value) int {
	n, i := 0, 0
	for _, v := range b {
		for i < len(a) && a[i] < v {
			i++
		}
		if i == len(a) || a[i] != v {
			n++
		}
	}
	return n
}

// mergeInto merges b into a, whose spare capacity must hold the values it
// lacks: one linear merge from the back, so every element moves at most
// once.
func mergeInto(a, b []Value) []Value {
	m := missing(a, b)
	if m == 0 {
		return a
	}
	i := len(a) - 1
	a = a[:len(a)+m]
	k := len(a) - 1
	for j := len(b) - 1; j >= 0; k-- {
		switch {
		case i >= 0 && a[i] > b[j]:
			a[k] = a[i]
			i--
		case i >= 0 && a[i] == b[j]:
			a[k] = a[i]
			i--
			j--
		default:
			a[k] = b[j]
			j--
		}
	}
	return a
}

// Has reports whether v is a member.
func (s ValueSet) Has(v Value) bool {
	i := sort.Search(len(s.vs), func(i int) bool { return s.vs[i] >= v })
	return i < len(s.vs) && s.vs[i] == v
}

// Min returns the minimum element; ok is false when the set is empty.
// FloodSet's decision rule is decision := min(W).
func (s ValueSet) Min() (v Value, ok bool) {
	if len(s.vs) == 0 {
		return 0, false
	}
	return s.vs[0], true
}

// Len returns the cardinality of the set.
func (s ValueSet) Len() int { return len(s.vs) }

// At returns the i-th smallest element, 0 ≤ i < Len(): iteration without the
// copy Values makes.
func (s ValueSet) At(i int) Value { return s.vs[i] }

// Values returns the elements in increasing order. The slice is a copy.
func (s ValueSet) Values() []Value {
	out := make([]Value, len(s.vs))
	copy(out, s.vs)
	return out
}

// Equal reports whether two sets contain exactly the same elements.
func (s ValueSet) Equal(o ValueSet) bool {
	if len(s.vs) != len(o.vs) {
		return false
	}
	for i := range s.vs {
		if s.vs[i] != o.vs[i] {
			return false
		}
	}
	return true
}

// String renders the set, e.g. "{0,1}".
func (s ValueSet) String() string {
	parts := make([]string, len(s.vs))
	for i, v := range s.vs {
		parts[i] = fmt.Sprintf("%d", int64(v))
	}
	return "{" + strings.Join(parts, ",") + "}"
}
