package model

import (
	"fmt"
	"sort"
	"strings"
)

// FailurePattern records which processes crash and when, following the
// paper's definition: a failure pattern F is a function from T to 2^Π where
// F(t) is the set of processes that have crashed by time t. Crashes are
// permanent (F(t) ⊆ F(t+1)), which lets us represent F compactly by the
// crash instant of each process.
//
// Two clocks appear in this repository: the step-level global clock of the
// asynchronous/SS/SP models, and the round counter of the RS/RWS round
// models. FailurePattern serves both — Time is interpreted as a step index
// or as a round number by the respective engine.
type FailurePattern struct {
	n       int
	crashAt []Time // index i-1 holds p_i's crash time, TimeNever if correct
}

// NewFailurePattern returns the failure-free pattern over n processes.
func NewFailurePattern(n int) *FailurePattern {
	if n < 1 || n > MaxProcs {
		panic(fmt.Sprintf("model: NewFailurePattern(%d) out of range [1,%d]", n, MaxProcs))
	}
	crashAt := make([]Time, n)
	for i := range crashAt {
		crashAt[i] = TimeNever
	}
	return &FailurePattern{n: n, crashAt: crashAt}
}

// N returns the number of processes in the system.
func (f *FailurePattern) N() int { return f.n }

// SetCrash marks p as crashing at time t. Re-crashing a process at a later
// time than already recorded is rejected, matching the no-recovery
// assumption; tightening the crash to an earlier time is allowed.
func (f *FailurePattern) SetCrash(p ProcessID, t Time) error {
	if !p.Valid(f.n) {
		return fmt.Errorf("model: SetCrash: %v not in a %d-process system", p, f.n)
	}
	if t < 0 {
		return fmt.Errorf("model: SetCrash(%v, %v): negative time", p, t)
	}
	if cur := f.crashAt[p-1]; cur != TimeNever && t > cur {
		return fmt.Errorf("model: SetCrash(%v, %v): already crashed at %v and processes do not recover", p, t, cur)
	}
	f.crashAt[p-1] = t
	return nil
}

// CrashTime returns the instant at which p crashes (TimeNever for a correct
// process).
func (f *FailurePattern) CrashTime(p ProcessID) Time {
	if !p.Valid(f.n) {
		return TimeNever
	}
	return f.crashAt[p-1]
}

// Alive reports whether p is alive at time t, i.e. p ∉ F(t).
func (f *FailurePattern) Alive(p ProcessID, t Time) bool {
	return p.Valid(f.n) && f.crashAt[p-1] > t
}

// Faulty returns Faulty(F) = ∪_t F(t): the processes that crash at some time.
func (f *FailurePattern) Faulty() ProcSet {
	var s ProcSet
	for i, ct := range f.crashAt {
		if ct != TimeNever {
			s = s.Add(ProcessID(i + 1))
		}
	}
	return s
}

// Correct returns Correct(F) = Π \ Faulty(F).
func (f *FailurePattern) Correct() ProcSet {
	return FullSet(f.n).Minus(f.Faulty())
}

// NumFaulty returns |Faulty(F)|.
func (f *FailurePattern) NumFaulty() int { return f.Faulty().Count() }

// String renders the pattern, e.g. "F{p2@3}" (p2 crashes at time 3), or
// "F{}" when failure-free.
func (f *FailurePattern) String() string {
	type entry struct {
		p ProcessID
		t Time
	}
	var entries []entry
	for i, ct := range f.crashAt {
		if ct != TimeNever {
			entries = append(entries, entry{ProcessID(i + 1), ct})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].t != entries[b].t {
			return entries[a].t < entries[b].t
		}
		return entries[a].p < entries[b].p
	})
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = fmt.Sprintf("%v@%v", e.p, e.t)
	}
	return "F{" + strings.Join(parts, ",") + "}"
}
