// Package fd implements the failure-detector framework of the paper's
// Section 2.5, following Chandra and Toueg: a failure detector D maps each
// failure pattern F to a set of histories H, where H(p,t) is the set of
// processes p suspects at time t. Detector classes are defined by
// completeness and accuracy axioms:
//
//   - Strong completeness: eventually every crashed process is permanently
//     suspected by every correct process.
//   - Weak completeness: eventually every crashed process is permanently
//     suspected by some correct process.
//   - Strong accuracy: no process is suspected before it crashes.
//   - Weak accuracy: some correct process is never suspected.
//   - Eventual strong accuracy: there is a time after which no correct
//     process is suspected by any correct process.
//   - Eventual weak accuracy: there is a time after which some correct
//     process is never suspected by any correct process.
//
// The classes of the hierarchy combine one completeness with one accuracy:
// P (perfect) = strong completeness + strong accuracy; ◇P = strong
// completeness + eventual strong accuracy; S = strong completeness + weak
// accuracy; ◇S = strong completeness + eventual weak accuracy; Q/W/◇Q/◇W
// take weak completeness instead.
//
// The weaker classes revoke suspicions, so a history (History) is a set of
// suspicion intervals per pair; a perfect detector's monotone suspicion is
// one interval that never ends. Generators produce adversarial histories of
// each class from a failure pattern; checkers verify the axioms over a
// finite horizon (the liveness axioms are read as "…by the horizon and
// stable thereafter", which is exact for the generators here).
package fd

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/model"
)

// Class identifies a Chandra-Toueg failure detector class.
type Class int

// The eight classes of the hierarchy.
const (
	// P is the perfect failure detector: strong completeness, strong accuracy.
	P Class = iota + 1
	// EventuallyP (◇P): strong completeness, eventual strong accuracy.
	EventuallyP
	// S (strong): strong completeness, weak accuracy.
	S
	// EventuallyS (◇S): strong completeness, eventual weak accuracy.
	EventuallyS
	// Q: weak completeness, strong accuracy.
	Q
	// EventuallyQ (◇Q): weak completeness, eventual strong accuracy.
	EventuallyQ
	// W (weak): weak completeness, weak accuracy.
	W
	// EventuallyW (◇W): weak completeness, eventual weak accuracy.
	EventuallyW
)

// String returns the conventional name.
func (c Class) String() string {
	switch c {
	case P:
		return "P"
	case EventuallyP:
		return "◇P"
	case S:
		return "S"
	case EventuallyS:
		return "◇S"
	case Q:
		return "Q"
	case EventuallyQ:
		return "◇Q"
	case W:
		return "W"
	case EventuallyW:
		return "◇W"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Completeness returns whether the class requires strong completeness.
func (c Class) StrongCompleteness() bool {
	switch c {
	case P, EventuallyP, S, EventuallyS:
		return true
	default:
		return false
	}
}

// Accuracy returns the class's accuracy axiom.
type Accuracy int

// Accuracy axioms.
const (
	StrongAccuracy Accuracy = iota + 1
	WeakAccuracy
	EventualStrongAccuracy
	EventualWeakAccuracy
)

// String names the accuracy axiom.
func (a Accuracy) String() string {
	switch a {
	case StrongAccuracy:
		return "strong accuracy"
	case WeakAccuracy:
		return "weak accuracy"
	case EventualStrongAccuracy:
		return "eventual strong accuracy"
	case EventualWeakAccuracy:
		return "eventual weak accuracy"
	default:
		return fmt.Sprintf("Accuracy(%d)", int(a))
	}
}

// AccuracyOf returns the accuracy axiom of a class.
func AccuracyOf(c Class) Accuracy {
	switch c {
	case P, Q:
		return StrongAccuracy
	case S, W:
		return WeakAccuracy
	case EventuallyP, EventuallyQ:
		return EventualStrongAccuracy
	default:
		return EventualWeakAccuracy
	}
}

// Interval is a half-open suspicion interval [Start, End); End ==
// model.TimeNever means the suspicion is never revoked.
type Interval struct {
	Start, End model.Time
}

// Contains reports whether t falls inside the interval.
func (iv Interval) Contains(t model.Time) bool { return t >= iv.Start && t < iv.End }

// History is an interval-based failure detector history over n processes:
// Suspicions[observer-1][subject-1] is the ordered, disjoint list of
// intervals during which observer suspects subject.
type History struct {
	n          int
	suspicions [][][]Interval
}

// NewHistory returns an empty history over n processes.
func NewHistory(n int) *History {
	if n < 1 || n > model.MaxProcs {
		panic(fmt.Sprintf("fd: NewHistory(%d) out of range [1,%d]", n, model.MaxProcs))
	}
	h := &History{n: n, suspicions: make([][][]Interval, n)}
	for i := range h.suspicions {
		h.suspicions[i] = make([][]Interval, n)
	}
	return h
}

// AddInterval records that observer suspects subject throughout [start,
// end). Intervals may be added in any order; overlapping intervals are
// merged.
func (h *History) AddInterval(observer, subject model.ProcessID, start, end model.Time) error {
	if !observer.Valid(h.n) || !subject.Valid(h.n) {
		return fmt.Errorf("fd: AddInterval(%v, %v): out of range for n=%d", observer, subject, h.n)
	}
	if start < 0 || end <= start {
		return fmt.Errorf("fd: AddInterval(%v, %v): bad interval [%v,%v)", observer, subject, start, end)
	}
	ivs := append(h.suspicions[observer-1][subject-1], Interval{start, end})
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start < ivs[b].Start })
	merged := ivs[:0]
	for _, iv := range ivs {
		if len(merged) > 0 && iv.Start <= merged[len(merged)-1].End {
			if iv.End > merged[len(merged)-1].End {
				merged[len(merged)-1].End = iv.End
			}
			continue
		}
		merged = append(merged, iv)
	}
	h.suspicions[observer-1][subject-1] = merged
	return nil
}

// Suspects reports whether observer suspects subject at time t, i.e.
// subject ∈ H(observer, t).
func (h *History) Suspects(observer, subject model.ProcessID, t model.Time) bool {
	if !observer.Valid(h.n) || !subject.Valid(h.n) {
		return false
	}
	for _, iv := range h.suspicions[observer-1][subject-1] {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// At returns H(observer, t), the full suspicion set.
func (h *History) At(observer model.ProcessID, t model.Time) model.ProcSet {
	var s model.ProcSet
	for j := 1; j <= h.n; j++ {
		if h.Suspects(observer, model.ProcessID(j), t) {
			s = s.Add(model.ProcessID(j))
		}
	}
	return s
}

// PermanentlySuspectedFrom returns the earliest time from which observer
// suspects subject forever (TimeNever if no unbounded suspicion exists).
func (h *History) PermanentlySuspectedFrom(observer, subject model.ProcessID) model.Time {
	if !observer.Valid(h.n) || !subject.Valid(h.n) {
		return model.TimeNever
	}
	ivs := h.suspicions[observer-1][subject-1]
	if len(ivs) == 0 {
		return model.TimeNever
	}
	last := ivs[len(ivs)-1]
	if last.End != model.TimeNever {
		return model.TimeNever
	}
	return last.Start
}

// Violationf builds a formatted violation.
func violationf(format string, args ...any) Violation {
	return Violation{Reason: fmt.Sprintf(format, args...)}
}

// Violation describes an axiom violation.
type Violation struct {
	Reason string
}

// Error renders the violation.
func (v Violation) Error() string { return v.Reason }

// rngFrom returns a seeded source.
func rngFrom(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
