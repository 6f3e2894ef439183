package step

import (
	"math/rand"

	"repro/internal/model"
)

// StopWhen is a predicate deciding when a scheduler should suspend the run
// (e.g. "the observer process has decided").
type StopWhen func(v *View) bool

// StopWhenDecided suspends once every process in want has decided.
func StopWhenDecided(want model.ProcSet) StopWhen {
	return func(v *View) bool {
		done := true
		want.ForEach(func(p model.ProcessID) bool {
			if !v.Decided[p] {
				done = false
				return false
			}
			return true
		})
		return done
	}
}

// FairScheduler is the benign scheduler: it cycles round-robin over alive
// processes and delivers every buffered message at each step. The schedules
// it produces are admissible in every model of the paper — in particular
// they satisfy SS's process synchrony with Φ = 1 and message synchrony with
// Δ = 1 — so it realizes the "perfect" synchronous run.
type FairScheduler struct {
	Stop StopWhen
	next model.ProcessID
}

var _ Scheduler = (*FairScheduler)(nil)

// Next implements Scheduler.
func (s *FairScheduler) Next(v *View) Decision {
	if s.Stop != nil && s.Stop(v) {
		return Decision{Suspend: true}
	}
	if v.Alive.Empty() {
		return Decision{Suspend: true}
	}
	// Advance round-robin to the next alive process.
	p := s.next
	for i := 0; i < v.N; i++ {
		p++
		if p > model.ProcessID(v.N) {
			p = 1
		}
		if v.Alive.Has(p) {
			break
		}
	}
	s.next = p
	deliver := make([]int, len(v.Buffers[p]))
	for i := range deliver {
		deliver[i] = i
	}
	return Decision{Proc: p, Deliver: deliver}
}

// SSScheduler generates random schedules that are admissible in the SS
// model with the given Φ and Δ bounds.
//
// Process synchrony is maintained online with a staleness rule: the
// scheduler tracks, for each ordered pair (q, r), how many steps r has
// taken since q's last step, and only schedules r while that count is
// below Φ for every alive q. If a window contained Φ+1 steps of r with no
// step of some alive q, the last of those r-steps would have been
// scheduled at count ≥ Φ — impossible. The process with the oldest last
// step is always schedulable, so the rule never deadlocks.
//
// Message synchrony: every message is delivered no later than the
// receiver's first step at global index ≥ sent+Δ; younger messages are
// delivered early at random.
//
// Crashes are injected from CrashAtStep (see dueCrash and atGlobal):
// process p crashes immediately before the first step whose global index
// reaches CrashAtStep[p].
type SSScheduler struct {
	Phi, Delta  int
	Stop        StopWhen
	CrashAtStep map[model.ProcessID]int

	rng *rand.Rand
	// since[q][r] = number of r-steps since q's last step.
	since [][]int
}

var _ Scheduler = (*SSScheduler)(nil)

// NewSSScheduler returns a seeded SS-admissible scheduler.
func NewSSScheduler(phi, delta int, seed int64, stop StopWhen) *SSScheduler {
	if phi < 1 {
		phi = 1
	}
	if delta < 1 {
		delta = 1
	}
	return &SSScheduler{
		Phi:   phi,
		Delta: delta,
		Stop:  stop,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Next implements Scheduler.
func (s *SSScheduler) Next(v *View) Decision {
	if s.since == nil {
		s.since = make([][]int, v.N+1)
		for i := range s.since {
			s.since[i] = make([]int, v.N+1)
		}
	}
	// Crash injection first: a due crash fires before anyone steps.
	if p := dueCrash(s.CrashAtStep, v, atGlobal(v)); p != 0 {
		return Decision{Crash: p}
	}
	if s.Stop != nil && s.Stop(v) {
		return Decision{Suspend: true}
	}
	if v.Alive.Empty() {
		return Decision{Suspend: true}
	}

	// Collect the processes schedulable under the staleness rule.
	var legal []model.ProcessID
	v.Alive.ForEach(func(r model.ProcessID) bool {
		ok := true
		v.Alive.ForEach(func(q model.ProcessID) bool {
			if q != r && s.since[q][r] >= s.Phi {
				ok = false
				return false
			}
			return true
		})
		if ok {
			legal = append(legal, r)
		}
		return true
	})
	if len(legal) == 0 {
		// Unreachable: the oldest-stepped alive process is always legal.
		panic("step: SSScheduler: no schedulable process (staleness rule broken)")
	}
	p := legal[s.rng.Intn(len(legal))]

	// Bookkeeping: p's step ages every other view of p and resets p's own.
	for q := 1; q <= v.N; q++ {
		if model.ProcessID(q) != p {
			s.since[q][p]++
		}
	}
	for r := 1; r <= v.N; r++ {
		s.since[p][r] = 0
	}

	// Mandatory deliveries: messages whose Δ deadline this step hits.
	// Optional deliveries: younger messages, delivered with probability ½.
	var deliver []int
	for i, m := range v.Buffers[p] {
		if v.GlobalStep >= m.SentStep+s.Delta || s.rng.Intn(2) == 0 {
			deliver = append(deliver, i)
		}
	}
	return Decision{Proc: p, Deliver: deliver}
}

// dueCrash returns the lowest-numbered alive process p whose planned crash
// has come, plan[p] ≤ reached(p), or 0. Crashes due together fire in
// ascending id order, one per decision, and the plan is only read: a
// caller may reuse it.
func dueCrash(plan map[model.ProcessID]int, v *View, reached func(model.ProcessID) int) model.ProcessID {
	var first model.ProcessID
	for p, at := range plan {
		if at <= reached(p) && v.Alive.Has(p) && (first == 0 || p < first) {
			first = p
		}
	}
	return first
}

// atGlobal reads a CrashAtStep plan: p crashes before the first step whose
// global index reaches plan[p], so a plan of 0 or 1 crashes it before any.
func atGlobal(v *View) func(model.ProcessID) int {
	return func(model.ProcessID) int { return v.GlobalStep }
}

// ScriptScheduler replays a fixed decision list, then suspends.
type ScriptScheduler struct {
	Decisions []Decision
	i         int
}

var _ Scheduler = (*ScriptScheduler)(nil)

// Next implements Scheduler.
func (s *ScriptScheduler) Next(*View) Decision {
	if s.i >= len(s.Decisions) {
		return Decision{Suspend: true}
	}
	d := s.Decisions[s.i]
	s.i++
	return d
}
