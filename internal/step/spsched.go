package step

import (
	"math/rand"

	"repro/internal/model"
)

// SPScheduler drives SP executions: asynchronous interleavings with crash
// injection and adversarially delayed — but admissible — perfect failure
// detection.
//
//   - Process speeds: the next stepper is drawn uniformly from the alive
//     processes (fair with probability 1, which is all the asynchronous
//     model requires).
//   - Message delays: each buffered message is delivered at the receiver's
//     step with probability DeliverProb, and unconditionally once it is
//     MaxMsgAge global steps old (realizing eventual delivery within a
//     finite run).
//   - Suspicions: after a subject crashes, each observer starts suspecting
//     it after a per-pair random delay of at most MaxSuspicionDelay global
//     steps — never before the crash (strong accuracy) and always
//     eventually (strong completeness). Large delays are exactly the SP
//     adversary the paper exploits: detection is reliable but unboundedly
//     late.
//   - Crashes: CrashAtStep as in SSScheduler (see dueCrash).
type SPScheduler struct {
	Stop              StopWhen
	CrashAtStep       map[model.ProcessID]int
	DeliverProb       float64
	MaxMsgAge         int
	MaxSuspicionDelay int

	// CrashOnDecide, if nonzero, crashes that process at the scheduler's
	// first opportunity after it decides — the paper's "broadcasts,
	// decides, and then crashes" scenario (§5.3).
	CrashOnDecide model.ProcessID
	// CrashAfterSteps crashes a process once it has taken the given number
	// of local steps — e.g. right after it finished a send phase.
	CrashAfterSteps map[model.ProcessID]int
	// WithholdFrom lists senders whose messages are delivered only once
	// they are WithholdAge global steps old: the targeted (but still
	// finite, hence admissible) delay that turns them into pending
	// messages when failure detection is faster.
	WithholdFrom model.ProcSet
	WithholdAge  int

	rng       *rand.Rand
	crashedAt map[model.ProcessID]int
	suspectAt map[[2]model.ProcessID]int // (observer, subject) → global step
	suspected map[[2]model.ProcessID]bool
}

var _ Scheduler = (*SPScheduler)(nil)

// NewSPScheduler returns a seeded SP scheduler with sane defaults.
func NewSPScheduler(seed int64, stop StopWhen) *SPScheduler {
	return &SPScheduler{
		Stop:              stop,
		DeliverProb:       0.5,
		MaxMsgAge:         12,
		MaxSuspicionDelay: 8,
		rng:               rand.New(rand.NewSource(seed)),
		crashedAt:         make(map[model.ProcessID]int),
		suspectAt:         make(map[[2]model.ProcessID]int),
		suspected:         make(map[[2]model.ProcessID]bool),
	}
}

// crash crashes p now and draws, for every other process, the global step
// from which it suspects p.
func (s *SPScheduler) crash(p model.ProcessID, v *View) Decision {
	s.crashedAt[p] = v.GlobalStep
	for o := 1; o <= v.N; o++ {
		if obs := model.ProcessID(o); obs != p {
			s.suspectAt[[2]model.ProcessID{obs, p}] = v.GlobalStep + s.rng.Intn(s.MaxSuspicionDelay+1)
		}
	}
	return Decision{Crash: p}
}

// Next implements Scheduler. Planned crashes fire first, in ascending id
// order and one per decision; the plans are only read.
func (s *SPScheduler) Next(v *View) Decision {
	if p := dueCrash(s.CrashAfterSteps, v, func(p model.ProcessID) int { return v.LocalSteps[p] }); p != 0 {
		return s.crash(p, v)
	}
	if p := s.CrashOnDecide; p != 0 && v.Alive.Has(p) && v.Decided[p] {
		return s.crash(p, v)
	}
	if p := dueCrash(s.CrashAtStep, v, atGlobal(v)); p != 0 {
		return s.crash(p, v)
	}
	if s.Stop != nil && s.Stop(v) {
		return Decision{Suspend: true}
	}
	if v.Alive.Empty() {
		return Decision{Suspend: true}
	}

	members := v.Alive.Members()
	p := members[s.rng.Intn(len(members))]

	d := Decision{Proc: p}
	for i, m := range v.Buffers[p] {
		if s.WithholdFrom.Has(m.From) {
			age := s.WithholdAge
			if age <= 0 {
				age = s.MaxMsgAge
			}
			if v.GlobalStep-m.SentStep >= age {
				d.Deliver = append(d.Deliver, i)
			}
			continue
		}
		if v.GlobalStep-m.SentStep >= s.MaxMsgAge || s.rng.Float64() < s.DeliverProb {
			d.Deliver = append(d.Deliver, i)
		}
	}
	for subject, crashStep := range s.crashedAt {
		key := [2]model.ProcessID{p, subject}
		if s.suspected[key] {
			continue
		}
		if due, ok := s.suspectAt[key]; ok && v.GlobalStep >= due && v.GlobalStep > crashStep {
			d.NewSuspicions = append(d.NewSuspicions, Suspicion{Observer: p, Subject: subject})
			s.suspected[key] = true
		}
	}
	return d
}
