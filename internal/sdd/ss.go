package sdd

import (
	"repro/internal/model"
	"repro/internal/step"
)

// SSAlgorithm is the paper's Section 3 algorithm solving SDD in the
// synchronous model SS with known bounds Φ and Δ:
//
//   - pi (the sender) sends its input value to pj during its first step.
//   - pj (the observer) executes Φ+1+Δ (possibly empty) steps. If a message
//     from pi arrives during this period, pj decides the value sent;
//     otherwise it decides 0.
//
// Why Φ+1+Δ: by process synchrony, within any window in which pj takes Φ+1
// steps, a live pi has taken at least one step — its first, which sends the
// value. By message synchrony the message is received by the end of pj's
// first step at least Δ global steps later, and pj's next Δ own steps are
// each a global step, so Φ+1+Δ of pj's own steps suffice. Silence past the
// deadline therefore *proves* pi crashed before sending — exactly the
// bounded-failure-detection power that SP lacks.
//
// Every other process idles (the problem involves only pi and pj).
type SSAlgorithm struct {
	Phi, Delta int
	Sender     model.ProcessID
	Observer   model.ProcessID
}

var _ step.Algorithm = SSAlgorithm{}

// NewSS returns the SS algorithm for the conventional casting p1 → p2.
func NewSS(phi, delta int) SSAlgorithm {
	return SSAlgorithm{Phi: phi, Delta: delta, Sender: DefaultSender, Observer: DefaultObserver}
}

// Name implements step.Algorithm.
func (a SSAlgorithm) Name() string { return "SDD-SS" }

// New implements step.Algorithm.
func (a SSAlgorithm) New(cfg step.Config) step.Automaton {
	return cast(cfg, a.Sender, a.Observer, deadlineObserver(a.Sender, a.Phi+1+a.Delta))
}

// cast builds process cfg.ID of an SDD protocol: the sender sends its input
// to the observer, the observer runs obs, and everyone else idles.
func cast(cfg step.Config, sender, observerID model.ProcessID, obs step.Automaton) step.Automaton {
	switch cfg.ID {
	case sender:
		return &ssSender{observer: observerID, value: cfg.Input}
	case observerID:
		return obs
	default:
		return idle{}
	}
}

// ssSender sends the input value to the observer in its first step and then
// idles forever.
type ssSender struct {
	observer model.ProcessID
	value    model.Value
	sent     bool
}

var _ step.Automaton = (*ssSender)(nil)

// Step implements step.Automaton.
func (s *ssSender) Step(in step.Input) *step.Send {
	if s.sent {
		return nil
	}
	s.sent = true
	return &step.Send{To: s.observer, Payload: ValueMsg{V: s.value}}
}

// observer is every SDD protocol's observer; they differ only in when
// silence turns into a decision. It decides the sender's value the moment
// it arrives. Otherwise it decides 0 at its own step deadline — the SS
// algorithm and StepCountTimeout, which ignore the detector — or, with no
// deadline, grace steps after it first sees the sender suspected —
// ReceiveOrSuspect (grace 0) and GracePeriod.
type observer struct {
	sender   model.ProcessID
	deadline int // 0: none; watch the detector instead
	grace    int

	suspectedAt int // observer-local step at which suspicion was first seen
	decided     bool
	decision    model.Value
}

var (
	_ step.Automaton = (*observer)(nil)
	_ step.Decider   = (*observer)(nil)
)

// deadlineObserver decides 0 at its k-th own step; a k below 1 is reached
// at its first.
func deadlineObserver(sender model.ProcessID, k int) *observer {
	return &observer{sender: sender, deadline: max(k, 1)}
}

// Step implements step.Automaton.
func (o *observer) Step(in step.Input) *step.Send {
	if o.decided {
		return nil
	}
	for _, m := range in.Received {
		if vm, ok := m.Payload.(ValueMsg); ok && m.From == o.sender {
			o.decision, o.decided = vm.V, true
			return nil
		}
	}
	if o.deadline == 0 && o.suspectedAt == 0 && in.Suspects.Has(o.sender) {
		o.suspectedAt = in.Local
	}
	if (o.deadline > 0 && in.Local >= o.deadline) || (o.suspectedAt != 0 && in.Local >= o.suspectedAt+o.grace) {
		o.decision, o.decided = 0, true
	}
	return nil
}

// Decision implements step.Decider.
func (o *observer) Decision() (model.Value, bool) { return o.decision, o.decided }

// idle is the automaton of uninvolved processes.
type idle struct{}

var _ step.Automaton = idle{}

// Step implements step.Automaton.
func (idle) Step(step.Input) *step.Send { return nil }
