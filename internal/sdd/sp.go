package sdd

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/step"
)

// This file collects natural candidate protocols for SDD in the SP model —
// the asynchronous model with a perfect failure detector. Theorem 3.1 says
// all of them (and any other deterministic protocol) must fail; RefuteSP
// produces the witness runs. Each candidate pairs the same first-step
// sender with a different observer strategy.

// ReceiveOrSuspect is the most natural candidate: the observer decides the
// sender's value the moment it arrives, and decides 0 the moment the
// perfect detector reports the sender crashed. Its flaw is the paper's
// point: suspicion proves the crash but says nothing about messages still
// in flight.
type ReceiveOrSuspect struct {
	Sender   model.ProcessID
	Observer model.ProcessID
}

var _ step.Algorithm = ReceiveOrSuspect{}

// NewReceiveOrSuspect returns the candidate with the conventional casting.
func NewReceiveOrSuspect() ReceiveOrSuspect {
	return ReceiveOrSuspect{Sender: DefaultSender, Observer: DefaultObserver}
}

// Name implements step.Algorithm.
func (a ReceiveOrSuspect) Name() string { return "SDD-SP-ReceiveOrSuspect" }

// New implements step.Algorithm: GracePeriod with no grace. Local steps are
// 1-based, so its observer decides 0 on the step that first shows the
// suspicion.
func (a ReceiveOrSuspect) New(cfg step.Config) step.Automaton {
	return GracePeriod{Sender: a.Sender, Observer: a.Observer}.New(cfg)
}

// GracePeriod refines ReceiveOrSuspect: after first suspecting the sender,
// the observer waits Grace further steps for a straggler message before
// deciding 0. No finite grace period can help — the asynchronous model puts
// no bound on delivery — but it is the obvious "fix" an engineer would try,
// so the refuter targets it explicitly.
type GracePeriod struct {
	Sender   model.ProcessID
	Observer model.ProcessID
	Grace    int
}

var _ step.Algorithm = GracePeriod{}

// NewGracePeriod returns the candidate with the conventional casting.
func NewGracePeriod(grace int) GracePeriod {
	return GracePeriod{Sender: DefaultSender, Observer: DefaultObserver, Grace: grace}
}

// Name implements step.Algorithm.
func (a GracePeriod) Name() string { return fmt.Sprintf("SDD-SP-GracePeriod(%d)", a.Grace) }

// New implements step.Algorithm.
func (a GracePeriod) New(cfg step.Config) step.Automaton {
	return cast(cfg, a.Sender, a.Observer, &observer{sender: a.Sender, grace: a.Grace})
}

// StepCountTimeout transplants the SS algorithm into SP verbatim: the
// observer waits a fixed number K of its own steps and then decides
// received-or-0, ignoring the failure detector entirely. In SS the step
// count carries information (process and message synchrony); in the
// asynchronous model it carries none, so the refuter defeats any K.
type StepCountTimeout struct {
	Sender   model.ProcessID
	Observer model.ProcessID
	K        int
}

var _ step.Algorithm = StepCountTimeout{}

// NewStepCountTimeout returns the candidate with the conventional casting.
func NewStepCountTimeout(k int) StepCountTimeout {
	return StepCountTimeout{Sender: DefaultSender, Observer: DefaultObserver, K: k}
}

// Name implements step.Algorithm.
func (a StepCountTimeout) Name() string { return fmt.Sprintf("SDD-SP-StepCountTimeout(%d)", a.K) }

// New implements step.Algorithm.
func (a StepCountTimeout) New(cfg step.Config) step.Automaton {
	return cast(cfg, a.Sender, a.Observer, deadlineObserver(a.Sender, a.K))
}

// Candidates returns the SP protocol suite the experiments refute.
func Candidates() []step.Algorithm {
	return []step.Algorithm{
		NewReceiveOrSuspect(),
		NewGracePeriod(3),
		NewGracePeriod(10),
		NewStepCountTimeout(5),
		NewStepCountTimeout(50),
	}
}
