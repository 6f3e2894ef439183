package sdd

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/step"
)

// SPRefutationKind classifies how a candidate SP protocol fails.
type SPRefutationKind int

const (
	// SPValidityViolation: a run in which the sender took a step (so it was
	// not initially crashed) but the observer decided a different value.
	SPValidityViolation SPRefutationKind = iota + 1
	// SPTerminationViolation: a legal run (sender initially crashed,
	// observer suspecting it, nothing in flight) in which the observer
	// never decides.
	SPTerminationViolation
)

// String names the kind.
func (k SPRefutationKind) String() string {
	switch k {
	case SPValidityViolation:
		return "validity violation"
	case SPTerminationViolation:
		return "termination violation"
	default:
		return fmt.Sprintf("SPRefutationKind(%d)", int(k))
	}
}

// SPRefutation is the constructive output of RefuteSP: a concrete
// SP-admissible run on which the candidate protocol violates the SDD
// specification, built exactly as in Theorem 3.1's proof.
type SPRefutation struct {
	Algorithm string
	Kind      SPRefutationKind

	// StarvedDecision is the observer's decision in the starved runs
	// (meaningful for validity violations): the value it decides when it
	// sees only silence and a suspicion.
	StarvedDecision model.Value
	// WitnessInput is the sender input of the violated run.
	WitnessInput model.Value
	// Witness is the violating trace (r'_v in the proof's notation).
	Witness *step.Trace
	// ObserverSteps is how many steps the observer took before deciding.
	ObserverSteps int
	Detail        string
}

// String renders the refutation.
func (r *SPRefutation) String() string {
	return fmt.Sprintf("%s: %v — %s", r.Algorithm, r.Kind, r.Detail)
}

// RefuteSP mechanizes Theorem 3.1's proof against any deterministic SDD
// protocol for the SP model. The proof's runs are constructed literally:
//
//   - r0: the sender crashes from the beginning; the observer suspects it
//     from its first step and receives nothing. Termination forces a
//     decision, say d.
//   - r'v (v ∈ {0,1}): the sender, with input v, takes exactly one step
//     (sending its message), then crashes; the message stays in flight
//     until after the observer decides. The observer's view is
//     indistinguishable from r0, so it decides d again — but the sender
//     was NOT initially crashed, so validity demands the decision be v.
//     Since d cannot equal both 0 and 1, one of r'0, r'1 is a concrete
//     validity violation.
//
// All runs are admissible SP runs: suspicions begin only after the actual
// crash (the engine enforces strong accuracy), the in-flight message is
// delivered — late but finitely — after the decision, and the correct
// observer keeps taking steps.
//
// maxObserverSteps bounds the wait for the observer's decision in the
// starved runs; protocols that never decide there violate termination in
// r0 itself and are refuted on those grounds.
func RefuteSP(alg step.Algorithm, maxObserverSteps int) (*SPRefutation, error) {
	if maxObserverSteps < 1 {
		return nil, fmt.Errorf("sdd: RefuteSP: maxObserverSteps must be positive, got %d", maxObserverSteps)
	}

	// r0: sender initially crashed. The observer must decide.
	r0, err := starvedRun(alg, 0, false, maxObserverSteps)
	if err != nil {
		return nil, err
	}
	if !r0.trace.Decided[DefaultObserver] {
		return &SPRefutation{
			Algorithm: alg.Name(),
			Kind:      SPTerminationViolation,
			Witness:   r0.trace,
			Detail: fmt.Sprintf("with the sender initially crashed and suspected, the observer took %d steps without deciding",
				maxObserverSteps),
		}, nil
	}
	d := r0.trace.DecidedValue[DefaultObserver]

	// r'0 and r'1: one sender step, then crash; message in flight past the
	// decision. The observer's view matches r0, so it decides d in both —
	// verified rather than assumed.
	var witnesses [2]*starved
	for v := model.Value(0); v <= 1; v++ {
		w, err := starvedRun(alg, v, true, maxObserverSteps)
		if err != nil {
			return nil, err
		}
		if !w.trace.Decided[DefaultObserver] {
			return &SPRefutation{
				Algorithm: alg.Name(),
				Kind:      SPTerminationViolation,
				Witness:   w.trace,
				Detail:    "observer failed to decide in a run indistinguishable from r0 (non-deterministic protocol?)",
			}, nil
		}
		if got := w.trace.DecidedValue[DefaultObserver]; got != d {
			return nil, fmt.Errorf("sdd: RefuteSP: observer decided %d in r'%d but %d in r0 despite identical views — protocol is not deterministic",
				int64(got), int64(v), int64(d))
		}
		witnesses[v] = w
	}

	// One of the two inputs differs from d; that run violates validity.
	witnessInput := model.Value(1)
	if d == 1 {
		witnessInput = 0
	}
	w := witnesses[witnessInput]
	bad := FirstViolation(w.trace, Spec{Sender: DefaultSender, Observer: DefaultObserver, Input: witnessInput})
	if bad == nil || bad.Property != "validity" {
		return nil, fmt.Errorf("sdd: RefuteSP: expected a validity violation on r'%d, got %v", int64(witnessInput), bad)
	}
	return &SPRefutation{
		Algorithm:       alg.Name(),
		Kind:            SPValidityViolation,
		StarvedDecision: d,
		WitnessInput:    witnessInput,
		Witness:         w.trace,
		ObserverSteps:   w.observerSteps,
		Detail:          bad.Detail,
	}, nil
}

// starved captures one starved run.
type starved struct {
	trace         *step.Trace
	observerSteps int
}

// starvedRun executes the Theorem 3.1 schedule: optionally one sender step,
// sender crash, observer suspicion from its first step, observer steps with
// all deliveries withheld until it decides, then late delivery of any
// in-flight message (keeping the run admissible).
func starvedRun(alg step.Algorithm, input model.Value, senderSteps bool, maxObserverSteps int) (*starved, error) {
	eng, err := step.NewEngineWithFD(alg, []model.Value{input, 0})
	if err != nil {
		return nil, err
	}
	apply := func(d step.Decision) error {
		if _, err := eng.Apply(d); err != nil {
			return fmt.Errorf("sdd: starvedRun: %w", err)
		}
		return nil
	}
	if senderSteps {
		if err := apply(step.Decision{Proc: DefaultSender}); err != nil {
			return nil, err
		}
	}
	if err := apply(step.Decision{Crash: DefaultSender}); err != nil {
		return nil, err
	}
	// Observer steps, suspecting the sender from its very first step and
	// receiving nothing, until it decides.
	steps := 0
	for ; steps < maxObserverSteps; steps++ {
		d := step.Decision{Proc: DefaultObserver}
		if steps == 0 {
			d.NewSuspicions = []step.Suspicion{{Observer: DefaultObserver, Subject: DefaultSender}}
		}
		if err := apply(d); err != nil {
			return nil, err
		}
		if eng.Trace().Decided[DefaultObserver] {
			steps++
			break
		}
	}
	// Late delivery of anything still in flight, so the asynchronous
	// model's eventual-delivery condition holds on the completed run.
	for {
		v := viewBufferLen(eng)
		if v == 0 {
			break
		}
		deliver := make([]int, v)
		for i := range deliver {
			deliver[i] = i
		}
		if err := apply(step.Decision{Proc: DefaultObserver, Deliver: deliver}); err != nil {
			return nil, err
		}
	}
	tr := eng.Trace()
	if viol := step.CheckEventualDelivery(tr); len(viol) != 0 {
		return nil, fmt.Errorf("sdd: starvedRun: constructed an inadmissible run: %s", viol[0].Error())
	}
	fp, h := fd.FromTrace(tr)
	if viol := fd.CheckStrongAccuracy(fp, h, model.TimeNever); len(viol) != 0 { // over the whole trace
		return nil, fmt.Errorf("sdd: starvedRun: accuracy violated: %s", viol[0].Error())
	}
	return &starved{trace: tr, observerSteps: steps}, nil
}

// viewBufferLen returns the number of messages pending for the observer.
func viewBufferLen(eng *step.Engine) int {
	// The engine does not expose buffers directly; infer from the trace:
	// messages sent to the observer minus messages delivered to it.
	tr := eng.Trace()
	sent, recv := 0, 0
	for _, ev := range tr.Events {
		if ev.Kind != step.StepEvent {
			continue
		}
		if ev.Sent != nil && ev.Sent.To == DefaultObserver {
			sent++
		}
		if ev.Proc == DefaultObserver {
			recv += len(ev.Delivered)
		}
	}
	return sent - recv
}
