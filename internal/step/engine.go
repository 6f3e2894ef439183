package step

import (
	"errors"
	"fmt"

	"repro/internal/model"
)

// Decision is a scheduler's choice for the next event.
type Decision struct {
	// Crash, if nonzero, crashes that process now instead of stepping
	// anyone. Proc and Deliver are ignored.
	Crash model.ProcessID

	// Proc is the process that takes the next step.
	Proc model.ProcessID
	// Deliver lists indices into Proc's buffer to deliver in this step.
	// Indices refer to the buffer as shown in the view, in order.
	Deliver []int

	// Suspend, if true, ends the run (the scheduler has nothing further to
	// schedule; validators decide whether the prefix is admissible).
	Suspend bool

	// NewSuspicions (SP only) starts suspicions in the detector history as
	// of the current global step. Strong accuracy is enforced: each subject
	// must already be crashed.
	NewSuspicions []Suspicion
}

// Suspicion is one (observer, subject) suspicion start.
type Suspicion struct {
	Observer, Subject model.ProcessID
}

// View is the read-only state a scheduler sees before each decision.
type View struct {
	GlobalStep int // index the next step will carry (1-based)
	N          int
	Alive      model.ProcSet
	LocalSteps []int       // per-process step counts (index 1..N)
	Buffers    [][]Message // per-process pending messages (index 1..N); read-only
	Decided    []bool      // per-process decision status for Decider automata
}

// Scheduler is the step-level adversary.
type Scheduler interface {
	Next(v *View) Decision
}

// SchedulerFunc adapts a function to Scheduler.
type SchedulerFunc func(v *View) Decision

// Next implements Scheduler.
func (f SchedulerFunc) Next(v *View) Decision { return f(v) }

// Errors returned by the engine.
var (
	ErrCrashedProc = errors.New("step: scheduler selected a crashed process")
	ErrBadDelivery = errors.New("step: delivery index out of range")
	ErrAccuracy    = errors.New("step: strong accuracy violated: suspicion of a live process")
	ErrHorizon     = errors.New("step: horizon exhausted before the scheduler suspended the run")
	ErrNoFD        = errors.New("step: suspicions scheduled but the engine runs without a failure detector")
)

// Engine executes step-level automata under a scheduler. Use NewEngine for
// the plain asynchronous/SS models and NewEngineWithFD for SP.
type Engine struct {
	n       int
	autos   []Automaton
	buffers [][]Message
	alive   model.ProcSet
	local   []int
	global  int

	withFD    bool
	suspect   []model.ProcSet // current suspicion set per observer (index 1..N)
	historyFD HistoryFD       // when set, overrides scheduler-driven suspicions

	trace *Trace
}

// NewEngine prepares an execution without a failure detector (asynchronous
// or SS, depending on the scheduler's discipline).
func NewEngine(alg Algorithm, inputs []model.Value) (*Engine, error) {
	return newEngine(alg, inputs, false)
}

// NewEngineWithFD prepares an SP execution: every step queries the perfect
// failure detector, whose history the scheduler drives under the engine's
// strong-accuracy enforcement.
func NewEngineWithFD(alg Algorithm, inputs []model.Value) (*Engine, error) {
	return newEngine(alg, inputs, true)
}

// HistoryFD supplies each step's detector output from an external history:
// observer's suspicion set as of the given global step. It is how the
// weaker Chandra-Toueg classes (◇P, S, ◇S — which may suspect live
// processes and retract) are driven: generate a class history with package
// fd and install it here. The engine then bypasses its strong-accuracy
// enforcement — the history's axioms are the caller's contract.
type HistoryFD func(observer model.ProcessID, globalStep int) model.ProcSet

// NewEngineWithHistoryFD prepares an execution whose detector output is
// read from the provided history instead of scheduler-driven suspicions.
func NewEngineWithHistoryFD(alg Algorithm, inputs []model.Value, h HistoryFD) (*Engine, error) {
	e, err := newEngine(alg, inputs, true)
	if err != nil {
		return nil, err
	}
	e.historyFD = h
	return e, nil
}

func newEngine(alg Algorithm, inputs []model.Value, withFD bool) (*Engine, error) {
	n := len(inputs)
	if n < 1 || n > model.MaxProcs {
		return nil, fmt.Errorf("step: NewEngine: n=%d out of range [1,%d]", n, model.MaxProcs)
	}
	e := &Engine{
		n:       n,
		autos:   make([]Automaton, n+1),
		buffers: make([][]Message, n+1),
		alive:   model.FullSet(n),
		local:   make([]int, n+1),
		withFD:  withFD,
		suspect: make([]model.ProcSet, n+1),
		trace: &Trace{
			N:              n,
			CrashedAt:      make([]int, n+1),
			LocalSteps:     make([]int, n+1),
			DecidedValue:   make([]model.Value, n+1),
			Decided:        make([]bool, n+1),
			DecidedAtLocal: make([]int, n+1),
		},
	}
	for i := 1; i <= n; i++ {
		e.autos[i] = alg.New(Config{ID: model.ProcessID(i), N: n, Input: inputs[i-1]})
	}
	return e, nil
}

// Trace returns the recorded trace so far. The engine keeps appending to
// it; callers should treat it as read-only.
func (e *Engine) Trace() *Trace { return e.trace }

// view assembles the scheduler's view.
func (e *Engine) view() *View {
	return &View{
		GlobalStep: e.global + 1,
		N:          e.n,
		Alive:      e.alive,
		LocalSteps: e.local,
		Buffers:    e.buffers,
		Decided:    e.trace.Decided,
	}
}

// Apply executes one scheduler decision. It reports (done, err); done is
// true when the scheduler suspended the run.
func (e *Engine) Apply(d Decision) (bool, error) {
	if d.Suspend {
		return true, nil
	}
	if len(d.NewSuspicions) > 0 && !e.withFD {
		return false, ErrNoFD
	}
	for _, s := range d.NewSuspicions {
		if e.alive.Has(s.Subject) {
			return false, fmt.Errorf("%w: %v suspects %v at global step %d",
				ErrAccuracy, s.Observer, s.Subject, e.global+1)
		}
		e.suspect[s.Observer] = e.suspect[s.Observer].Add(s.Subject)
	}
	if d.Crash != 0 {
		if !e.alive.Has(d.Crash) {
			return false, fmt.Errorf("%w: crash of %v", ErrCrashedProc, d.Crash)
		}
		e.alive = e.alive.Remove(d.Crash)
		e.trace.CrashedAt[d.Crash] = e.global + 1
		e.trace.Events = append(e.trace.Events, Event{
			Kind: CrashEvent, Global: e.global + 1, Proc: d.Crash, Local: e.local[d.Crash],
		})
		return false, nil
	}
	p := d.Proc
	if !e.alive.Has(p) {
		return false, fmt.Errorf("%w: step of %v", ErrCrashedProc, p)
	}

	// Extract the delivered messages from p's buffer (descending removal).
	buf := e.buffers[p]
	delivered := make([]Message, 0, len(d.Deliver))
	seen := make(map[int]bool, len(d.Deliver))
	for _, idx := range d.Deliver {
		if idx < 0 || idx >= len(buf) || seen[idx] {
			return false, fmt.Errorf("%w: index %d of %d for %v", ErrBadDelivery, idx, len(buf), p)
		}
		seen[idx] = true
		delivered = append(delivered, buf[idx])
	}
	if len(seen) > 0 {
		rest := buf[:0]
		for i := range buf {
			if !seen[i] {
				rest = append(rest, buf[i])
			}
		}
		e.buffers[p] = rest
	}

	e.global++
	e.local[p]++
	in := Input{
		Local:    e.local[p],
		Received: delivered,
	}
	if e.withFD {
		if e.historyFD != nil {
			in.Suspects = e.historyFD(p, e.global)
		} else {
			in.Suspects = e.suspect[p]
		}
	}
	send := e.autos[p].Step(in)

	ev := Event{
		Kind: StepEvent, Global: e.global, Proc: p, Local: e.local[p],
		Delivered: delivered, Suspects: in.Suspects,
	}
	if send != nil {
		if !send.To.Valid(e.n) {
			return false, fmt.Errorf("step: %v sent to invalid destination %v", p, send.To)
		}
		m := Message{From: p, To: send.To, SentStep: e.global, Payload: send.Payload}
		// Messages to crashed processes are dropped (they will never step).
		if e.alive.Has(send.To) {
			e.buffers[send.To] = append(e.buffers[send.To], m)
		}
		ev.Sent = &m
	}
	e.trace.Events = append(e.trace.Events, ev)
	e.trace.LocalSteps[p] = e.local[p]

	if dec, ok := e.autos[p].(Decider); ok {
		if v, decided := dec.Decision(); decided && !e.trace.Decided[p] {
			e.trace.Decided[p] = true
			e.trace.DecidedValue[p] = v
			e.trace.DecidedAtLocal[p] = e.local[p]
		}
	}
	return false, nil
}

// Run drives the engine under sched until it suspends or horizon steps have
// executed. It returns the trace; ErrHorizon wraps the case where the
// scheduler never suspended.
func (e *Engine) Run(sched Scheduler, horizon int) (*Trace, error) {
	for i := 0; i < horizon; i++ {
		done, err := e.Apply(sched.Next(e.view()))
		if err != nil {
			return e.trace, err
		}
		if done {
			return e.trace, nil
		}
	}
	return e.trace, ErrHorizon
}
