// Package step implements the step-level computational model of the
// paper's Section 2: processes are deterministic automata that take atomic
// steps — receive a (possibly empty) set of messages, change state, and
// optionally send one message to a single process. A schedule is a sequence
// of such steps; system models (asynchronous, SS, SP) are sets of
// admissible schedules.
//
// The paper's models are realized as follows:
//
//   - The asynchronous model: any schedule in which correct processes keep
//     taking steps and every message to a correct process is eventually
//     delivered.
//   - The synchronous model SS (§2.4, after Dolev–Dwork–Stockmeyer): two
//     constants Φ ≥ 1 and Δ ≥ 1 constrain schedules. Process synchrony: in
//     any window of consecutive steps where some process takes Φ+1 steps,
//     every process alive at the end of the window takes at least one step.
//     Message synchrony: a message sent at global step k is received by the
//     end of the receiver's first step with global index ≥ k+Δ. Both
//     conditions are in terms of steps, not real time.
//   - The SP model (§2.6): asynchronous steps augmented with a perfect
//     failure detector query phase. Each step observes the detector's
//     current suspicion set; histories must satisfy P's strong accuracy (no
//     process is suspected before it crashes) — checked online — and strong
//     completeness — a liveness condition checked on complete runs.
//
// Schedulers play the adversary: they choose which process steps next,
// which buffered messages it receives, when crashes happen, and (in SP)
// when suspicions begin. Validators certify recorded traces against each
// model's conditions, so experiment E8's claims rest on checked runs.
package step

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Message is a point-to-point message in flight or delivered.
type Message struct {
	From, To model.ProcessID
	SentStep int // global step index at which it was sent (1-based)
	Payload  any
}

// String renders the message.
func (m Message) String() string {
	return fmt.Sprintf("%v→%v@%d:%v", m.From, m.To, m.SentStep, m.Payload)
}

// Send is an automaton's outgoing message request: at most one per step, to
// a single destination, per the paper's step definition.
type Send struct {
	To      model.ProcessID
	Payload any
}

// Input is everything an automaton observes in one step. Automata have no
// access to the global clock; Local is the process's own step count.
type Input struct {
	// Local is this process's own 1-based step number.
	Local int
	// Received is the set of messages delivered in this step.
	Received []Message
	// Suspects is the failure detector's output for this step's query
	// phase; always empty when the engine runs without a detector.
	Suspects model.ProcSet
}

// Automaton is a step-level process: a deterministic automaton advanced one
// atomic step at a time. Returning nil sends nothing.
type Automaton interface {
	Step(in Input) *Send
}

// Decider is implemented by automata that produce an irrevocable decision
// (the SDD automata do).
type Decider interface {
	Decision() (model.Value, bool)
}

// Config parameterizes a fresh automaton.
type Config struct {
	ID    model.ProcessID
	N     int
	Input model.Value // the process's input value, if the problem has one
}

// Algorithm constructs step-level automata.
type Algorithm interface {
	Name() string
	New(cfg Config) Automaton
}

// EventKind distinguishes trace events.
type EventKind int

const (
	// StepEvent records one atomic step of a process.
	StepEvent EventKind = iota + 1
	// CrashEvent records a crash (the process takes no further steps).
	CrashEvent
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case StepEvent:
		return "step"
	case CrashEvent:
		return "crash"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of a run trace.
type Event struct {
	Kind   EventKind
	Global int             // global step index (1-based); crashes share the index of the next step
	Proc   model.ProcessID // the process stepping or crashing
	Local  int             // the process's own step count after this event

	Delivered []Message     // messages received in this step
	Sent      *Message      // message sent in this step, if any
	Suspects  model.ProcSet // detector output observed in this step
}

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case CrashEvent:
		return fmt.Sprintf("[%d] %v CRASHES", e.Global, e.Proc)
	default:
		s := fmt.Sprintf("[%d] %v steps (local %d)", e.Global, e.Proc, e.Local)
		if len(e.Delivered) > 0 {
			s += fmt.Sprintf(" recv %v", e.Delivered)
		}
		if e.Sent != nil {
			s += fmt.Sprintf(" send %v", *e.Sent)
		}
		if !e.Suspects.Empty() {
			s += fmt.Sprintf(" suspects %v", e.Suspects)
		}
		return s
	}
}

// Trace is a recorded run prefix: the schedule S, the failure pattern F and
// (for SP) the detector history H, all in one stream plus summary state.
type Trace struct {
	N      int
	Events []Event

	// CrashedAt[p] is the global step index before which p crashed
	// (0 = never crashed).
	CrashedAt []int
	// LocalSteps[p] is the total number of steps p took.
	LocalSteps []int
	// Decisions captures the final decision of each Decider automaton.
	DecidedValue []model.Value
	Decided      []bool
	// DecidedAtLocal[p] is p's local step count when it first decided.
	DecidedAtLocal []int
}

// Alive reports whether p is alive after the trace prefix.
func (tr *Trace) Alive(p model.ProcessID) bool { return tr.CrashedAt[p] == 0 }

// TookStep reports whether p took at least one step.
func (tr *Trace) TookStep(p model.ProcessID) bool { return tr.LocalSteps[p] > 0 }

// InitiallyCrashed reports whether p crashed before taking any step — the
// paper's "initially dead" condition from the SDD validity clause.
func (tr *Trace) InitiallyCrashed(p model.ProcessID) bool {
	return tr.CrashedAt[p] != 0 && tr.LocalSteps[p] == 0
}

// RenderSteps renders a step-level trace, limiting output to maxEvents
// events (0 = all).
func RenderSteps(tr *Trace, maxEvents int) string {
	var b strings.Builder
	events := tr.Events
	truncated := false
	if maxEvents > 0 && len(events) > maxEvents {
		events = events[:maxEvents]
		truncated = true
	}
	for _, ev := range events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	if truncated {
		fmt.Fprintf(&b, "… (%d more events)\n", len(tr.Events)-maxEvents)
	}
	for p := 1; p <= tr.N; p++ {
		pid := model.ProcessID(p)
		if tr.Decided[p] {
			fmt.Fprintf(&b, "%v decided %d at its local step %d\n",
				pid, int64(tr.DecidedValue[p]), tr.DecidedAtLocal[p])
		}
	}
	return b.String()
}
