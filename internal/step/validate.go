package step

import (
	"fmt"

	"repro/internal/model"
)

// Violation reports where a trace breaks a model condition.
type Violation struct {
	Global int
	Proc   model.ProcessID
	Reason string
}

// Error renders the violation.
func (v *Violation) Error() string {
	return fmt.Sprintf("step %d, %v: %s", v.Global, v.Proc, v.Reason)
}

// CheckProcessSynchrony verifies SS's process synchrony over a trace: for
// any window of consecutive steps in which some process takes Φ+1 steps,
// every process alive at the end of the window takes at least one step in
// it. It suffices to check, for every process p, each window spanned by
// Φ+1 consecutive p-steps (any larger window contains one of these).
func CheckProcessSynchrony(tr *Trace, phi int) []Violation {
	var out []Violation
	// Collect per-process step positions (indices into the global step
	// sequence, counting only StepEvents).
	stepIdx := 0
	positions := make([][]int, tr.N+1)
	for _, ev := range tr.Events {
		if ev.Kind != StepEvent {
			continue
		}
		stepIdx++
		positions[ev.Proc] = append(positions[ev.Proc], stepIdx)
	}

	aliveAtStep := func(p model.ProcessID, globalStep int) bool {
		ca := tr.CrashedAt[p]
		return ca == 0 || ca > globalStep
	}

	for p := 1; p <= tr.N; p++ {
		pos := positions[p]
		for i := 0; i+phi < len(pos); i++ {
			lo, hi := pos[i], pos[i+phi] // window containing Φ+1 steps of p
			for q := 1; q <= tr.N; q++ {
				pq := model.ProcessID(q)
				if pq == model.ProcessID(p) || !aliveAtStep(pq, hi) {
					continue
				}
				stepped := false
				for _, qp := range positions[q] {
					if qp >= lo && qp <= hi {
						stepped = true
						break
					}
				}
				if !stepped {
					out = append(out, Violation{
						Global: hi,
						Proc:   pq,
						Reason: fmt.Sprintf("%v took %d steps in window [%d,%d] but alive %v took none (Φ=%d)",
							model.ProcessID(p), phi+1, lo, hi, pq, phi),
					})
				}
			}
		}
	}
	return out
}

// CheckMessageSynchrony verifies SS's message synchrony over a trace: a
// message sent at global step k to pi must be received by the end of pi's
// first step with global index l ≥ k+Δ.
func CheckMessageSynchrony(tr *Trace, delta int) []Violation {
	var out []Violation
	// deliveredAt[m-identity] — identify messages by (From,To,SentStep,
	// position among same-step sends); since a step sends at most one
	// message, (From,SentStep) is unique.
	type key struct {
		from model.ProcessID
		sent int
	}
	deliveredAt := make(map[key]int)
	var sent []Message
	for _, ev := range tr.Events {
		if ev.Kind != StepEvent {
			continue
		}
		for _, m := range ev.Delivered {
			deliveredAt[key{m.From, m.SentStep}] = ev.Global
		}
		if ev.Sent != nil {
			sent = append(sent, *ev.Sent)
		}
	}
	for _, m := range sent {
		// Find the receiver's first step at global index ≥ SentStep+Δ.
		deadline := 0
		for _, ev := range tr.Events {
			if ev.Kind == StepEvent && ev.Proc == m.To && ev.Global >= m.SentStep+delta {
				deadline = ev.Global
				break
			}
		}
		if deadline == 0 {
			continue // receiver took no step past the bound: no constraint yet
		}
		got, ok := deliveredAt[key{m.From, m.SentStep}]
		if !ok || got > deadline {
			out = append(out, Violation{
				Global: deadline,
				Proc:   m.To,
				Reason: fmt.Sprintf("message %v (sent step %d) not received by step %d (Δ=%d)",
					m, m.SentStep, deadline, delta),
			})
		}
	}
	return out
}

// CheckEventualDelivery verifies the asynchronous model's liveness clause
// on a *complete* run: every message sent to a process that never crashes
// has been received. (On a finite prefix this is the best approximation of
// "eventually received"; callers decide whether the trace is complete.)
func CheckEventualDelivery(tr *Trace) []Violation {
	var out []Violation
	type key struct {
		from model.ProcessID
		sent int
	}
	delivered := make(map[key]bool)
	var sent []Message
	for _, ev := range tr.Events {
		if ev.Kind != StepEvent {
			continue
		}
		for _, m := range ev.Delivered {
			delivered[key{m.From, m.SentStep}] = true
		}
		if ev.Sent != nil {
			sent = append(sent, *ev.Sent)
		}
	}
	for _, m := range sent {
		if tr.CrashedAt[m.To] != 0 {
			continue
		}
		if !delivered[key{m.From, m.SentStep}] {
			out = append(out, Violation{
				Proc:   m.To,
				Reason: fmt.Sprintf("message %v to a correct process never delivered", m),
			})
		}
	}
	return out
}
