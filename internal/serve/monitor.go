package serve

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/runtime"
)

// Monitor is the in-production conformance checker: every completed
// instance is tested against the paper's two safety predicates —
// agreement (no two nodes decide differently) and validity (every decision
// was somebody's proposal) — and tallied. Undecided instances are counted
// but are not violations: under chaos a proposal may time out, which is a
// liveness observation, and liveness is exactly what the fault injector is
// licensed to take.
type Monitor struct {
	mu        sync.Mutex
	checked   int64
	undecided int64
	agreement int64 // agreement violations
	validity  int64 // validity violations
	firstBad  string
}

// ConformSummary is the monitor's JSON for /v1/status.
type ConformSummary struct {
	Checked             int64  `json:"checked"`
	Undecided           int64  `json:"undecided"`
	AgreementViolations int64  `json:"agreement_violations"`
	ValidityViolations  int64  `json:"validity_violations"`
	Clean               bool   `json:"clean"`
	FirstViolation      string `json:"first_violation,omitempty"`
}

// Note checks one completed instance. Called from the engine's completion
// callback (a worker goroutine): one short critical section.
func (m *Monitor) Note(inst uint64, proposals []model.Value, out runtime.InstanceOutcome) {
	proposed := model.NewValueSet(proposals...)
	_, verdict := out.Agreement()
	anyDecided := false
	badValidity := ""
	for i, d := range out.Decided {
		if !d {
			continue
		}
		anyDecided = true
		if !proposed.Has(out.Decisions[i]) {
			badValidity = fmt.Sprintf(
				"instance %d: node %d decided %d, which nobody proposed",
				inst, i+1, int64(out.Decisions[i]))
			break
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.checked++
	if out.Err == nil && !anyDecided {
		m.undecided++
	}
	if verdict == runtime.AgreementViolated {
		m.agreement++
		if m.firstBad == "" {
			m.firstBad = fmt.Sprintf("instance %d: agreement violated (decisions %v)",
				inst, out.Decisions)
		}
	}
	if badValidity != "" {
		m.validity++
		if m.firstBad == "" {
			m.firstBad = badValidity
		}
	}
}

// Summary snapshots the tallies.
func (m *Monitor) Summary() ConformSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ConformSummary{
		Checked:             m.checked,
		Undecided:           m.undecided,
		AgreementViolations: m.agreement,
		ValidityViolations:  m.validity,
		Clean:               m.agreement == 0 && m.validity == 0,
		FirstViolation:      m.firstBad,
	}
}
