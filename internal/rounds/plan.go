package rounds

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/model"
)

// View is the read-only information handed to an adversary before each
// round. It exposes everything the round-model adversary may legitimately
// base its choices on, including which processes are about to send non-null
// messages (a content-oblivious but send-pattern-aware adversary, which is
// what the paper's constructions use).
type View struct {
	Round       int           // the round about to execute (1-based)
	N, T        int           // system size and resilience bound
	Model       ModelKind     // RS or RWS
	Alive       model.ProcSet // processes alive at the start of the round
	FaultySoFar int           // number of processes crashed so far
	// Obligated is the set of processes that dropped a message in the
	// previous round and therefore MUST crash during this round for the run
	// to satisfy weak round synchrony (always empty in RS).
	Obligated model.ProcSet
	// Sending[j] is the set of destinations pj addresses with a non-null
	// message this round (only meaningful for j ∈ Alive).
	Sending []model.ProcSet
}

// Budget returns how many additional crashes the adversary may still cause.
func (v *View) Budget() int { return v.T - v.FaultySoFar }

// Plan is the adversary's decision for a single round.
type Plan struct {
	// Crashes maps each process that crashes *during* this round to the set
	// of destinations that still receive its round message. A crashing
	// process does not execute its state transition for this round.
	Crashes map[model.ProcessID]model.ProcSet

	// Drops maps a sender that stays alive through this round to the set of
	// destinations that do NOT receive its message this round (the paper's
	// pending messages). Only legal in RWS; weak round synchrony then
	// obliges the sender to crash by the end of the next round.
	Drops map[model.ProcessID]model.ProcSet
}

// FailureFree is the empty plan: no crashes, no pending messages.
var FailureFree = Plan{}

// crashSet returns the set of processes the plan crashes.
func (p Plan) crashSet() model.ProcSet {
	var s model.ProcSet
	for q := range p.Crashes {
		s = s.Add(q)
	}
	return s
}

// String renders the plan deterministically (map iteration order hidden).
func (p Plan) String() string {
	if len(p.Crashes) == 0 && len(p.Drops) == 0 {
		return "plan{}"
	}
	var crash, drop []string
	for q, reach := range p.Crashes {
		crash = append(crash, fmt.Sprintf("%v↯→%v", q, reach))
	}
	for q, dropped := range p.Drops {
		drop = append(drop, fmt.Sprintf("%v⊘%v", q, dropped))
	}
	sort.Strings(crash)
	sort.Strings(drop)
	out := "plan{"
	for i, s := range append(crash, drop...) {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out + "}"
}

// Adversary chooses the failure behaviour of each round. Implementations
// must be deterministic functions of the View (plus any internal seeded
// state) so that runs are reproducible.
type Adversary interface {
	// Plan returns the adversary's choices for the round described by v.
	// The engine validates the plan against the model's constraints and
	// aborts the run with an error if it is illegal.
	Plan(v *View) Plan
}

// AdversaryFunc adapts a function to the Adversary interface.
type AdversaryFunc func(v *View) Plan

// Plan implements Adversary.
func (f AdversaryFunc) Plan(v *View) Plan { return f(v) }

// NoFailures is the adversary of failure-free runs.
var NoFailures Adversary = AdversaryFunc(func(*View) Plan { return FailureFree })

// Script is a pre-computed adversary: Plans[i] is applied at round i+1 and
// every later round gets the failure-free plan. Scripts are how the
// exhaustive explorer and the paper's hand-built scenarios drive engines.
type Script struct {
	Plans []Plan
}

var _ Adversary = (*Script)(nil)

// Plan implements Adversary.
func (s *Script) Plan(v *View) Plan {
	if i := v.Round - 1; i < len(s.Plans) {
		return s.Plans[i]
	}
	if v.Obligated.Empty() {
		return FailureFree
	}
	// The script ended with weak-round-synchrony obligations outstanding;
	// discharge them in the most benign way: the obligated processes crash
	// while still reaching every destination they address.
	p := Plan{Crashes: make(map[model.ProcessID]model.ProcSet, v.Obligated.Count())}
	v.Obligated.ForEach(func(q model.ProcessID) bool {
		p.Crashes[q] = model.FullSet(v.N).Remove(q)
		return true
	})
	return p
}

// Errors reported by plan validation.
var (
	ErrNotAlive         = errors.New("rounds: plan crashes or drops a process that is not alive")
	ErrBudgetExceeded   = errors.New("rounds: plan exceeds the resilience bound t")
	ErrDropInRS         = errors.New("rounds: pending messages (drops) are impossible in the RS model")
	ErrDropSelf         = errors.New("rounds: a process cannot drop or withhold its message to itself")
	ErrDropAndCrash     = errors.New("rounds: a process cannot both crash and drop in the same round (a crashing process's unreached destinations are expressed via its reach set)")
	ErrObligationBroken = errors.New("rounds: weak round synchrony violated: a process that dropped a message failed to crash by the end of the next round")
)

// validate checks p against the model constraints given the view. It
// returns a descriptive error for the first violation found.
func (p Plan) validate(v *View) error {
	crashing := p.crashSet()
	if !crashing.Subset(v.Alive) {
		return fmt.Errorf("%w: crashes=%v alive=%v (round %d)", ErrNotAlive, crashing, v.Alive, v.Round)
	}
	if v.FaultySoFar+crashing.Count() > v.T {
		return fmt.Errorf("%w: %d crashed so far + %d new > t=%d (round %d)",
			ErrBudgetExceeded, v.FaultySoFar, crashing.Count(), v.T, v.Round)
	}
	if !v.Obligated.Subset(crashing) {
		return fmt.Errorf("%w: obligated=%v but crashing=%v (round %d)",
			ErrObligationBroken, v.Obligated, crashing, v.Round)
	}
	for q, reach := range p.Crashes {
		if reach.Has(q) {
			// Self-delivery is an internal matter of a process; a crashing
			// process never applies its transition, so naming itself in the
			// reach set is a plan bug.
			return fmt.Errorf("%w: %v reaches itself (round %d)", ErrDropSelf, q, v.Round)
		}
	}
	if len(p.Drops) > 0 && v.Model == RS {
		return fmt.Errorf("%w (round %d)", ErrDropInRS, v.Round)
	}
	droppers := 0
	for q, dropped := range p.Drops {
		if dropped.Empty() {
			continue
		}
		droppers++
		if !v.Alive.Has(q) {
			return fmt.Errorf("%w: dropper %v (round %d)", ErrNotAlive, q, v.Round)
		}
		if crashing.Has(q) {
			return fmt.Errorf("%w: %v (round %d)", ErrDropAndCrash, q, v.Round)
		}
		if dropped.Has(q) {
			return fmt.Errorf("%w: %v (round %d)", ErrDropSelf, q, v.Round)
		}
	}
	// Every dropper must still be crashable by the end of the next round:
	// weak round synchrony turns each drop into a future mandatory crash,
	// so droppers collectively need room in the budget beyond this round's
	// crashes.
	if droppers > 0 && v.FaultySoFar+crashing.Count()+droppers > v.T {
		return fmt.Errorf("%w: %d droppers exceed the remaining crash budget needed to honor weak round synchrony (round %d)",
			ErrBudgetExceeded, droppers, v.Round)
	}
	return nil
}
