// Package rounds implements the two round-based computational models of
// Charron-Bost, Guerraoui and Schiper (DSN 2000, Section 4):
//
//   - RS, the synchronous round model induced by the synchronous system SS.
//     It satisfies the *round synchrony* property: if pi is alive at the end
//     of round r and does not receive a message from pj at round r, then pj
//     failed before sending a message to pi at round r.
//
//   - RWS, the weakly synchronous round model induced by the asynchronous
//     system augmented with the perfect failure detector (SP). It satisfies
//     only the *weak round synchrony* property (the paper's Lemma 4.1): if
//     pi is alive at the end of round r and does not receive a message from
//     pj at round r, then pj crashes by the end of round r+1. In RWS a
//     faulty-but-still-running process may send a message that is never
//     received — a *pending* message.
//
// Algorithms are expressed exactly as in the paper: a state set, a
// message-generation function msgs_i and a state-transition function
// trans_i, executed in lock-step rounds. The adversary controls crashes,
// which recipients a crashing process still reaches, and (in RWS only)
// which messages become pending.
package rounds

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Message is an algorithm-defined round message. A nil Message is the
// paper's "null message" — it is never delivered and receivers observe its
// absence. Concrete algorithms define their own message types; engines
// treat messages as opaque.
type Message any

// ModelKind distinguishes the two round-based computational models.
type ModelKind int

const (
	// RS is the synchronous round model (emulated from SS).
	RS ModelKind = iota + 1
	// RWS is the weakly synchronous round model (emulated from SP).
	RWS
)

// String returns the paper's name for the model.
func (k ModelKind) String() string {
	switch k {
	case RS:
		return "RS"
	case RWS:
		return "RWS"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// ProcConfig carries the static parameters handed to each process automaton.
type ProcConfig struct {
	ID      model.ProcessID // this process's identity (1-based)
	N       int             // number of processes in the system
	T       int             // resilience bound: maximum number of crashes
	Initial model.Value     // the process's initial (proposed) value
}

// Process is one process automaton of a round-based algorithm, mirroring
// the paper's (states_i, msgs_i, trans_i) triple. Engines drive it in
// lock-step: Msgs is called at the start of each round to collect the
// outgoing messages, then Trans is called with the messages actually
// received. A process that crashes during round r has Msgs(r) called (its
// partial broadcast is delivered to an adversary-chosen subset) but never
// Trans(r).
//
// Halting contract: a process that has decided and whose Msgs(r) is nil has
// halted — it has nothing left to send and nothing left to learn. The live
// engine (internal/runtime) stops such an automaton at the start of round r
// and never calls it again: no round-r messages, no Trans(r). An algorithm
// must therefore keep Msgs non-nil for as long as a peer may still wait for
// its message — a process that decided early but is still relaying is not
// quiet — and all its live processes must go quiet at the same round. Every
// algorithm in this repository does, at round t+2 (pinned by
// consensus.TestQuiescenceContract); one that never goes quiet runs to the
// engine's MaxRounds cap instead.
type Process interface {
	// Msgs returns the message for each destination at the given 1-based
	// round, indexed by destination ProcessID (index 0 is unused). A nil
	// entry is a null message. A returned message is immutable: neither
	// its sender nor any engine or receiver writes it, or storage it
	// shares, again — so an engine may hand one message to every
	// destination and keep it past the round. Implementations may return
	// a cached slice, refilled by the next call; engines do not retain it
	// across rounds, and CloneProcess must not share it with the clone.
	Msgs(round int) []Message

	// Trans applies the state transition for the given round. received is
	// indexed by sender ProcessID (index 0 unused); a nil entry means no
	// message was received from that sender this round.
	Trans(round int, received []Message)

	// Decision returns the process's irrevocable decision, if any.
	Decision() (model.Value, bool)
}

// Cloner is an optional Process extension enabling cheap state snapshots.
// All algorithms in this repository implement it; the exhaustive explorer
// uses it to fork executions at adversary choice points. A clone may share
// sent messages and the state they share (both immutable), never the slice
// Msgs returns: the parallel explorer runs clones on other goroutines.
type Cloner interface {
	CloneProcess() Process
}

// Algorithm constructs the per-process automata of a round-based algorithm.
type Algorithm interface {
	// Name returns a stable human-readable identifier (e.g. "FloodSet").
	Name() string
	// New returns a fresh automaton for the given process.
	New(cfg ProcConfig) Process
}

// RoundRecord captures everything observable about one executed round.
type RoundRecord struct {
	Round int // 1-based round number

	// AliveStart is the set of processes alive at the start of the round.
	AliveStart model.ProcSet
	// Crashed is the set of processes that crashed during this round: they
	// delivered their message to the adversary-chosen subsets in Reached
	// and did not execute Trans.
	Crashed model.ProcSet

	// Sent[j] is the set of destinations for which pj generated a non-null
	// message this round (only meaningful for j ∈ AliveStart).
	Sent []model.ProcSet
	// Reached[j] is the subset of Sent[j] that actually received pj's
	// message this round.
	Reached []model.ProcSet

	// Messages is the count of messages actually delivered this round.
	Messages int
}

// dropped returns the destinations pj addressed but failed to reach.
func (rr *RoundRecord) dropped(j model.ProcessID) model.ProcSet {
	return rr.Sent[j].Minus(rr.Reached[j])
}

// Run records a complete execution of a round-based algorithm under one
// adversary. It is the object the checkers, latency analysis and
// experiments all operate on.
type Run struct {
	Algorithm string
	Model     ModelKind
	N, T      int

	// Initial[i] is p_{i+1}'s initial value... indexed 1..N with index 0
	// unused, matching the rest of the package.
	Initial []model.Value

	Rounds []RoundRecord

	// CrashRound[p] is the round during which p crashed, 0 if p is correct.
	CrashRound []int
	// DecidedAt[p] is the round at the end of which p decided, 0 if never.
	DecidedAt []int
	// DecisionOf[p] is p's decision value (meaningful iff DecidedAt[p] > 0).
	DecisionOf []model.Value

	// Truncated is set when the engine hit its round limit before every
	// live process decided; such runs are rejected by termination checks.
	Truncated bool
}

// Correct returns the set of processes that never crash in the run.
func (r *Run) Correct() model.ProcSet {
	s := model.FullSet(r.N)
	for p := 1; p <= r.N; p++ {
		if r.CrashRound[p] != 0 {
			s = s.Remove(model.ProcessID(p))
		}
	}
	return s
}

// Faulty returns the set of processes that crash in the run.
func (r *Run) Faulty() model.ProcSet {
	return model.FullSet(r.N).Minus(r.Correct())
}

// NumFaulty returns the number of processes that crash in the run.
func (r *Run) NumFaulty() int { return r.Faulty().Count() }

// Latency returns the run's latency degree |r|: the number of rounds until
// all correct processes have decided (Schiper's measure, paper §5.2). The
// boolean is false if some correct process never decided (then the run
// violates termination and has no finite latency).
func (r *Run) Latency() (int, bool) {
	latency := 0
	ok := true
	r.Correct().ForEach(func(p model.ProcessID) bool {
		d := r.DecidedAt[p]
		if d == 0 {
			ok = false
			return false
		}
		if d > latency {
			latency = d
		}
		return true
	})
	if !ok {
		return 0, false
	}
	return latency, true
}

// TotalMessages returns the number of messages delivered across all rounds.
func (r *Run) TotalMessages() int {
	total := 0
	for i := range r.Rounds {
		total += r.Rounds[i].Messages
	}
	return total
}

// String renders a compact single-line summary of the run.
func (r *Run) String() string {
	lat := "∞"
	if l, ok := r.Latency(); ok {
		lat = fmt.Sprintf("%d", l)
	}
	return fmt.Sprintf("%s/%s n=%d t=%d f=%d rounds=%d latency=%s",
		r.Algorithm, r.Model, r.N, r.T, r.NumFaulty(), len(r.Rounds), lat)
}

// RenderRun renders a run as the round-by-round narrative the CLIs and
// experiment reports print: the round table, decisions and latency degree.
func RenderRun(run *Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s in %s: n=%d t=%d\n", run.Algorithm, run.Model, run.N, run.T)
	fmt.Fprintf(&b, "initial values:")
	for p := 1; p <= run.N; p++ {
		fmt.Fprintf(&b, " %v=%d", model.ProcessID(p), int64(run.Initial[p]))
	}
	b.WriteByte('\n')
	for i := range run.Rounds {
		rr := &run.Rounds[i]
		fmt.Fprintf(&b, "round %d: alive %v", rr.Round, rr.AliveStart)
		if !rr.Crashed.Empty() {
			fmt.Fprintf(&b, ", crashes %v", rr.Crashed)
		}
		b.WriteByte('\n')
		for j := 1; j <= run.N; j++ {
			pj := model.ProcessID(j)
			if !rr.AliveStart.Has(pj) {
				continue
			}
			dropped := rr.dropped(pj).Remove(pj)
			switch {
			case rr.Sent[j].Empty():
				// silent round: nothing to report
			case dropped.Empty():
				fmt.Fprintf(&b, "  %v → %v\n", pj, rr.Reached[j].Remove(pj))
			default:
				fmt.Fprintf(&b, "  %v → %v (NOT received by %v)\n", pj, rr.Reached[j].Remove(pj), dropped)
			}
		}
	}
	b.WriteString("decisions:")
	for p := 1; p <= run.N; p++ {
		pid := model.ProcessID(p)
		switch {
		case run.DecidedAt[p] != 0:
			fmt.Fprintf(&b, " %v=%d@r%d", pid, int64(run.DecisionOf[p]), run.DecidedAt[p])
		case run.CrashRound[p] != 0:
			fmt.Fprintf(&b, " %v=✝r%d", pid, run.CrashRound[p])
		default:
			fmt.Fprintf(&b, " %v=⊥", pid)
		}
	}
	b.WriteByte('\n')
	if lat, ok := run.Latency(); ok {
		fmt.Fprintf(&b, "latency degree |r| = %d\n", lat)
	}
	return b.String()
}
