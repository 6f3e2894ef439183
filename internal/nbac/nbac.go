// Package nbac implements Non-Blocking Atomic Commit in the RS and RWS
// round models, realizing the paper's Section 3 corollary: because the
// Strongly Dependent Decision problem is solvable in the synchronous model
// but not with a perfect failure detector, atomic commit protocols in SS
// can reach the Commit decision strictly more often than any protocol in
// SP, while satisfying the same specification.
//
// Specification (crash failures):
//
//   - Uniform agreement: no two processes (correct or faulty) decide
//     differently.
//   - Commit-validity: Commit is decided only if every process voted Yes.
//   - Abort-validity (non-triviality): Abort is decided only if some
//     process voted No or some process crashed.
//   - Termination: every correct process eventually decides.
//
// Both protocols flood the vote vector for t+1 rounds (FloodSet-style; the
// RWS variant adds FloodSetWS's halt mechanism) and then decide Commit iff
// every process's vote is known and is Yes. The SS/SP separation shows up
// in *when* a crashed process's vote is learnable:
//
//   - In RS (from SS), a process that completes its voting round reaches
//     everyone — message synchrony bounds delivery — so a crash after
//     voting can never force an Abort.
//   - In RWS (from SP), the adversary can leave the vote pending: the voter
//     is suspected, the receivers stop waiting, and the vote is lost even
//     though it was sent. The commit rate is strictly lower.
//
// Resilience scope: the protocols are verified exhaustively for t = 1 (the
// paper's setting); the flooding argument for vote-vector *equality* among
// deciders is the same clean-round argument as FloodSet's and extends to
// any t in RS, while in RWS the halt mechanism is what restores it (see
// EXPERIMENTS.md, E9).
package nbac

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/rounds"
)

// Vote values. Votes travel as model.Value in the engine's initial
// configuration: 0 = No, 1 = Yes.
const (
	VoteNo  model.Value = 0
	VoteYes model.Value = 1
)

// Decisions, encoded as model.Value so the rounds engine can record them.
const (
	Abort  model.Value = 0
	Commit model.Value = 1
)

// DecisionString renders a decision value.
func DecisionString(v model.Value) string {
	switch v {
	case Abort:
		return "ABORT"
	case Commit:
		return "COMMIT"
	default:
		return fmt.Sprintf("decision(%d)", int64(v))
	}
}

// voteUnknown marks a vote not yet learned.
const voteUnknown int8 = -1

// VotesMsg carries a process's current knowledge of the vote vector:
// Known[i] is p_i's vote (0/1) or voteUnknown. Index 0 is unused. A sent
// vector is immutable (rounds.Process): the sender copies its vector before
// the first write after a send, and receivers only read it.
type VotesMsg struct {
	Known []int8
}

// Protocol is the NBAC protocol, parameterized by the round model it is
// built for: WithHalt selects the FloodSetWS-style pending-message defense
// required in RWS.
type Protocol struct {
	// WithHalt enables the halt mechanism (required for RWS, harmless in RS).
	WithHalt bool
}

var _ rounds.Algorithm = Protocol{}

// ForRS returns the protocol variant designed for the RS model.
func ForRS() Protocol { return Protocol{WithHalt: false} }

// ForRWS returns the protocol variant designed for the RWS model.
func ForRWS() Protocol { return Protocol{WithHalt: true} }

// Name implements rounds.Algorithm.
func (p Protocol) Name() string {
	if p.WithHalt {
		return "NBAC-WS"
	}
	return "NBAC"
}

// New implements rounds.Algorithm.
func (p Protocol) New(cfg rounds.ProcConfig) rounds.Process {
	known := make([]int8, cfg.N+1)
	for i := range known {
		known[i] = voteUnknown
	}
	v := int8(0)
	if cfg.Initial != VoteNo {
		v = 1
	}
	known[cfg.ID] = v
	return &proc{cfg: cfg, withHalt: p.WithHalt, known: known}
}

type proc struct {
	cfg      rounds.ProcConfig
	withHalt bool
	known    []int8
	halt     model.ProcSet
	decided  bool
	decision model.Value

	// The cached broadcast: msg, when set, is VotesMsg{known}, and known is
	// then copied before it is written (copy-on-write).
	msg rounds.Message
	out []rounds.Message // 1..n
}

var (
	_ rounds.Process = (*proc)(nil)
	_ rounds.Cloner  = (*proc)(nil)
)

// Msgs implements rounds.Process: flood the known-votes vector for t+1
// rounds.
func (p *proc) Msgs(round int) []rounds.Message {
	if round > p.cfg.T+1 {
		return nil
	}
	if p.msg == nil {
		p.msg = VotesMsg{Known: p.known}
	}
	if p.out == nil {
		p.out = make([]rounds.Message, p.cfg.N+1)
	}
	for i := 1; i <= p.cfg.N; i++ {
		p.out[i] = p.msg
	}
	return p.out
}

// Trans implements rounds.Process: merge incoming vote vectors (ignoring
// halted senders when the halt mechanism is on), then decide at round t+1:
// Commit iff all n votes are known and Yes.
func (p *proc) Trans(round int, received []rounds.Message) {
	var arrived model.ProcSet
	for j := 1; j <= p.cfg.N; j++ {
		if received[j] == nil {
			continue
		}
		arrived = arrived.Add(model.ProcessID(j))
		if p.withHalt && p.halt.Has(model.ProcessID(j)) {
			continue
		}
		if m, ok := received[j].(VotesMsg); ok {
			for i := 1; i <= p.cfg.N; i++ {
				if p.known[i] == voteUnknown && m.Known[i] != voteUnknown {
					if p.msg != nil {
						p.known = slices.Clone(p.known) // the sent vector stays as sent
						p.msg = nil
					}
					p.known[i] = m.Known[i]
				}
			}
		}
	}
	if p.withHalt {
		p.halt = p.halt.Union(model.FullSet(p.cfg.N).Minus(arrived))
	}
	if round == p.cfg.T+1 && !p.decided {
		p.decision = Commit
		for i := 1; i <= p.cfg.N; i++ {
			if p.known[i] != 1 {
				p.decision = Abort
				break
			}
		}
		p.decided = true
	}
}

// Decision implements rounds.Process.
func (p *proc) Decision() (model.Value, bool) { return p.decision, p.decided }

// CloneProcess implements rounds.Cloner. The clone shares a sent vector and
// the message (both immutable), never the broadcast slice: the parallel
// explorer runs clones on other goroutines.
func (p *proc) CloneProcess() rounds.Process {
	c := *p
	c.out = nil
	if p.msg == nil {
		c.known = slices.Clone(p.known) // unsent: p may still write it
	}
	return &c
}
