package consensus

import (
	"repro/internal/model"
	"repro/internal/rounds"
)

// A1 is the paper's Figure 4, the uniform consensus algorithm for RS with
// t = 1 whose every run lasts at most two rounds and whose failure-free
// runs decide at round 1 (Λ(A1) = 1, Theorem 5.2):
//
//   - Round 1: p1 broadcasts its initial value v1. Every process that
//     receives v1 (including p1 itself) adopts it and decides immediately.
//   - Round 2: round-1 deciders broadcast (p1, w); if p2 did not hear from
//     p1 it broadcasts its own value v2. A process that receives some
//     (p1, w) decides w; otherwise it decides the value received from p2.
//
// Uniform agreement relies on round synchrony: if p1 completes round 1 it
// reached everyone. In RWS the same algorithm is incorrect — with all of
// p1's round-1 messages pending, p1 decides v1 and everyone else decides v2
// (the §5.3 disagreement scenario, reproduced in experiment E7) — and the
// paper shows no RWS algorithm can decide at round 1 of all failure-free
// runs: Λ(A) ≥ 2 in RWS.
//
// A1 assumes t = 1; New panics if configured otherwise (a programmer
// error, not a runtime condition).
type A1 struct{}

var _ rounds.Algorithm = A1{}

// Name implements rounds.Algorithm.
func (A1) Name() string { return "A1" }

// New implements rounds.Algorithm.
func (A1) New(cfg rounds.ProcConfig) rounds.Process {
	if cfg.T != 1 {
		panic("consensus: A1 requires t = 1")
	}
	return &a1Proc{cfg: cfg, w: cfg.Initial}
}

type a1Proc struct {
	cfg      rounds.ProcConfig
	w        model.Value
	decision model.Value
	decided  bool
	out      bcast
	boxed    int // the round out.msg was built for
}

var (
	_ rounds.Process = (*a1Proc)(nil)
	_ rounds.Cloner  = (*a1Proc)(nil)
)

// Msgs implements rounds.Process, Figure 4's msgs_i:
//
//	if rounds = 1 and i = 1 then send w to all
//	if rounds = 2 then
//	    if decided = true then send (p1, w) to all
//	    else if i = 2 then send w to all processes
func (p *a1Proc) Msgs(round int) []rounds.Message {
	if round != p.boxed {
		// The message depends on the round and on the state Trans left: box
		// it once per round, however often the round's Msgs is asked.
		p.boxed = round
		switch {
		case round == 1 && p.cfg.ID == 1:
			p.out.msg = A1Val{V: p.w}
		case round == 2 && p.decided:
			p.out.msg = A1Fwd{V: p.w}
		case round == 2 && p.cfg.ID == 2:
			p.out.msg = A1Val{V: p.w}
		default:
			p.out.msg = nil
		}
	}
	if p.out.msg == nil {
		return nil
	}
	return p.out.send(p.cfg.N)
}

// Trans implements rounds.Process, Figure 4's trans_i.
func (p *a1Proc) Trans(round int, received []rounds.Message) {
	switch round {
	case 1:
		if m, ok := received[1].(A1Val); ok {
			p.w = m.V
			p.decision, p.decided = m.V, true
		}
	case 2:
		if p.decided {
			return
		}
		for j := 1; j <= p.cfg.N; j++ {
			if m, ok := received[j].(A1Fwd); ok {
				p.decision, p.decided = m.V, true
				return
			}
		}
		if m, ok := received[2].(A1Val); ok {
			p.decision, p.decided = m.V, true
		}
	}
}

// Decision implements rounds.Process.
func (p *a1Proc) Decision() (model.Value, bool) { return p.decision, p.decided }

// CloneProcess implements rounds.Cloner.
func (p *a1Proc) CloneProcess() rounds.Process {
	c := *p
	c.out = p.out.fork()
	return &c
}
