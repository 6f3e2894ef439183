package consensus

import (
	"repro/internal/model"
	"repro/internal/rounds"
)

// EarlyStoppingFloodSet extends FloodSet with the classic early-stopping
// rule: a process decides at the end of round r ≥ 2 as soon as it perceives
// no new failure — the set of processes it heard from at round r equals the
// set heard at round r−1 — and at round t+1 at the latest. Its latency
// adapts to the actual number of crashes: Lat(A,f) = min(f+2, t+1), which
// the companion paper's line of work shows is exactly the uniform consensus
// bound.
//
// Correctness scope (documented and tested, see EXPERIMENTS.md): the rule
// solves *uniform* consensus in RS for t ≤ 2 (verified exhaustively here),
// but for t ≥ 3 a three-crash chain defeats it — value hidden by a round-1
// crasher, relayed by a round-2 crasher, decided by a round-3 crasher — and
// TestEarlyStoppingUniformityBreaksAtT3 scripts that run. It always solves
// plain (non-uniform) consensus: the early decider that breaks uniformity
// is necessarily faulty. This mechanizes the paper's §5.1 remark that
// consensus and uniform consensus genuinely differ in these models.
type EarlyStoppingFloodSet struct{}

var _ rounds.Algorithm = EarlyStoppingFloodSet{}

// Name implements rounds.Algorithm.
func (EarlyStoppingFloodSet) Name() string { return "EarlyStoppingFloodSet" }

// New implements rounds.Algorithm.
func (EarlyStoppingFloodSet) New(cfg rounds.ProcConfig) rounds.Process {
	p := &earlyStopProc{}
	p.start(cfg)
	return p
}

type earlyStopProc struct {
	flood
	prevHeard model.ProcSet
}

var (
	_ rounds.Process = (*earlyStopProc)(nil)
	_ rounds.Cloner  = (*earlyStopProc)(nil)
)

// Trans implements rounds.Process: union everything, then decide on a
// stable heard-set or at the t+1 deadline.
func (p *earlyStopProc) Trans(round int, received []rounds.Message) {
	heard := p.unionW(received, 0)
	stable := round >= 2 && heard == p.prevHeard
	p.prevHeard = heard
	if stable || round == p.cfg.T+1 {
		p.decideMin()
	}
}

// CloneProcess implements rounds.Cloner.
func (p *earlyStopProc) CloneProcess() rounds.Process {
	return &earlyStopProc{flood: p.fork(), prevHeard: p.prevHeard}
}

// EarlyDecideFloodSet is the one-round fast variant that separates plain
// consensus from uniform consensus in RS: a process decides min(W) already
// at round 1 when it heard from all n processes. If the early decider stays
// correct, its full W floods to everyone and all decisions coincide —
// plain consensus holds. But a round-1 crasher can confide a value to the
// early decider alone; if the decider then crashes, the survivors decide
// without that value: uniform agreement fails while every correct process
// still agrees. The paper's §5.1 cites exactly this phenomenon ("this
// result holds neither in RS nor in RWS") to justify studying the uniform
// problem.
type EarlyDecideFloodSet struct{}

var _ rounds.Algorithm = EarlyDecideFloodSet{}

// Name implements rounds.Algorithm.
func (EarlyDecideFloodSet) Name() string { return "EarlyDecideFloodSet" }

// New implements rounds.Algorithm.
func (EarlyDecideFloodSet) New(cfg rounds.ProcConfig) rounds.Process {
	p := &earlyDecideProc{}
	p.start(cfg)
	return p
}

type earlyDecideProc struct {
	flood
}

var (
	_ rounds.Process = (*earlyDecideProc)(nil)
	_ rounds.Cloner  = (*earlyDecideProc)(nil)
)

// Trans implements rounds.Process.
func (p *earlyDecideProc) Trans(round int, received []rounds.Message) {
	heard := p.unionW(received, 0)
	if (round == 1 && heard == model.FullSet(p.cfg.N)) || round == p.cfg.T+1 {
		p.decideMin()
	}
}

// CloneProcess implements rounds.Cloner.
func (p *earlyDecideProc) CloneProcess() rounds.Process {
	return &earlyDecideProc{flood: p.fork()}
}
