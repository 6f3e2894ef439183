package consensus

import (
	"repro/internal/model"
	"repro/internal/rounds"
)

// FloodSet is the paper's Figure 1 (after Lynch): for t+1 rounds every
// process broadcasts W, the set of all values it has ever seen, and unions
// in everything it receives; at the end of round t+1 it decides min(W).
// Among t+1 rounds at least one is failure-free, so all W sets coincide by
// round t+1 and uniform consensus holds in RS.
//
// FloodSet is *not* correct in RWS: a pending message can smuggle a value
// to a subset of processes one round too late (experiment E2 exhibits the
// disagreement).
type FloodSet struct{}

var _ rounds.Algorithm = FloodSet{}

// Name implements rounds.Algorithm.
func (FloodSet) Name() string { return "FloodSet" }

// New implements rounds.Algorithm.
func (FloodSet) New(cfg rounds.ProcConfig) rounds.Process {
	p := &floodSetProc{}
	p.start(cfg)
	return p
}

type floodSetProc struct {
	flood
}

var (
	_ rounds.Process = (*floodSetProc)(nil)
	_ rounds.Cloner  = (*floodSetProc)(nil)
)

// Trans implements rounds.Process: W := W ∪ ⋃ X_j; decide min(W) at round
// t+1.
func (p *floodSetProc) Trans(round int, received []rounds.Message) {
	p.unionW(received, 0)
	if round == p.cfg.T+1 {
		p.decideMin()
	}
}

// CloneProcess implements rounds.Cloner.
func (p *floodSetProc) CloneProcess() rounds.Process {
	return &floodSetProc{flood: p.fork()}
}

// FloodSetWS is the paper's Figure 2: FloodSet adapted to the RWS model.
// Any process from which no message arrives at some round is added to a
// halt set, and messages from halted processes are ignored forever after.
// This neutralizes pending messages: a value that skips a round can no
// longer leak into some W sets but not others, and uniform consensus holds
// in RWS (the companion paper's result, checked exhaustively in E2).
type FloodSetWS struct{}

var _ rounds.Algorithm = FloodSetWS{}

// Name implements rounds.Algorithm.
func (FloodSetWS) Name() string { return "FloodSetWS" }

// New implements rounds.Algorithm.
func (FloodSetWS) New(cfg rounds.ProcConfig) rounds.Process {
	p := &floodSetWSProc{}
	p.start(cfg)
	return p
}

type floodSetWSProc struct {
	flood
	halt model.ProcSet
}

var (
	_ rounds.Process = (*floodSetWSProc)(nil)
	_ rounds.Cloner  = (*floodSetWSProc)(nil)
)

// Trans implements rounds.Process: W := W ∪ ⋃_{pj ∉ halt} X_j, then halt
// every process from which no message arrived.
func (p *floodSetWSProc) Trans(round int, received []rounds.Message) {
	arrived := p.unionW(received, p.halt)
	p.halt = p.halt.Union(model.FullSet(p.cfg.N).Minus(arrived))
	if round == p.cfg.T+1 {
		p.decideMin()
	}
}

// CloneProcess implements rounds.Cloner.
func (p *floodSetWSProc) CloneProcess() rounds.Process {
	return &floodSetWSProc{flood: p.fork(), halt: p.halt}
}
