package consensus

import (
	"repro/internal/model"
	"repro/internal/rounds"
)

// COptFloodSet is the configuration-optimized FloodSet of §5.2: identical
// to FloodSet except that a process decides v already at round 1 if a
// message arrived from *every* process and all carried the same value v
// (|W| = 1 after the round-1 union). By uniform validity the decision is
// then forced, so the fast path is safe; it witnesses
// lat(C_OptFloodSet) = 1.
type COptFloodSet struct{}

var _ rounds.Algorithm = COptFloodSet{}

// Name implements rounds.Algorithm.
func (COptFloodSet) Name() string { return "C_OptFloodSet" }

// New implements rounds.Algorithm.
func (COptFloodSet) New(cfg rounds.ProcConfig) rounds.Process {
	p := &cOptProc{}
	p.start(cfg)
	return p
}

type cOptProc struct {
	flood
}

var (
	_ rounds.Process = (*cOptProc)(nil)
	_ rounds.Cloner  = (*cOptProc)(nil)
)

// Trans implements rounds.Process with the §5.2 decision rule:
//
//	if rounds = 1 and a message has arrived from every process then
//	    if |W| = 1 then decision := v, where W = {v}
//	else if rounds = t+1 then decision := min(W)
func (p *cOptProc) Trans(round int, received []rounds.Message) {
	p.decideFast(round, p.unionW(received, 0))
}

// decideFast applies the §5.2 decision rule once W holds the round's union
// and arrived is the set of senders heard from.
func (f *flood) decideFast(round int, arrived model.ProcSet) {
	switch {
	case round == 1 && arrived == model.FullSet(f.cfg.N):
		if f.w.Len() == 1 {
			f.decideMin()
		}
	case round == f.cfg.T+1:
		f.decideMin()
	}
}

// CloneProcess implements rounds.Cloner.
func (p *cOptProc) CloneProcess() rounds.Process {
	return &cOptProc{flood: p.fork()}
}

// COptFloodSetWS is the same configuration fast path grafted onto
// FloodSetWS, witnessing lat(C_OptFloodSetWS) = 1 in RWS. The fast path
// only fires when messages arrived from all n processes, in which case no
// pending message exists this round and the RS argument carries over.
type COptFloodSetWS struct{}

var _ rounds.Algorithm = COptFloodSetWS{}

// Name implements rounds.Algorithm.
func (COptFloodSetWS) Name() string { return "C_OptFloodSetWS" }

// New implements rounds.Algorithm.
func (COptFloodSetWS) New(cfg rounds.ProcConfig) rounds.Process {
	p := &cOptWSProc{}
	p.start(cfg)
	return p
}

type cOptWSProc struct {
	flood
	halt model.ProcSet
}

var (
	_ rounds.Process = (*cOptWSProc)(nil)
	_ rounds.Cloner  = (*cOptWSProc)(nil)
)

// Trans implements rounds.Process: FloodSetWS's halt-filtered union with
// the round-1 unanimity fast path.
func (p *cOptWSProc) Trans(round int, received []rounds.Message) {
	arrived := p.unionW(received, p.halt)
	p.halt = p.halt.Union(model.FullSet(p.cfg.N).Minus(arrived))
	p.decideFast(round, arrived)
}

// CloneProcess implements rounds.Cloner.
func (p *cOptWSProc) CloneProcess() rounds.Process {
	return &cOptWSProc{flood: p.fork(), halt: p.halt}
}
