package consensus

import (
	"repro/internal/model"
	"repro/internal/rounds"
)

// FOptFloodSet is the paper's Figure 3: the failure-optimized FloodSet. A
// process that receives exactly n−t messages at round 1 knows (by round
// synchrony) the exact set of faulty processes, so it can decide min(W)
// immediately and force that decision on everyone at round 2 with a
// (D, decision) message. In runs where t processes crash initially every
// process decides at round 1, witnessing Lat(F_OptFloodSet) = 1 — the
// paper's observation that minimal latency is *not* obtained in
// failure-free runs.
type FOptFloodSet struct{}

var _ rounds.Algorithm = FOptFloodSet{}

// Name implements rounds.Algorithm.
func (FOptFloodSet) Name() string { return "F_OptFloodSet" }

// New implements rounds.Algorithm.
func (FOptFloodSet) New(cfg rounds.ProcConfig) rounds.Process {
	p := &fOptProc{}
	p.start(cfg)
	return p
}

type fOptProc struct {
	flood
}

var (
	_ rounds.Process = (*fOptProc)(nil)
	_ rounds.Cloner  = (*fOptProc)(nil)
)

// Msgs implements rounds.Process:
//
//	if rounds ≤ t then
//	    if decided = false then send W to all processes
//	    else send (D, decision) to all processes
func (p *fOptProc) Msgs(round int) []rounds.Message { return p.msgsD(round) }

// msgsD is Figure 3's msgs: W until decided, then (D, decision). Trans
// drops the cached message when the decision is taken.
func (f *flood) msgsD(round int) []rounds.Message {
	if round > f.cfg.T+1 || !f.decided {
		return f.Msgs(round)
	}
	if f.out.msg == nil {
		f.out.msg = DMsg{V: f.decision}
	}
	return f.out.send(f.cfg.N)
}

// Trans implements rounds.Process, Figure 3's transition:
//
//	if rounds = 1 and n−t messages have arrived then decide min(W)
//	else if at least one X_j equals (D, v) then decide v
//	else W := W ∪ ⋃_j X_j
//	if rounds = t+1 and decided = false then decide min(W)
func (p *fOptProc) Trans(round int, received []rounds.Message) {
	was := p.decided
	arrived := arrivedSet(received)
	forced := model.NoValue
	forcedOK := false
	for j := 1; j <= p.cfg.N; j++ {
		if m, ok := received[j].(DMsg); ok {
			forced, forcedOK = m.V, true
			break
		}
	}
	switch {
	case round == 1 && arrived.Count() == p.cfg.N-p.cfg.T:
		p.unionW(received, 0)
		p.decideMin()
	case forcedOK:
		if !p.decided {
			p.decision, p.decided = forced, true
		}
	default:
		p.unionW(received, 0)
	}
	if round == p.cfg.T+1 {
		p.decideMin()
	}
	if p.decided != was {
		p.out.msg = nil // the message is (D, decision) from now on
	}
}

// CloneProcess implements rounds.Cloner.
func (p *fOptProc) CloneProcess() rounds.Process {
	return &fOptProc{flood: p.fork()}
}

// FOptFloodSetWS grafts Figure 3's n−t fast path onto FloodSetWS, the RWS
// adaptation the paper calls F_OptFloodSetWS (its code is not spelled out
// in the paper; this is the natural translation with the halt mechanism).
//
// Why the fast path stays safe in RWS even though Theorem 5.1's case-2
// argument leans on round synchrony: a round-1 fast decider misses exactly
// t senders, and in RWS every missing sender is already doomed — it either
// crashed during round 1 or made its message pending, which obliges it to
// crash by round 2. The t missing processes therefore exhaust the entire
// failure budget, so (i) every fast decider misses the same t processes and
// computes the same W (round-1 messages are identical to all destinations),
// and (ii) the fast deciders themselves are necessarily correct, so their
// round-2 (D, v) forcing cannot be lost to pending messages. Experiment E3
// checks this exhaustively for t = 1 and t = 2.
type FOptFloodSetWS struct{}

var _ rounds.Algorithm = FOptFloodSetWS{}

// Name implements rounds.Algorithm.
func (FOptFloodSetWS) Name() string { return "F_OptFloodSetWS" }

// New implements rounds.Algorithm.
func (FOptFloodSetWS) New(cfg rounds.ProcConfig) rounds.Process {
	p := &fOptWSProc{}
	p.start(cfg)
	return p
}

type fOptWSProc struct {
	flood
	halt model.ProcSet
}

var (
	_ rounds.Process = (*fOptWSProc)(nil)
	_ rounds.Cloner  = (*fOptWSProc)(nil)
)

// Msgs implements rounds.Process (F_OptFloodSet's).
func (p *fOptWSProc) Msgs(round int) []rounds.Message { return p.msgsD(round) }

// Trans implements rounds.Process: Figure 3's rule with FloodSetWS's
// halt-filtered union.
func (p *fOptWSProc) Trans(round int, received []rounds.Message) {
	was := p.decided
	var arrived model.ProcSet
	forced := model.NoValue
	forcedOK := false
	for j := 1; j <= p.cfg.N; j++ {
		if received[j] == nil {
			continue
		}
		arrived = arrived.Add(model.ProcessID(j))
		if m, ok := received[j].(DMsg); ok && !p.halt.Has(model.ProcessID(j)) && !forcedOK {
			forced, forcedOK = m.V, true
		}
	}
	switch {
	case round == 1 && arrived.Count() == p.cfg.N-p.cfg.T:
		p.unionW(received, p.halt)
		p.decideMin()
	case forcedOK:
		if !p.decided {
			p.decision, p.decided = forced, true
		}
	default:
		p.unionW(received, p.halt)
	}
	p.halt = p.halt.Union(model.FullSet(p.cfg.N).Minus(arrived))
	if round == p.cfg.T+1 {
		p.decideMin()
	}
	if p.decided != was {
		p.out.msg = nil // the message is (D, decision) from now on
	}
}

// CloneProcess implements rounds.Cloner.
func (p *fOptWSProc) CloneProcess() rounds.Process {
	return &fOptWSProc{flood: p.fork(), halt: p.halt}
}
