package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/rounds"
	"repro/internal/stats"
)

// E12Extensions collects the reproduction's extension results, which push
// past the paper into the territory its discussion points at:
//
//  1. Early-stopping uniform consensus in RS: the stable-heard-set rule
//     adapts latency to the actual number of failures, Lat(A,f) =
//     min(f+2, t+1); it is exhaustively correct for t ≤ 2 and a scripted
//     three-crash chain defeats it at t = 3 — the f+2 uniform bound is
//     tight.
//  2. Consensus vs uniform consensus (§5.1's remark on [8]): the
//     EarlyDecideFloodSet variant solves plain consensus in RS while
//     violating uniform agreement, so the two problems genuinely differ in
//     RS — the reproduction exhibits the separating run.
func E12Extensions(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	pass := true
	table := stats.NewTable("Early stopping in RS (n=4, t=2): Lat(A,f) = min(f+2, t+1)",
		"algorithm", "Lat(A,0)", "Lat(A,1)", "Lat(A,2)", "violations")
	exOpts := cfg.ExploreOptions()
	exOpts.MaxCrashesPerRound = 2
	for _, alg := range []rounds.Algorithm{consensus.EarlyStoppingFloodSet{}, consensus.FloodSet{}} {
		d, err := latency.Compute(rounds.RS, alg, 4, 2, exOpts)
		if err != nil {
			return nil, err
		}
		table.AddRow(alg.Name(), d.LatByF[0], d.LatByF[1], d.LatByF[2], d.Violations)
		if d.Violations != 0 {
			pass = false
		}
		if alg.Name() == "EarlyStoppingFloodSet" && (d.LatByF[0] != 2 || d.LatByF[2] != 3) {
			pass = false
		}
	}

	r := &Report{
		ID: "E12", Title: "Extensions: early stopping and the consensus/uniform-consensus gap",
		Paper: "beyond the paper: early-deciding uniform consensus takes min(f+2, t+1) rounds; " +
			"§5.1 remarks that consensus and uniform consensus differ in RS and RWS",
		Table: table,
	}

	// The t=3 chain that breaks naive early stopping.
	chain := &rounds.Script{Plans: []rounds.Plan{
		{Crashes: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
		{Crashes: map[model.ProcessID]model.ProcSet{2: model.Singleton(3)}},
		{Crashes: map[model.ProcessID]model.ProcSet{3: 0}},
	}}
	broken, err := rounds.RunAlgorithm(rounds.RS, consensus.EarlyStoppingFloodSet{},
		[]model.Value{0, 1, 2, 3, 4}, 3, chain)
	if err != nil {
		return nil, err
	}
	if check.UniformAgreement(broken).OK || !check.Agreement(broken).OK {
		pass = false
	} else {
		r.Notes = append(r.Notes,
			"t=3 three-crash chain defeating naive early stopping (uniform agreement fails, plain agreement survives):\n"+
				rounds.RenderRun(broken))
	}

	// The consensus-vs-uniform separation witness.
	sep := &rounds.Script{Plans: []rounds.Plan{
		{Crashes: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
		{Crashes: map[model.ProcessID]model.ProcSet{2: 0}},
	}}
	witness, err := rounds.RunAlgorithm(rounds.RS, consensus.EarlyDecideFloodSet{},
		[]model.Value{0, 5, 9}, 2, sep)
	if err != nil {
		return nil, err
	}
	if check.UniformAgreement(witness).OK || !check.Agreement(witness).OK {
		pass = false
	} else {
		r.Notes = append(r.Notes,
			"EarlyDecideFloodSet separating consensus from uniform consensus in RS:\n"+rounds.RenderRun(witness))
	}

	r.Pass = pass
	r.Measured = fmt.Sprintf("early stopping: Λ=2 < t+1=3 with 0 violations at t≤2; " +
		"t=3 chain and consensus/uniform separation both exhibited")
	return r, nil
}
