package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/rounds"
	"repro/internal/stats"
)

// E1FloodSetRS: exhaustive verification of Figure 1 in RS, for t = 0..2,
// plus the t+1-round latency profile.
func E1FloodSetRS(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	table := stats.NewTable("FloodSet in RS (n=3, exhaustive adversaries, all binary+distinct configs)",
		"t", "runs", "violations", "lat", "Lat", "Λ")
	pass := true
	for t := 0; t <= 2; t++ {
		d, err := latency.Compute(rounds.RS, consensus.FloodSet{}, 3, t, cfg.ExploreOptions())
		if err != nil {
			return nil, err
		}
		table.AddRow(t, d.Runs, d.Violations, d.Lat, d.LatMax, d.Lambda)
		if d.Violations != 0 || d.Lambda != t+1 {
			pass = false
		}
	}
	return &Report{
		ID: "E1", Title: "FloodSet solves uniform consensus in RS",
		Paper:    "FloodSet decides min(W) at round t+1 and satisfies uniform consensus in RS",
		Measured: "0 violations over every admissible RS run; every latency measure equals t+1",
		Pass:     pass,
		Table:    table,
	}, nil
}

// E2FloodSetWS: FloodSetWS is exhaustively correct in RWS while plain
// FloodSet has a pending-message disagreement, which the explorer finds.
func E2FloodSetWS(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	table := stats.NewTable("Uniform consensus in RWS (n=3, t=1, exhaustive adversaries)",
		"algorithm", "runs", "violations")
	ws, err := latency.Compute(rounds.RWS, consensus.FloodSetWS{}, 3, 1, cfg.ExploreOptions())
	if err != nil {
		return nil, err
	}
	table.AddRow("FloodSetWS", ws.Runs, ws.Violations)
	fs, err := latency.Compute(rounds.RWS, consensus.FloodSet{}, 3, 1, cfg.ExploreOptions())
	if err != nil {
		return nil, err
	}
	table.AddRow("FloodSet", fs.Runs, fs.Violations)
	r := &Report{
		ID: "E2", Title: "FloodSetWS in RWS; FloodSet's pending-message disagreement",
		Paper:    "\"Because of pending messages, FloodSet allows disagreement in RWS\"; FloodSetWS solves uniform consensus in RWS",
		Measured: fmt.Sprintf("FloodSetWS: %d/%d clean; FloodSet: %d violating runs found", ws.Runs-ws.Violations, ws.Runs, fs.Violations),
		Pass:     ws.Violations == 0 && fs.Violations > 0,
		Table:    table,
	}
	if fs.Witness != nil {
		r.Notes = append(r.Notes, "FloodSet counterexample:\n"+rounds.RenderRun(fs.Witness))
	}
	return r, nil
}

// E3FOpt: Theorem 5.1 — F_OptFloodSet(WS) solve uniform consensus, and
// with t initial crashes every process decides at round 1.
func E3FOpt(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	table := stats.NewTable("F_OptFloodSet (n=3..5, t=1): exhaustive spec check + t-initial-crash latency",
		"algorithm", "model", "n", "runs", "violations", "latency with t initial crashes")
	pass := true
	for _, tc := range []struct {
		alg  rounds.Algorithm
		kind rounds.ModelKind
	}{
		{consensus.FOptFloodSet{}, rounds.RS},
		{consensus.FOptFloodSetWS{}, rounds.RWS},
	} {
		d, err := latency.Compute(tc.kind, tc.alg, 3, 1, cfg.ExploreOptions())
		if err != nil {
			return nil, err
		}
		for _, n := range []int{3, 4, 5} {
			initial := make([]model.Value, n)
			for i := range initial {
				initial[i] = model.Value(i + 1)
			}
			adv := &rounds.InitialCrashAdversary{Victims: model.Singleton(1)}
			run, err := rounds.RunAlgorithm(tc.kind, tc.alg, initial, 1, adv)
			if err != nil {
				return nil, err
			}
			lat, ok := run.Latency()
			if !ok || lat != 1 || check.FirstViolation(run) != nil {
				pass = false
			}
			if n == 3 {
				table.AddRow(tc.alg.Name(), tc.kind, n, d.Runs, d.Violations, lat)
			} else {
				table.AddRow(tc.alg.Name(), tc.kind, n, "-", "-", lat)
			}
		}
		if d.Violations != 0 {
			pass = false
		}
	}
	return &Report{
		ID: "E3", Title: "F_OptFloodSet correctness and fast path",
		Paper:    "Thm 5.1: F_OptFloodSet and F_OptFloodSetWS solve uniform consensus; with t initial crashes they decide at round 1",
		Measured: "0 violations exhaustively (t=1); latency 1 in every t-initial-crash run",
		Pass:     pass,
		Table:    table,
	}, nil
}

// E4A1: Theorem 5.2 — A1 solves uniform consensus in RS, every run lasts at
// most 2 rounds, and Λ(A1)=1.
func E4A1(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	d, err := latency.Compute(rounds.RS, consensus.A1{}, 3, 1, cfg.ExploreOptions())
	if err != nil {
		return nil, err
	}
	maxLat := d.LatByF[1] // the max over runs with at most t=1 crashes: every run
	table := stats.NewTable("A1 in RS (n=3, t=1, exhaustive)",
		"runs", "violations", "max rounds", "lat", "Lat", "Λ", "Lat(A,1)")
	table.AddRow(d.Runs, d.Violations, maxLat, d.Lat, d.LatMax, d.Lambda, d.LatByF[1])
	return &Report{
		ID: "E4", Title: "A1: two rounds always, one round failure-free",
		Paper:    "Thm 5.2: A1 tolerates one crash and solves uniform consensus in RS; all runs have two rounds; Λ(A1)=1",
		Measured: fmt.Sprintf("0 violations over %d runs; max latency %d; Λ=%d", d.Runs, maxLat, d.Lambda),
		Pass:     d.Violations == 0 && maxLat <= 2 && d.Lambda == 1,
		Table:    table,
	}, nil
}

// E5COpt: lat(C_OptFloodSet) = lat(C_OptFloodSetWS) = 1.
func E5COpt(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	table := stats.NewTable("Configuration-optimized FloodSet (n=3, t=1)",
		"algorithm", "model", "lat(A)", "Lat(A)", "Λ(A)")
	pass := true
	for _, tc := range []struct {
		alg  rounds.Algorithm
		kind rounds.ModelKind
	}{
		{consensus.COptFloodSet{}, rounds.RS},
		{consensus.COptFloodSetWS{}, rounds.RWS},
	} {
		d, err := latency.Compute(tc.kind, tc.alg, 3, 1, cfg.ExploreOptions())
		if err != nil {
			return nil, err
		}
		table.AddRow(tc.alg.Name(), tc.kind, d.Lat, d.LatMax, d.Lambda)
		if d.Lat != 1 || d.Violations != 0 {
			pass = false
		}
	}
	return &Report{
		ID: "E5", Title: "lat(C_OptFloodSet) = lat(C_OptFloodSetWS) = 1",
		Paper:    "§5.2: the unanimity fast path gives both models latency degree lat(A) = 1",
		Measured: "lat = 1 in both models (the measure cannot separate RS from RWS)",
		Pass:     pass,
		Table:    table,
	}, nil
}

// E6FOptLat: Lat(F_OptFloodSet) = Lat(F_OptFloodSetWS) = 1.
func E6FOptLat(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	table := stats.NewTable("Failure-optimized FloodSet (n=3, t=1)",
		"algorithm", "model", "lat(A)", "Lat(A)", "Λ(A)", "Lat(A,1)")
	pass := true
	for _, tc := range []struct {
		alg  rounds.Algorithm
		kind rounds.ModelKind
	}{
		{consensus.FOptFloodSet{}, rounds.RS},
		{consensus.FOptFloodSetWS{}, rounds.RWS},
	} {
		d, err := latency.Compute(tc.kind, tc.alg, 3, 1, cfg.ExploreOptions())
		if err != nil {
			return nil, err
		}
		table.AddRow(tc.alg.Name(), tc.kind, d.Lat, d.LatMax, d.Lambda, d.LatByF[1])
		if d.LatMax != 1 || d.Violations != 0 {
			pass = false
		}
	}
	return &Report{
		ID: "E6", Title: "Lat(F_OptFloodSet) = Lat(F_OptFloodSetWS) = 1",
		Paper: "§5.2: with t initial crashes a decision is reached at round 1 from every configuration — " +
			"\"this contradicts a widespread idea that minimal latency degree is typically obtained with failure free runs\"",
		Measured: "Lat = 1 in both models; the minimum over f is attained at f = t, not f = 0 (Λ = 2)",
		Pass:     pass,
		Table:    table,
	}, nil
}

// E7Lambda: the Λ separation — Λ(A1)=1 in RS while every RWS algorithm has
// Λ ≥ 2; A1 transplanted to RWS disagrees; the generic refuter defeats any
// deterministic round-1 RWS candidate.
func E7Lambda(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	table := stats.NewTable("Λ latency degree by model (n=3, t=1)",
		"algorithm", "model", "Λ(A)", "correct?")
	pass := true

	d, err := latency.Compute(rounds.RS, consensus.A1{}, 3, 1, cfg.ExploreOptions())
	if err != nil {
		return nil, err
	}
	table.AddRow("A1", rounds.RS, d.Lambda, d.Violations == 0)
	if d.Lambda != 1 {
		pass = false
	}
	for _, alg := range consensus.ForModel(rounds.RWS) {
		dw, err := latency.Compute(rounds.RWS, alg, 3, 1, cfg.ExploreOptions())
		if err != nil {
			return nil, err
		}
		table.AddRow(alg.Name(), rounds.RWS, dw.Lambda, dw.Violations == 0)
		if dw.Lambda < 2 || dw.Violations != 0 {
			pass = false
		}
	}

	r := &Report{
		ID: "E7", Title: "RS decides failure-free consensus one round sooner than RWS",
		Paper: "§5.3: Λ(A1)=1 in RS; for any uniform consensus algorithm A in RWS (n ≥ 3, t = 1), Λ(A) ≥ 2; " +
			"A1's round-1 decision loses uniform agreement in RWS",
		Table: table,
	}

	// A1-in-RWS disagreement witness (the paper's scenario).
	script := &rounds.Script{Plans: []rounds.Plan{
		{Drops: map[model.ProcessID]model.ProcSet{1: model.FullSet(3).Remove(1)}},
		{Crashes: map[model.ProcessID]model.ProcSet{1: 0}},
	}}
	witness, err := rounds.RunAlgorithm(rounds.RWS, consensus.A1{}, []model.Value{3, 1, 2}, 1, script)
	if err != nil {
		return nil, err
	}
	if check.UniformAgreement(witness).OK {
		pass = false
	} else {
		r.Notes = append(r.Notes, "A1 in RWS, the §5.3 scenario:\n"+rounds.RenderRun(witness))
	}

	// Generic lower-bound refuter against A1 (and hence any deterministic
	// candidate that decides at round 1 of all failure-free runs).
	ref, err := explore.RefuteRoundOneRWS(consensus.A1{}, 3, 1)
	if err != nil {
		return nil, err
	}
	if ref.Kind != explore.AgreementViolation {
		pass = false
	}
	r.Notes = append(r.Notes, "mechanized lower bound: "+ref.Kind.String()+" — "+ref.Detail)

	r.Pass = pass
	r.Measured = "Λ(A1)=1 in RS; Λ ≥ 2 for every RWS algorithm; refuter produced a concrete disagreement for the round-1 candidate"
	return r, nil
}
