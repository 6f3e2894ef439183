package consensus

import (
	"testing"

	"repro/internal/check"
	"repro/internal/explore"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/rounds"
)

// TestEarlyStoppingExhaustive verifies EarlyStoppingFloodSet against every
// admissible RS adversary for t = 1 and t = 2 (n = 3): uniform consensus
// holds in both, confirming the rule's safety up to two crashes.
func TestEarlyStoppingExhaustive(t *testing.T) {
	for _, tol := range []int{1, 2} {
		for _, cfg := range latency.Configurations(3) {
			_, err := explore.Runs(rounds.RS, EarlyStoppingFloodSet{}, cfg, tol, explore.Options{}, func(run *rounds.Run) bool {
				if run.Truncated {
					return true
				}
				if bad := check.FirstViolation(run); bad != nil {
					t.Fatalf("t=%d config %v: %s\nrun %s", tol, cfg, bad, run)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEarlyStoppingLatencyAdapts: Lat(A,f) = min(f+2, t+1) — the
// early-stopping gain over plain FloodSet.
func TestEarlyStoppingLatencyAdapts(t *testing.T) {
	d, err := latency.Compute(rounds.RS, EarlyStoppingFloodSet{}, 4, 2, explore.Options{MaxCrashesPerRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Violations != 0 {
		t.Fatalf("%d violations during latency exploration", d.Violations)
	}
	// Λ = Lat(A,0) = 2 < t+1 = 3: failure-free runs stop early.
	if d.Lambda != 2 {
		t.Errorf("Λ = %d, want 2 (failure-free early stop)", d.Lambda)
	}
	if d.LatByF[2] != 3 {
		t.Errorf("Lat(A,2) = %d, want t+1 = 3", d.LatByF[2])
	}
	// Compare: plain FloodSet pays t+1 rounds even failure-free.
	plain, err := latency.Compute(rounds.RS, FloodSet{}, 4, 2, explore.Options{MaxCrashesPerRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Lambda != 3 {
		t.Errorf("FloodSet Λ = %d, want 3", plain.Lambda)
	}
}

// TestEarlyStoppingUniformityBreaksAtT3 scripts the three-crash chain that
// defeats the naive early-stopping rule at t = 3 (n = 5): p1 confides the
// minimum to p2 alone while crashing; p2 relays it to p3 alone while
// crashing; p3 perceives a stable heard-set, decides the minimum, and
// crashes silently. The survivors never see the value: uniform agreement
// fails, while plain (correct-only) agreement survives — the uniform
// problem is strictly harder, and f+2 rounds are genuinely needed.
func TestEarlyStoppingUniformityBreaksAtT3(t *testing.T) {
	script := &rounds.Script{Plans: []rounds.Plan{
		{Crashes: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
		{Crashes: map[model.ProcessID]model.ProcSet{2: model.Singleton(3)}},
		{Crashes: map[model.ProcessID]model.ProcSet{3: 0}},
	}}
	run, err := rounds.RunAlgorithm(rounds.RS, EarlyStoppingFloodSet{},
		[]model.Value{0, 1, 2, 3, 4}, 3, script)
	if err != nil {
		t.Fatal(err)
	}
	if v := rounds.RoundSynchrony(run.Receptions()); len(v) != 0 {
		t.Fatalf("scenario not RS-admissible: %v", v[0].Error())
	}
	if run.DecidedAt[3] != 2 || run.DecisionOf[3] != 0 {
		t.Fatalf("p3 decided (%d at round %d), want (0 at round 2)",
			run.DecisionOf[3], run.DecidedAt[3])
	}
	if ua := check.UniformAgreement(run); ua.OK {
		t.Fatal("expected a uniform agreement violation at t=3")
	}
	if pa := check.Agreement(run); !pa.OK {
		t.Fatalf("plain agreement should survive (the bad decider is faulty): %s", pa.Detail)
	}
	for p := 4; p <= 5; p++ {
		if run.DecisionOf[p] != 1 {
			t.Errorf("p%d decided %d, want 1 (value 0 died with the crash chain)", p, run.DecisionOf[p])
		}
	}
}

// TestEarlyDecideSeparatesConsensusFromUniform mechanizes §5.1's remark:
// EarlyDecideFloodSet solves plain consensus in RS but not uniform
// consensus. The explorer confirms correct-only agreement over every run
// (t = 2, n = 3 — the violation needs a confider crash plus the early
// decider's own crash) and finds a uniform violation.
func TestEarlyDecideSeparatesConsensusFromUniform(t *testing.T) {
	var uniformViolation *rounds.Run
	for _, cfg := range latency.Configurations(3) {
		_, err := explore.Runs(rounds.RS, EarlyDecideFloodSet{}, cfg, 2, explore.Options{}, func(run *rounds.Run) bool {
			if run.Truncated {
				return true
			}
			if pa := check.Agreement(run); !pa.OK {
				t.Fatalf("plain agreement violated: %s\nrun %s", pa.Detail, run)
			}
			if term := check.Termination(run); !term.OK {
				t.Fatalf("termination violated: %s", term.Detail)
			}
			if ua := check.UniformAgreement(run); !ua.OK && uniformViolation == nil {
				uniformViolation = run
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if uniformViolation == nil {
		t.Fatal("expected some run to violate uniform agreement (consensus ≠ uniform consensus in RS)")
	}
}

// TestEarlyDecideScriptedViolation pins the §5.1 separation scenario
// explicitly: p1 confides its minimum to p2 only and crashes; p2 heard from
// everyone, decides at round 1, and crashes; p3 decides without the value.
func TestEarlyDecideScriptedViolation(t *testing.T) {
	script := &rounds.Script{Plans: []rounds.Plan{
		{Crashes: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
		{Crashes: map[model.ProcessID]model.ProcSet{2: 0}},
	}}
	run, err := rounds.RunAlgorithm(rounds.RS, EarlyDecideFloodSet{}, []model.Value{0, 5, 9}, 2, script)
	if err != nil {
		t.Fatal(err)
	}
	if run.DecidedAt[2] != 1 || run.DecisionOf[2] != 0 {
		t.Fatalf("p2 decided (%d at %d), want (0 at 1)", run.DecisionOf[2], run.DecidedAt[2])
	}
	if run.DecisionOf[3] != 5 {
		t.Fatalf("p3 decided %d, want 5", run.DecisionOf[3])
	}
	if check.UniformAgreement(run).OK {
		t.Error("expected uniform agreement violation")
	}
	if !check.Agreement(run).OK {
		t.Error("plain agreement must hold (p2 is faulty)")
	}
}

// TestFOptWSSafeAtT2 verifies the doc-comment argument that the n−t fast
// path survives RWS even at t = 2: a fast decider's t missing senders
// exhaust the failure budget, so fast deciders coincide and stay correct.
// Exhaustive exploration over n = 4, t = 2 (capped to keep the space
// tractable but still covering double-drop rounds) finds no violation.
func TestFOptWSSafeAtT2(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive t=2 sweep skipped in -short mode")
	}
	configs := [][]model.Value{
		{5, 5, 0, 1},
		{0, 1, 2, 3},
		{1, 1, 1, 1},
		{9, 0, 9, 0},
	}
	runs := 0
	for _, cfg := range configs {
		_, err := explore.Runs(rounds.RWS, FOptFloodSetWS{}, cfg, 2, explore.Options{}, func(run *rounds.Run) bool {
			if run.Truncated {
				return true
			}
			runs++
			if bad := check.FirstViolation(run); bad != nil {
				t.Fatalf("config %v: %s\nrun %s", cfg, bad, run)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if runs == 0 {
		t.Fatal("no runs explored")
	}
}
