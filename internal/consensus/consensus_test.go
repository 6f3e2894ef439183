package consensus

import (
	"testing"

	"repro/internal/check"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/rounds"
)

func vals(vs ...int64) []model.Value {
	out := make([]model.Value, len(vs))
	for i, v := range vs {
		out[i] = model.Value(v)
	}
	return out
}

func mustRun(t *testing.T, kind rounds.ModelKind, alg rounds.Algorithm, initial []model.Value, tol int, adv rounds.Adversary) *rounds.Run {
	t.Helper()
	run, err := rounds.RunAlgorithm(kind, alg, initial, tol, adv)
	if err != nil {
		t.Fatalf("%s/%v: %v", alg.Name(), kind, err)
	}
	return run
}

func requireConsensus(t *testing.T, run *rounds.Run) {
	t.Helper()
	if bad := check.FirstViolation(run); bad != nil {
		t.Fatalf("%s: %s", run, bad)
	}
}

func TestFloodSetFailureFree(t *testing.T) {
	for _, tol := range []int{0, 1, 2, 3} {
		run := mustRun(t, rounds.RS, FloodSet{}, vals(4, 2, 7, 5, 3), tol, rounds.NoFailures)
		requireConsensus(t, run)
		lat, _ := run.Latency()
		if lat != tol+1 {
			t.Errorf("t=%d: latency = %d, want t+1 = %d", tol, lat, tol+1)
		}
		for p := 1; p <= run.N; p++ {
			if run.DecisionOf[p] != 2 {
				t.Errorf("t=%d: p%d decided %d, want min proposal 2", tol, p, run.DecisionOf[p])
			}
		}
	}
}

func TestFloodSetWithCrashes(t *testing.T) {
	// p1 (holding the minimum) crashes at round 1 reaching only p2; the
	// value still floods to everyone by round t+1.
	adv := &rounds.CrashOnceAdversary{Victim: 1, Round: 1, Reach: model.Singleton(2)}
	run := mustRun(t, rounds.RS, FloodSet{}, vals(0, 5, 6, 7), 1, adv)
	requireConsensus(t, run)
	for p := 2; p <= 4; p++ {
		if run.DecisionOf[p] != 0 {
			t.Errorf("p%d decided %d, want 0 (flooded from p2)", p, run.DecisionOf[p])
		}
	}
}

func TestFloodSetHiddenMinimumAborted(t *testing.T) {
	// p1 crashes at round 1 reaching NO ONE: its value 0 vanishes and the
	// survivors decide the minimum of the remaining proposals.
	adv := &rounds.CrashOnceAdversary{Victim: 1, Round: 1, Reach: 0}
	run := mustRun(t, rounds.RS, FloodSet{}, vals(0, 5, 6, 7), 1, adv)
	requireConsensus(t, run)
	for p := 2; p <= 4; p++ {
		if run.DecisionOf[p] != 5 {
			t.Errorf("p%d decided %d, want 5", p, run.DecisionOf[p])
		}
	}
}

// TestFloodSetDisagreesInRWS reproduces the paper's claim (§5.1) that
// "because of pending messages, FloodSet allows disagreement in RWS":
// p1's round-1 broadcast is entirely pending, so only p1 knows value 0
// after round 1; p1 then crashes during round 2 reaching only p2, leaving
// p2 deciding 0 and p3 deciding 1 — two CORRECT-sided decisions apart.
func TestFloodSetDisagreesInRWS(t *testing.T) {
	script := &rounds.Script{Plans: []rounds.Plan{
		{Drops: map[model.ProcessID]model.ProcSet{1: model.Singleton(2).Add(3)}},
		{Crashes: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
	}}
	run := mustRun(t, rounds.RWS, FloodSet{}, vals(0, 1, 2), 1, script)
	if v := rounds.WeakRoundSynchrony(run.Receptions()); len(v) != 0 {
		t.Fatalf("scenario not RWS-admissible: %v", v[0].Error())
	}
	agr := check.UniformAgreement(run)
	if agr.OK {
		t.Fatalf("expected disagreement, but run agreed: p2=%d p3=%d",
			run.DecisionOf[2], run.DecisionOf[3])
	}
	if run.DecisionOf[2] != 0 || run.DecisionOf[3] != 1 {
		t.Errorf("decisions p2=%d p3=%d, want 0 and 1", run.DecisionOf[2], run.DecisionOf[3])
	}
}

// TestFloodSetWSFixesPendingScenario runs FloodSetWS through the exact
// scenario that breaks FloodSet: the halt mechanism makes p2 ignore p1's
// late partial broadcast, restoring agreement.
func TestFloodSetWSFixesPendingScenario(t *testing.T) {
	script := &rounds.Script{Plans: []rounds.Plan{
		{Drops: map[model.ProcessID]model.ProcSet{1: model.Singleton(2).Add(3)}},
		{Crashes: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
	}}
	run := mustRun(t, rounds.RWS, FloodSetWS{}, vals(0, 1, 2), 1, script)
	requireConsensus(t, run)
	if run.DecisionOf[2] != 1 || run.DecisionOf[3] != 1 {
		t.Errorf("decisions p2=%d p3=%d, want both 1 (value 0 correctly quarantined)",
			run.DecisionOf[2], run.DecisionOf[3])
	}
}

func TestCOptDecidesRoundOneOnUnanimity(t *testing.T) {
	for _, alg := range []rounds.Algorithm{COptFloodSet{}, COptFloodSetWS{}} {
		kind := rounds.RS
		if alg.Name() == "C_OptFloodSetWS" {
			kind = rounds.RWS
		}
		run := mustRun(t, kind, alg, vals(7, 7, 7, 7), 2, rounds.NoFailures)
		requireConsensus(t, run)
		lat, _ := run.Latency()
		if lat != 1 {
			t.Errorf("%s: unanimous latency = %d, want 1 (lat(A)=1, §5.2)", alg.Name(), lat)
		}
	}
}

func TestCOptFallsBackWithoutUnanimity(t *testing.T) {
	run := mustRun(t, rounds.RS, COptFloodSet{}, vals(7, 8, 7, 7), 2, rounds.NoFailures)
	requireConsensus(t, run)
	lat, _ := run.Latency()
	if lat != 3 {
		t.Errorf("latency = %d, want t+1 = 3", lat)
	}
	if run.DecisionOf[1] != 7 {
		t.Errorf("decision = %d, want 7", run.DecisionOf[1])
	}
}

func TestFOptDecidesRoundOneOnInitialCrashes(t *testing.T) {
	// With exactly t initial crashes every survivor receives exactly n−t
	// round-1 messages and decides immediately: Lat(F_Opt*) = 1 (§5.2).
	for _, tc := range []struct {
		alg  rounds.Algorithm
		kind rounds.ModelKind
	}{
		{FOptFloodSet{}, rounds.RS},
		{FOptFloodSetWS{}, rounds.RWS},
	} {
		adv := &rounds.InitialCrashAdversary{Victims: model.Singleton(1).Add(2)}
		run := mustRun(t, tc.kind, tc.alg, vals(0, 1, 5, 6, 7), 2, adv)
		requireConsensus(t, run)
		lat, _ := run.Latency()
		if lat != 1 {
			t.Errorf("%s: latency = %d, want 1 with t initial crashes", tc.alg.Name(), lat)
		}
		for p := 3; p <= 5; p++ {
			if run.DecisionOf[p] != 5 {
				t.Errorf("%s: p%d decided %d, want 5 (values 0,1 died with their proposers)",
					tc.alg.Name(), p, run.DecisionOf[p])
			}
		}
	}
}

func TestFOptForcesDecisionAtRoundTwo(t *testing.T) {
	// Only p3 sees exactly n−t messages at round 1 (p1 crashes reaching p3
	// alone among... construct: n=4, t=1; p1 crashes at round 1 reaching
	// nobody, so every survivor receives exactly 3 = n−t messages and all
	// fast-decide. For a subtler case, p1 reaches p2 only: p2 receives 4
	// messages (no fast path), p3 and p4 receive 3 (fast path); the forced
	// (D,v) messages at round 2 keep everyone agreed.
	adv := &rounds.CrashOnceAdversary{Victim: 1, Round: 1, Reach: model.Singleton(2)}
	run := mustRun(t, rounds.RS, FOptFloodSet{}, vals(0, 9, 8, 7), 1, adv)
	requireConsensus(t, run)
	if run.DecidedAt[3] != 1 || run.DecidedAt[4] != 1 {
		t.Errorf("fast deciders p3,p4 decided at rounds %d,%d, want 1,1",
			run.DecidedAt[3], run.DecidedAt[4])
	}
	if run.DecidedAt[2] != 2 {
		t.Errorf("p2 decided at round %d, want 2 (forced by D message)", run.DecidedAt[2])
	}
	// Fast deciders saw {9,8,7}: decide 7. p2 must follow despite knowing 0.
	for p := 2; p <= 4; p++ {
		if run.DecisionOf[p] != 7 {
			t.Errorf("p%d decided %d, want 7", p, run.DecisionOf[p])
		}
	}
}

func TestA1FailureFreeDecidesRoundOne(t *testing.T) {
	run := mustRun(t, rounds.RS, A1{}, vals(3, 1, 2), 1, rounds.NoFailures)
	requireConsensus(t, run)
	lat, _ := run.Latency()
	if lat != 1 {
		t.Errorf("latency = %d, want 1 (Λ(A1)=1, Theorem 5.2)", lat)
	}
	for p := 1; p <= 3; p++ {
		if run.DecisionOf[p] != 3 {
			t.Errorf("p%d decided %d, want p1's value 3", p, run.DecisionOf[p])
		}
	}
}

func TestA1PartialBroadcastCase(t *testing.T) {
	// Theorem 5.2 case 2(a): p1 crashes during round 1 reaching only p3;
	// p3 decides v1 at round 1 and forwards (p1,v1) at round 2.
	adv := &rounds.CrashOnceAdversary{Victim: 1, Round: 1, Reach: model.Singleton(3)}
	run := mustRun(t, rounds.RS, A1{}, vals(3, 1, 2), 1, adv)
	requireConsensus(t, run)
	if run.DecidedAt[3] != 1 {
		t.Errorf("p3 decided at %d, want 1", run.DecidedAt[3])
	}
	if run.DecidedAt[2] != 2 {
		t.Errorf("p2 decided at %d, want 2", run.DecidedAt[2])
	}
	for p := 2; p <= 3; p++ {
		if run.DecisionOf[p] != 3 {
			t.Errorf("p%d decided %d, want 3", p, run.DecisionOf[p])
		}
	}
}

func TestA1SilentCrashCase(t *testing.T) {
	// Theorem 5.2 case 2(b): p1 crashes reaching no one; at round 2, p2
	// broadcasts v2 and every survivor decides it.
	adv := &rounds.CrashOnceAdversary{Victim: 1, Round: 1, Reach: 0}
	run := mustRun(t, rounds.RS, A1{}, vals(3, 1, 2), 1, adv)
	requireConsensus(t, run)
	for p := 2; p <= 3; p++ {
		if run.DecisionOf[p] != 1 {
			t.Errorf("p%d decided %d, want p2's value 1", p, run.DecisionOf[p])
		}
		if run.DecidedAt[p] != 2 {
			t.Errorf("p%d decided at %d, want 2", p, run.DecidedAt[p])
		}
	}
}

// TestA1DisagreesInRWS reproduces §5.3's scenario verbatim: "at round 1,
// p1 succeeds in broadcasting v1, decides, and then crashes. In addition,
// suppose that all the messages sent by p1 are pending. In this scenario,
// p1 decides v1 whereas all the other processes decide v2."
func TestA1DisagreesInRWS(t *testing.T) {
	script := &rounds.Script{Plans: []rounds.Plan{
		{Drops: map[model.ProcessID]model.ProcSet{1: model.FullSet(3).Remove(1)}},
		{Crashes: map[model.ProcessID]model.ProcSet{1: 0}},
	}}
	run := mustRun(t, rounds.RWS, A1{}, vals(3, 1, 2), 1, script)
	if v := rounds.WeakRoundSynchrony(run.Receptions()); len(v) != 0 {
		t.Fatalf("scenario not RWS-admissible: %v", v[0].Error())
	}
	if run.DecidedAt[1] != 1 || run.DecisionOf[1] != 3 {
		t.Fatalf("p1 decided (%d at round %d), want (3 at round 1)",
			run.DecisionOf[1], run.DecidedAt[1])
	}
	for p := 2; p <= 3; p++ {
		if run.DecisionOf[p] != 1 {
			t.Errorf("p%d decided %d, want p2's value 1", p, run.DecisionOf[p])
		}
	}
	if check.UniformAgreement(run).OK {
		t.Error("expected uniform agreement violation (the paper's Λ separation witness)")
	}
}

func TestA1RequiresTEqualsOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("A1 with t=2 did not panic")
		}
	}()
	A1{}.New(rounds.ProcConfig{ID: 1, N: 4, T: 2, Initial: 0})
}

// TestSuiteUnderRandomAdversaries subjects every algorithm to thousands of
// random admissible adversaries in its own model and checks uniform
// consensus plus decision integrity on every run.
func TestSuiteUnderRandomAdversaries(t *testing.T) {
	cases := []struct {
		alg  rounds.Algorithm
		kind rounds.ModelKind
		n, t int
	}{
		{FloodSet{}, rounds.RS, 4, 2},
		{FloodSet{}, rounds.RS, 5, 3},
		{FloodSetWS{}, rounds.RWS, 4, 2},
		{FloodSetWS{}, rounds.RWS, 5, 3},
		{COptFloodSet{}, rounds.RS, 4, 2},
		{COptFloodSetWS{}, rounds.RWS, 4, 2},
		{FOptFloodSet{}, rounds.RS, 5, 2},
		{FOptFloodSetWS{}, rounds.RWS, 4, 1},
		{A1{}, rounds.RS, 4, 1},
	}
	initials := [][]model.Value{
		vals(0, 0, 0, 0, 0, 0)[:6],
		vals(0, 1, 0, 1, 0, 1)[:6],
		vals(5, 4, 3, 2, 1, 0)[:6],
		vals(9, 9, 1, 9, 9, 9)[:6],
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 300; seed++ {
			for ii, init := range initials {
				ia := check.NewIntegrityAlgorithm(tc.alg)
				adv := rounds.NewRandomAdversary(seed*31+int64(ii), 0.4, 0.4)
				run, err := rounds.RunAlgorithm(tc.kind, ia, init[:tc.n], tc.t, adv)
				if err != nil {
					t.Fatalf("%s/%v seed=%d: %v", tc.alg.Name(), tc.kind, seed, err)
				}
				if bad := check.FirstViolation(run); bad != nil {
					t.Fatalf("%s/%v seed=%d init=%v: %s\nrun: %s",
						tc.alg.Name(), tc.kind, seed, init[:tc.n], bad, run)
				}
				if viol := ia.Violations(); len(viol) != 0 {
					t.Fatalf("%s/%v seed=%d: integrity: %s", tc.alg.Name(), tc.kind, seed, viol[0])
				}
			}
		}
	}
}

func TestAllAndForModel(t *testing.T) {
	if got := len(All()); got != 7 {
		t.Errorf("All() returned %d algorithms, want 7", got)
	}
	if got := len(ForModel(rounds.RS)); got != 4 {
		t.Errorf("ForModel(RS) = %d algorithms, want 4", got)
	}
	if got := len(ForModel(rounds.RWS)); got != 3 {
		t.Errorf("ForModel(RWS) = %d algorithms, want 3", got)
	}
	if ForModel(rounds.ModelKind(9)) != nil {
		t.Error("ForModel(bogus) should be nil")
	}
}

// TestSuiteExhaustiveN4 verifies the entire suite against EVERY admissible
// adversary of its model at n=4, t=1, over a representative configuration
// family — a heavier companion to the n=3 sweeps in package explore.
func TestSuiteExhaustiveN4(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4 exhaustive sweep skipped in -short mode")
	}
	configs := [][]model.Value{
		vals(0, 0, 0, 0),
		vals(0, 1, 1, 1),
		vals(1, 0, 1, 0),
		vals(3, 1, 2, 0),
	}
	for _, kind := range []rounds.ModelKind{rounds.RS, rounds.RWS} {
		for _, alg := range ForModel(kind) {
			for _, cfg := range configs {
				_, err := explore.Runs(kind, alg, cfg, 1, explore.Options{}, func(run *rounds.Run) bool {
					if run.Truncated {
						return true
					}
					if bad := check.FirstViolation(run); bad != nil {
						t.Fatalf("%s/%v cfg=%v: %s\nrun %s", alg.Name(), kind, cfg, bad, run)
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestFloodRoundsAllocateOnlyToGrow: a flood automaton broadcasts its W
// itself, boxed once per change into a slice it keeps, and grows W into new
// storage in one allocation however many senders add values. So a round
// that adds values costs the new set and its box — two allocations — and a
// converged round costs nothing, in every flood algorithm.
func TestFloodRoundsAllocateOnlyToGrow(t *testing.T) {
	const n = 4
	algs := []rounds.Algorithm{FloodSet{}, FloodSetWS{}, COptFloodSet{}, COptFloodSetWS{},
		FOptFloodSet{}, FOptFloodSetWS{}, EarlyStoppingFloodSet{}, EarlyDecideFloodSet{}}
	for _, alg := range algs {
		// t = n keeps every round below t+1, so nothing decides or stops.
		p := alg.New(rounds.ProcConfig{ID: 1, N: n, T: n, Initial: 0})
		grown := make([]rounds.Message, n+1)
		for j := 1; j <= n; j++ {
			grown[j] = WMsg{W: model.NewValueSet(0, model.Value(j))}
		}
		round := 0
		step := func(received []rounds.Message) {
			round++
			p.Msgs(round)
			p.Trans(round, received)
		}
		step(grown) // the first round allocates the broadcast slice
		// AllocsPerRun(1, f) calls f twice: two rounds, in each of which
		// every sender adds a value W lacks.
		var more [2][]rounds.Message
		for k := range more {
			more[k] = make([]rounds.Message, n+1)
			for j := 1; j <= n; j++ {
				more[k][j] = WMsg{W: model.NewValueSet(model.Value(10*(k+1) + j))}
			}
		}
		k := 0
		if a := testing.AllocsPerRun(1, func() { step(more[k]); k++ }); a != 2 {
			t.Errorf("%s: a round that grows W allocates %v times, want 2", alg.Name(), a)
		}
		if a := testing.AllocsPerRun(10, func() { step(grown) }); a != 0 {
			t.Errorf("%s: a converged round allocates %v times, want 0", alg.Name(), a)
		}
	}
}
