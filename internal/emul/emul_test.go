package emul

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/rounds"
	"repro/internal/step"
)

func vals(vs ...int64) []model.Value {
	out := make([]model.Value, len(vs))
	for i, v := range vs {
		out[i] = model.Value(v)
	}
	return out
}

func TestDeadlineSchedule(t *testing.T) {
	// n=3, Φ=1, Δ=1: K_1 = 2·2+1 = 5, K_2 = 2·7+1 = 15, K_3 = 2·17+1 = 35.
	ks := DeadlineSchedule(3, 1, 1, 3)
	want := []int{0, 5, 15, 35}
	for i, w := range want {
		if ks[i] != w {
			t.Errorf("K_%d = %d, want %d", i, ks[i], w)
		}
	}
}

// checkAgreementValidity applies the uniform consensus conditions to an
// emulated result.
func checkAgreementValidity(t *testing.T, res *Result, initial []model.Value, label string) {
	t.Helper()
	var first model.Value
	got := false
	for p := 1; p <= res.N; p++ {
		if !res.Decided[p] {
			continue
		}
		if !got {
			first, got = res.DecisionOf[p], true
		} else if res.DecisionOf[p] != first {
			t.Fatalf("%s: uniform agreement violated: %d vs %d", label, int64(first), int64(res.DecisionOf[p]))
		}
	}
	allSame := true
	for _, v := range initial[1:] {
		if v != initial[0] {
			allSame = false
		}
	}
	if allSame && got && first != initial[0] {
		t.Fatalf("%s: uniform validity violated: unanimous %d decided %d", label, int64(initial[0]), int64(first))
	}
	for p := 1; p <= res.N; p++ {
		if !res.Crashed[p] && !res.Decided[p] {
			t.Fatalf("%s: correct p%d never decided", label, p)
		}
	}
}

// TestRSEmulationFailureFree runs FloodSet and A1 through the SS step
// emulation without failures: decisions, rounds and round synchrony must
// match the RS engine's.
func TestRSEmulationFailureFree(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		res, err := RunRS(consensus.FloodSet{}, vals(4, 2, 7), 1, 1, 1, 3, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgreementValidity(t, res, vals(4, 2, 7), "FloodSet")
		if v := rounds.RoundSynchrony(res.Receptions()); len(v) != 0 {
			t.Fatalf("round synchrony: %s", v[0].Error())
		}
		lat, ok := res.Latency()
		if !ok || lat != 2 {
			t.Fatalf("seed %d: latency = (%d,%v), want (2,true)", seed, lat, ok)
		}
		for p := 1; p <= 3; p++ {
			if res.DecisionOf[p] != 2 {
				t.Fatalf("seed %d: p%d decided %d, want 2", seed, p, res.DecisionOf[p])
			}
		}

		a1, err := RunRS(consensus.A1{}, vals(9, 1, 5), 1, 2, 2, 3, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgreementValidity(t, a1, vals(9, 1, 5), "A1")
		if lat, ok := a1.Latency(); !ok || lat != 1 {
			t.Fatalf("seed %d: A1 latency = (%d,%v), want (1,true) — Λ(A1)=1 must survive the emulation", seed, lat, ok)
		}
	}
}

// TestRSEmulationWithCrash injects a crash of p1 mid-run; consensus and
// round synchrony must hold across crash timings, and the record's crash
// round must be the round recording the crash.
func TestRSEmulationWithCrash(t *testing.T) {
	for crashStep := 1; crashStep <= 20; crashStep += 2 {
		for seed := int64(0); seed < 8; seed++ {
			res, err := RunRS(consensus.FloodSet{}, vals(0, 5, 9), 1, 1, 1, 3, seed,
				map[model.ProcessID]int{1: crashStep})
			if err != nil {
				t.Fatalf("crash@%d seed=%d: %v", crashStep, seed, err)
			}
			checkAgreementValidity(t, res, vals(0, 5, 9), "FloodSet+crash")
			h := res.Receptions()
			if v := append(rounds.RoundSynchrony(h), rounds.CrashRecord(h)...); len(v) != 0 {
				t.Fatalf("crash@%d seed=%d: %s", crashStep, seed, v[0].Error())
			}
		}
	}
}

// TestRWSEmulationFailureFree: the SP emulation reproduces RWS behaviour on
// failure-free runs.
func TestRWSEmulationFailureFree(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		res, err := RunRWS(consensus.FloodSetWS{}, vals(4, 2, 7), 1, 4, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgreementValidity(t, res, vals(4, 2, 7), "FloodSetWS")
		lat, ok := res.Latency()
		if !ok || lat != 2 {
			t.Fatalf("seed %d: latency = (%d,%v), want (2,true)", seed, lat, ok)
		}
	}
}

// TestRWSEmulationWithCrashes is experiment E10's core: across many crash
// timings and schedules, the emulation satisfies Lemma 4.1 (checked inside
// RunRWS) and FloodSetWS keeps uniform consensus — including in runs where
// pending messages actually occurred — and the record's crash round is the
// round recording the crash.
func TestRWSEmulationWithCrashes(t *testing.T) {
	pendingSeen := 0
	for crashStep := 1; crashStep <= 25; crashStep += 3 {
		for seed := int64(0); seed < 10; seed++ {
			res, err := RunRWS(consensus.FloodSetWS{}, vals(0, 5, 9), 1, 4, seed,
				map[model.ProcessID]int{1: crashStep})
			if err != nil {
				t.Fatalf("crash@%d seed=%d: %v", crashStep, seed, err)
			}
			checkAgreementValidity(t, res, vals(0, 5, 9), "FloodSetWS+crash")
			if v := rounds.CrashRecord(res.Receptions()); len(v) != 0 {
				t.Fatalf("crash@%d seed=%d: %s", crashStep, seed, v[0].Error())
			}
			pendingSeen += len(res.PendingObserved)
		}
	}
	if pendingSeen == 0 {
		t.Error("no pending message ever materialized across the sweep; the SP adversary is too tame to exercise Lemma 4.1")
	}
}

// TestRWSEmulationExhibitsA1Disagreement: run A1 through the *real* SP
// emulation under the §5.3 adversary — p1's messages withheld (finitely!)
// while it decides and crashes — and observe the disagreement. The
// pending-message scenario is not an artifact of the abstract RWS engine.
func TestRWSEmulationExhibitsA1Disagreement(t *testing.T) {
	found := false
	for seed := int64(0); seed < 40 && !found; seed++ {
		res, err := RunRWS(consensus.A1{}, vals(3, 1, 2), 1, 3, seed, nil,
			func(sp *step.SPScheduler) {
				sp.CrashOnDecide = 1
				sp.WithholdFrom = model.Singleton(1)
				sp.WithholdAge = 150
			})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		var first model.Value
		got := false
		for p := 1; p <= res.N; p++ {
			if !res.Decided[p] {
				continue
			}
			if !got {
				first, got = res.DecisionOf[p], true
			} else if res.DecisionOf[p] != first {
				found = true
			}
		}
		// Note: res.PendingObserved records late *arrivals*; here p1's
		// withheld messages are still in flight when the run ends, which is
		// the other face of "pending" — sent but never received.
	}
	if !found {
		t.Error("A1 never disagreed under the SP emulation; expected the §5.3 scenario to materialize")
	}
}

func TestRSEmulationName(t *testing.T) {
	e := newEmulation(rounds.RS, consensus.FloodSet{}, 1, 2, 3)
	if e.Name() != "RS⟨FloodSet⟩" || e.result.Algorithm != e.Name() {
		t.Errorf("Name = %q, result %q", e.Name(), e.result.Algorithm)
	}
	w := newEmulation(rounds.RWS, consensus.FloodSetWS{}, 1, 2, 3)
	if w.Name() != "RWS⟨FloodSetWS⟩" {
		t.Errorf("Name = %q", w.Name())
	}
}

func TestDestFor(t *testing.T) {
	// Process 2 of 3 sends to 1 then 3.
	if destFor(2, 1) != 1 || destFor(2, 2) != 3 {
		t.Error("destFor mapping wrong for p2")
	}
	// Process 1 of 3 sends to 2 then 3.
	if destFor(1, 1) != 2 || destFor(1, 2) != 3 {
		t.Error("destFor mapping wrong for p1")
	}
}

// TestRunErrors: a cluster the step engine rejects, and a run that exhausts
// its horizon because FloodSet cannot decide within one round at t = 1,
// come back as errors naming the emulation.
func TestRunErrors(t *testing.T) {
	if _, err := RunRS(consensus.FloodSet{}, nil, 1, 1, 1, 3, 0, nil); err == nil {
		t.Error("RunRS accepted an empty cluster")
	}
	if _, err := RunRWS(consensus.FloodSetWS{}, nil, 1, 3, 0, nil); err == nil {
		t.Error("RunRWS accepted an empty cluster")
	}
	_, err := RunRS(consensus.FloodSet{}, vals(1, 2, 3), 1, 1, 1, 1, 0, nil)
	if !errors.Is(err, step.ErrHorizon) || !strings.Contains(err.Error(), "RunRS(RS⟨FloodSet⟩)") {
		t.Errorf("RunRS one round: err = %v", err)
	}
	_, err = RunRWS(consensus.FloodSetWS{}, vals(1, 2, 3), 1, 1, 0, nil)
	if !errors.Is(err, step.ErrHorizon) || !strings.Contains(err.Error(), "RunRWS(RWS⟨FloodSetWS⟩)") {
		t.Errorf("RunRWS one round: err = %v", err)
	}
}

// TestRunRSRejectsBoundsBelowOne: a Φ or Δ below 1 is refused up front,
// naming the bound, instead of emulating the whole run and then failing the
// synchrony check against the raw value.
func TestRunRSRejectsBoundsBelowOne(t *testing.T) {
	for _, b := range []struct{ phi, delta int }{{0, 1}, {1, 0}, {0, 0}, {-1, 2}} {
		_, err := RunRS(consensus.FloodSet{}, vals(0, 5, 9), 1, b.phi, b.delta, 3, 7, nil)
		if err == nil || !strings.Contains(err.Error(), "at least 1") ||
			!strings.Contains(err.Error(), fmt.Sprintf("Φ=%d Δ=%d", b.phi, b.delta)) {
			t.Errorf("RunRS(Φ=%d, Δ=%d): err = %v, want the bad bound named", b.phi, b.delta, err)
		}
	}
}

// TestRunRWSSimultaneousCrashes: two crashes due at one step give one run
// per seed, and a crash plan reused for a second run crashes there too.
func TestRunRWSSimultaneousCrashes(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		plan := map[model.ProcessID]int{1: 6, 2: 6}
		first, err := RunRWS(consensus.FloodSetWS{}, vals(1, 0, 1, 0), 2, 4, seed, plan)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			again, err := RunRWS(consensus.FloodSetWS{}, vals(1, 0, 1, 0), 2, 4, seed, plan)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", first) {
				t.Fatalf("seed %d: repeat %d differs:\n%+v\nwant\n%+v", seed, i, again, first)
			}
		}
		if !first.Crashed[1] || !first.Crashed[2] {
			t.Fatalf("seed %d: Crashed = %v, want p1 and p2", seed, first.Crashed)
		}
	}
}

// TestResultCheckers: a hand-built result in which p1 closed round 1
// without p2's message and saw p3's arrive late, while p2 never crashed and
// completed round 3. The record has one finding per missed (receiver,
// sender, round): in RS the late message and the missed survivor, in RWS
// only the missed survivor (p3 crashed during round 2, within the bound).
func TestResultCheckers(t *testing.T) {
	r := &Result{
		N:               3,
		Decided:         []bool{false, true, true, false},
		DecidedAtRound:  []int{0, 1, 2, 0},
		CompletedRounds: []int{0, 1, 3, 1},
		SentThrough:     []int{0, 1, 3, 1},
		Crashed:         []bool{false, false, false, true},
		ReceivedFrom: [][]model.ProcSet{nil,
			{0, 0},
			{0, model.FullSet(3), model.NewProcSet(1), model.NewProcSet(1)},
			{0, model.FullSet(3)}},
		PendingObserved: []PendingMessage{{Sender: 3, Receiver: 1, Round: 1}},
	}
	if lat, ok := r.Latency(); !ok || lat != 2 {
		t.Errorf("Latency = (%d, %v), want (2, true): crashed p3 does not count", lat, ok)
	}
	r.Decided[1] = false
	if _, ok := r.Latency(); ok {
		t.Error("Latency is finite although correct p1 never decided")
	}
	r.Decided[1] = true
	if got := r.PendingCount(); got != 2 {
		t.Errorf("PendingCount = %d, want 2 (p3's late message, p2's missed one)", got)
	}
	if v := rounds.RoundSynchrony(r.Receptions()); len(v) != 2 ||
		!strings.Contains(v[0].Reason, "p1 closed the round without the message of p2") ||
		!strings.Contains(v[1].Reason, "p1 received the message of p3 after closing the round") {
		t.Errorf("RoundSynchrony = %v, want p2 missed and p3 late at p1", v)
	}
	if v := rounds.WeakRoundSynchrony(r.Receptions()); len(v) != 1 || v[0].Sender != 2 || v[0].Receiver != 1 {
		t.Errorf("WeakRoundSynchrony = %v, want p2 missed at p1", v)
	}
}

// TestResultLemma41Bound: p1 closed round 1 without p2's message, and p2
// went on to complete rounds 1 and 2 before it crashed — it crashed during
// round 3, not by the end of round 2 as Lemma 4.1 demands. A sender that
// completes round r+1 is outside the bound, not on it.
func TestResultLemma41Bound(t *testing.T) {
	r := &Result{
		N:               3,
		Decided:         []bool{false, true, false, true},
		DecidedAtRound:  []int{0, 2, 0, 2},
		CompletedRounds: []int{0, 2, 2, 2},
		SentThrough:     []int{0, 2, 2, 2},
		Crashed:         []bool{false, false, true, false},
		ReceivedFrom: [][]model.ProcSet{nil,
			{0, model.Singleton(3), model.NewProcSet(2, 3)},
			{0, model.NewProcSet(1, 3), model.NewProcSet(1, 3)},
			{0, model.NewProcSet(1, 2), model.NewProcSet(1, 2)}},
	}
	v := rounds.WeakRoundSynchrony(r.Receptions())
	if len(v) != 1 || !strings.Contains(v[0].Reason, "Lemma 4.1 violated: p1 closed the round without the message of p2") ||
		!strings.Contains(v[0].Reason, "crash round 3") {
		t.Fatalf("WeakRoundSynchrony = %v, want one finding: p2 crashed during round 3", v)
	}
}
