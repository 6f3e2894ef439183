package sdd

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/step"
)

// runSS drives the SS algorithm under a seeded SS-admissible scheduler.
func runSS(t *testing.T, phi, delta int, input model.Value, crashAt map[model.ProcessID]int, seed int64) *step.Trace {
	t.Helper()
	alg := NewSS(phi, delta)
	eng, err := step.NewEngine(alg, []model.Value{input, 0})
	if err != nil {
		t.Fatal(err)
	}
	sched := step.NewSSScheduler(phi, delta, seed, step.StopWhenDecided(model.Singleton(DefaultObserver)))
	sched.CrashAtStep = crashAt
	tr, err := eng.Run(sched, 10000)
	if err != nil {
		t.Fatalf("Φ=%d Δ=%d seed=%d: %v", phi, delta, seed, err)
	}
	if v := step.CheckProcessSynchrony(tr, phi); len(v) != 0 {
		t.Fatalf("schedule not Φ-admissible: %v", v[0].Error())
	}
	if v := step.CheckMessageSynchrony(tr, delta); len(v) != 0 {
		t.Fatalf("schedule not Δ-admissible: %v", v[0].Error())
	}
	return tr
}

// TestSSAlgorithmFailureFree: in every failure-free SS run the observer
// decides the sender's value.
func TestSSAlgorithmFailureFree(t *testing.T) {
	for _, cfg := range []struct{ phi, delta int }{{1, 1}, {2, 3}, {4, 2}} {
		for seed := int64(0); seed < 50; seed++ {
			for _, input := range []model.Value{0, 1} {
				tr := runSS(t, cfg.phi, cfg.delta, input, nil, seed)
				if bad := FirstViolation(tr, Spec{Sender: DefaultSender, Observer: DefaultObserver, Input: input}); bad != nil {
					t.Fatalf("Φ=%d Δ=%d seed=%d input=%d: %s", cfg.phi, cfg.delta, seed, int64(input), bad)
				}
				if tr.DecidedValue[DefaultObserver] != input {
					t.Fatalf("observer decided %d, want %d", tr.DecidedValue[DefaultObserver], int64(input))
				}
			}
		}
	}
}

// TestSSAlgorithmSenderInitiallyCrashed: the sender crashes before taking
// any step; the observer must still decide (it decides 0, which validity
// permits since the sender was initially crashed).
func TestSSAlgorithmSenderInitiallyCrashed(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tr := runSS(t, 2, 2, 1, map[model.ProcessID]int{DefaultSender: 1}, seed)
		if !tr.InitiallyCrashed(DefaultSender) {
			t.Fatal("sender not initially crashed")
		}
		if bad := FirstViolation(tr, Spec{Sender: DefaultSender, Observer: DefaultObserver, Input: 1}); bad != nil {
			t.Fatalf("seed %d: %s", seed, bad)
		}
		if !tr.Decided[DefaultObserver] || tr.DecidedValue[DefaultObserver] != 0 {
			t.Fatalf("seed %d: observer decided (%v,%d), want (true,0)",
				seed, tr.Decided[DefaultObserver], tr.DecidedValue[DefaultObserver])
		}
	}
}

// TestSSAlgorithmSenderCrashesLater sweeps the sender's crash over every
// early global step: whenever the sender managed a step before crashing,
// the observer must decide the sender's value — the heart of SDD validity,
// which is achievable in SS precisely because failure detection there is
// *bounded*, not just eventual.
func TestSSAlgorithmSenderCrashesLater(t *testing.T) {
	for crashStep := 2; crashStep <= 8; crashStep++ {
		for seed := int64(0); seed < 30; seed++ {
			tr := runSS(t, 2, 2, 1, map[model.ProcessID]int{DefaultSender: crashStep}, seed)
			spec := Spec{Sender: DefaultSender, Observer: DefaultObserver, Input: 1}
			if bad := FirstViolation(tr, spec); bad != nil {
				t.Fatalf("crash@%d seed=%d: %s", crashStep, seed, bad)
			}
			if tr.TookStep(DefaultSender) && tr.DecidedValue[DefaultObserver] != 1 {
				t.Fatalf("crash@%d seed=%d: sender stepped but observer decided %d",
					crashStep, seed, tr.DecidedValue[DefaultObserver])
			}
		}
	}
}

// TestSSAlgorithmDeadline: the observer decides within Φ+1+Δ of its own
// steps, the paper's bound.
func TestSSAlgorithmDeadline(t *testing.T) {
	phi, delta := 3, 2
	for seed := int64(0); seed < 50; seed++ {
		tr := runSS(t, phi, delta, 1, nil, seed)
		if got := tr.DecidedAtLocal[DefaultObserver]; got > phi+1+delta {
			t.Fatalf("seed %d: observer decided at its step %d, beyond the Φ+1+Δ = %d bound",
				seed, got, phi+1+delta)
		}
	}
}

// TestSSAlgorithmUnderestimatedDelta is the ablation the DESIGN calls out:
// run the Φ+1+Δ protocol in a system whose actual message bound is larger
// than the protocol assumes. Validity must break in some run — the
// protocol's correctness genuinely depends on knowing the true bounds,
// which is exactly what separates SS from SP.
func TestSSAlgorithmUnderestimatedDelta(t *testing.T) {
	assumed := 1 // protocol believes Δ=1
	actual := 6  // network honors only Δ=6
	phi := 1
	violated := false
	for seed := int64(0); seed < 200 && !violated; seed++ {
		alg := NewSS(phi, assumed)
		eng, err := step.NewEngine(alg, []model.Value{1, 0})
		if err != nil {
			t.Fatal(err)
		}
		sched := step.NewSSScheduler(phi, actual, seed, step.StopWhenDecided(model.Singleton(DefaultObserver)))
		tr, err := eng.Run(sched, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if bad := FirstViolation(tr, Spec{Sender: DefaultSender, Observer: DefaultObserver, Input: 1}); bad != nil {
			violated = true
		}
	}
	if !violated {
		t.Error("underestimating Δ never violated validity across 200 seeds; expected the protocol to depend on the true bound")
	}
}

// TestRefuteSPCandidates is experiment E8's second half: Theorem 3.1's
// adversary mechanically refutes every natural SP candidate protocol.
func TestRefuteSPCandidates(t *testing.T) {
	for _, alg := range Candidates() {
		t.Run(alg.Name(), func(t *testing.T) {
			ref, err := RefuteSP(alg, 500)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Kind != SPValidityViolation {
				t.Fatalf("refutation kind = %v, want validity violation\n%s", ref.Kind, ref)
			}
			if ref.Witness == nil {
				t.Fatal("no witness trace")
			}
			// The witness must itself be a checkable violation.
			spec := Spec{Sender: DefaultSender, Observer: DefaultObserver, Input: ref.WitnessInput}
			bad := FirstViolation(ref.Witness, spec)
			if bad == nil || bad.Property != "validity" {
				t.Fatalf("witness does not violate validity: %v", bad)
			}
			// And it must be an admissible SP run: P's strong accuracy and
			// strong completeness, and eventual delivery.
			if v := fd.AuditPerfect(ref.Witness); len(v) != 0 {
				t.Errorf("witness's detector is not perfect: %v", v[0].Error())
			}
			if v := step.CheckEventualDelivery(ref.Witness); len(v) != 0 {
				t.Errorf("witness violates eventual delivery: %v", v[0].Error())
			}
		})
	}
}

// waitForever never decides: RefuteSP must classify it as a termination
// violation instead of looping.
type waitForever struct{}

func (waitForever) Name() string { return "SDD-SP-WaitForever" }
func (a waitForever) New(cfg step.Config) step.Automaton {
	if cfg.ID == DefaultSender {
		return &ssSender{observer: DefaultObserver, value: cfg.Input}
	}
	return idle{}
}

func TestRefuteSPTermination(t *testing.T) {
	ref, err := RefuteSP(waitForever{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Kind != SPTerminationViolation {
		t.Fatalf("kind = %v, want termination violation", ref.Kind)
	}
}

func TestRefuteSPValidation(t *testing.T) {
	if _, err := RefuteSP(NewReceiveOrSuspect(), 0); err == nil {
		t.Error("maxObserverSteps=0 accepted")
	}
}

func TestCheckIntegrityAndStrings(t *testing.T) {
	alg := NewSS(1, 1)
	eng, err := step.NewEngine(alg, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	sched := &step.FairScheduler{Stop: step.StopWhenDecided(model.Singleton(DefaultObserver))}
	tr, err := eng.Run(sched, 100)
	if err != nil {
		t.Fatal(err)
	}
	results := Check(tr, Spec{Sender: DefaultSender, Observer: DefaultObserver, Input: 1})
	if len(results) != 3 {
		t.Fatalf("Check returned %d results, want 3", len(results))
	}
	for _, r := range results {
		if !r.OK {
			t.Errorf("unexpected violation: %s", r)
		}
		if r.String() == "" {
			t.Error("empty result string")
		}
	}
}
