package fd_test

import (
	"errors"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sdd"
	"repro/internal/step"
)

func TestFromTraceReconstruction(t *testing.T) {
	// Build a small SP trace by hand: p1 crashes, p2 suspects it, steps on.
	eng, err := step.NewEngineWithFD(sdd.NewReceiveOrSuspect(), []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(d step.Decision) {
		t.Helper()
		if _, err := eng.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	apply(step.Decision{Proc: 1})  // p1 sends its value
	apply(step.Decision{Crash: 1}) // p1 crashes
	apply(step.Decision{Proc: 2, NewSuspicions: []step.Suspicion{{Observer: 2, Subject: 1}}})
	apply(step.Decision{Proc: 2})

	fp, h := fd.FromTrace(eng.Trace())
	if fp.CrashTime(1) == model.TimeNever {
		t.Error("p1's crash not reconstructed")
	}
	if fp.CrashTime(2) != model.TimeNever {
		t.Error("p2 wrongly marked faulty")
	}
	if h.PermanentlySuspectedFrom(2, 1) == model.TimeNever {
		t.Error("p2's suspicion of p1 not reconstructed")
	}
	if v := fd.AuditPerfect(eng.Trace()); len(v) != 0 {
		t.Errorf("audit of a legal SP trace failed: %v", v[0].Error())
	}
}

// TestAuditPerfectOnRefutationWitnesses: every witness run the Theorem 3.1
// adversary constructs must audit as a genuine perfect-detector run —
// otherwise the refutation would be vacuous.
func TestAuditPerfectOnRefutationWitnesses(t *testing.T) {
	for _, cand := range sdd.Candidates() {
		ref, err := sdd.RefuteSP(cand, 500)
		if err != nil {
			t.Fatal(err)
		}
		if v := fd.AuditPerfect(ref.Witness); len(v) != 0 {
			t.Errorf("%s: witness run's detector is not perfect: %v", cand.Name(), v[0].Error())
		}
	}
}

// TestAuditPerfectOnSPScheduler: random SP-scheduled runs audit clean.
func TestAuditPerfectOnSPScheduler(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		eng, err := step.NewEngineWithFD(sdd.NewReceiveOrSuspect(), []model.Value{1, 0})
		if err != nil {
			t.Fatal(err)
		}
		sched := step.NewSPScheduler(seed, step.StopWhenDecided(model.Singleton(2)))
		sched.CrashAtStep = map[model.ProcessID]int{1: int(seed%5) + 1}
		tr, err := eng.Run(sched, 10000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Completeness is a liveness property: give the (deliberately slow)
		// detector time to realize it before auditing — the observer keeps
		// taking steps past its decision, as correct processes must.
		sched.Stop = nil
		if _, err := eng.Run(sched, 50); err != nil && err != step.ErrHorizon {
			t.Fatalf("seed %d: grace period: %v", seed, err)
		}
		if v := fd.AuditPerfect(tr); len(v) != 0 {
			t.Errorf("seed %d: %v", seed, v[0].Error())
		}
	}
}

// TestAuditPerfectAgreesWithTheEngine audits offline what the step engine
// enforces online: it rejects p2's suspicion of p1 while p1 is alive and
// accepts it once p1 has crashed, and the trace it keeps satisfies P's
// strong accuracy and strong completeness.
func TestAuditPerfectAgreesWithTheEngine(t *testing.T) {
	eng, err := step.NewEngineWithFD(sdd.NewReceiveOrSuspect(), []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	suspect := step.Decision{Proc: 2, NewSuspicions: []step.Suspicion{{Observer: 2, Subject: 1}}}
	if _, err := eng.Apply(suspect); !errors.Is(err, step.ErrAccuracy) {
		t.Fatalf("err = %v, want ErrAccuracy (p1 is alive)", err)
	}
	if _, err := eng.Apply(step.Decision{Crash: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(suspect); err != nil {
		t.Fatalf("legal suspicion rejected: %v", err)
	}
	fp, h := fd.FromTrace(eng.Trace())
	if v := fd.CheckStrongAccuracy(fp, h, model.TimeNever); len(v) != 0 {
		t.Errorf("offline accuracy check disagrees: %v", v[0].Error())
	}
	if v := fd.AuditPerfect(eng.Trace()); len(v) != 0 {
		t.Errorf("completeness: %v", v[0].Error())
	}
}
