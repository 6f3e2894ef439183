package step

import (
	"errors"
	"testing"

	"repro/internal/model"
)

// pingAlg: p1 sends its input to p2 on its first step; p2 decides the first
// value it receives. Other processes idle.
type pingAlg struct{}

func (pingAlg) Name() string { return "ping" }

func (pingAlg) New(cfg Config) Automaton {
	switch cfg.ID {
	case 1:
		return &pingSender{v: cfg.Input}
	case 2:
		return &pingReceiver{}
	default:
		return &noopAuto{}
	}
}

type pingSender struct {
	v    model.Value
	sent bool
}

func (s *pingSender) Step(in Input) *Send {
	if s.sent {
		return nil
	}
	s.sent = true
	return &Send{To: 2, Payload: s.v}
}

type pingReceiver struct {
	decided  bool
	decision model.Value
}

func (r *pingReceiver) Step(in Input) *Send {
	if r.decided {
		return nil
	}
	for _, m := range in.Received {
		if v, ok := m.Payload.(model.Value); ok {
			r.decision, r.decided = v, true
		}
	}
	return nil
}

func (r *pingReceiver) Decision() (model.Value, bool) { return r.decision, r.decided }

type noopAuto struct{}

func (*noopAuto) Step(Input) *Send { return nil }

func TestFairSchedulerDeliversAndDecides(t *testing.T) {
	eng, err := NewEngine(pingAlg{}, []model.Value{7, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sched := &FairScheduler{Stop: StopWhenDecided(model.Singleton(2))}
	tr, err := eng.Run(sched, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Decided[2] || tr.DecidedValue[2] != 7 {
		t.Fatalf("p2 decided (%v,%d), want (true,7)", tr.Decided[2], tr.DecidedValue[2])
	}
	if v := CheckProcessSynchrony(tr, 1); len(v) != 0 {
		t.Errorf("fair schedule violates Φ=1 process synchrony: %v", v[0].Error())
	}
	if v := CheckMessageSynchrony(tr, 1); len(v) != 0 {
		t.Errorf("fair schedule violates Δ=1 message synchrony: %v", v[0].Error())
	}
	if v := CheckEventualDelivery(tr); len(v) != 0 {
		t.Errorf("fair schedule dropped a message: %v", v[0].Error())
	}
}

func TestEngineRejectsCrashedProcessStep(t *testing.T) {
	eng, err := NewEngine(pingAlg{}, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(Decision{Crash: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(Decision{Proc: 1}); !errors.Is(err, ErrCrashedProc) {
		t.Errorf("err = %v, want ErrCrashedProc", err)
	}
	if _, err := eng.Apply(Decision{Crash: 1}); !errors.Is(err, ErrCrashedProc) {
		t.Errorf("double crash err = %v, want ErrCrashedProc", err)
	}
}

func TestEngineRejectsBadDelivery(t *testing.T) {
	eng, err := NewEngine(pingAlg{}, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(Decision{Proc: 2, Deliver: []int{0}}); !errors.Is(err, ErrBadDelivery) {
		t.Errorf("err = %v, want ErrBadDelivery (empty buffer)", err)
	}
}

func TestEngineEnforcesStrongAccuracy(t *testing.T) {
	eng, err := NewEngineWithFD(pingAlg{}, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Apply(Decision{Proc: 2, NewSuspicions: []Suspicion{{Observer: 2, Subject: 1}}})
	if !errors.Is(err, ErrAccuracy) {
		t.Errorf("err = %v, want ErrAccuracy (p1 is alive)", err)
	}
	// After p1 crashes, the same suspicion is legal.
	if _, err := eng.Apply(Decision{Crash: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(Decision{Proc: 2, NewSuspicions: []Suspicion{{Observer: 2, Subject: 1}}}); err != nil {
		t.Errorf("legal suspicion rejected: %v", err)
	}
}

func TestEngineRejectsSuspicionWithoutFD(t *testing.T) {
	eng, err := NewEngine(pingAlg{}, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(Decision{Crash: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = eng.Apply(Decision{Proc: 2, NewSuspicions: []Suspicion{{Observer: 2, Subject: 1}}})
	if !errors.Is(err, ErrNoFD) {
		t.Errorf("err = %v, want ErrNoFD", err)
	}
}

func TestRunHorizon(t *testing.T) {
	eng, err := NewEngine(pingAlg{}, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	never := SchedulerFunc(func(v *View) Decision { return Decision{Proc: 2} })
	if _, err := eng.Run(never, 5); !errors.Is(err, ErrHorizon) {
		t.Errorf("err = %v, want ErrHorizon", err)
	}
	if got := eng.Trace().LocalSteps[2]; got != 5 {
		t.Errorf("p2 took %d steps, want 5", got)
	}
}

func TestProcessSynchronyViolationDetected(t *testing.T) {
	// p2 takes 3 steps while p1 (alive) takes none: violates Φ=2.
	eng, err := NewEngine(pingAlg{}, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	script := &ScriptScheduler{Decisions: []Decision{
		{Proc: 2}, {Proc: 2}, {Proc: 2},
	}}
	tr, err := eng.Run(script, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckProcessSynchrony(tr, 2); len(v) == 0 {
		t.Error("Φ=2 violation not detected")
	}
	// With Φ=3 the same schedule is fine (no process took 4 steps).
	if v := CheckProcessSynchrony(tr, 3); len(v) != 0 {
		t.Errorf("spurious Φ=3 violation: %v", v[0].Error())
	}
}

func TestProcessSynchronyIgnoresCrashed(t *testing.T) {
	// p1 crashes; p2 may then take arbitrarily many consecutive steps.
	eng, err := NewEngine(pingAlg{}, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	script := &ScriptScheduler{Decisions: []Decision{
		{Crash: 1}, {Proc: 2}, {Proc: 2}, {Proc: 2}, {Proc: 2},
	}}
	tr, err := eng.Run(script, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckProcessSynchrony(tr, 1); len(v) != 0 {
		t.Errorf("crashed process should not constrain the window: %v", v[0].Error())
	}
}

func TestMessageSynchronyViolationDetected(t *testing.T) {
	eng, err := NewEngine(pingAlg{}, []model.Value{9, 0})
	if err != nil {
		t.Fatal(err)
	}
	// p1 sends at global step 1; p2 steps at 2 and 3 without delivery.
	script := &ScriptScheduler{Decisions: []Decision{
		{Proc: 1}, {Proc: 2}, {Proc: 2},
	}}
	tr, err := eng.Run(script, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Δ=1: p2's step at global 2 ≥ 1+1 must have delivered the message.
	if v := CheckMessageSynchrony(tr, 1); len(v) == 0 {
		t.Error("Δ=1 violation not detected")
	}
	// Δ=3: p2's first step at global ≥ 4 does not exist: no constraint.
	if v := CheckMessageSynchrony(tr, 3); len(v) != 0 {
		t.Errorf("spurious Δ=3 violation: %v", v[0].Error())
	}
}

func TestSSSchedulerProducesAdmissibleSchedules(t *testing.T) {
	for _, cfg := range []struct{ phi, delta int }{{1, 1}, {2, 3}, {3, 2}} {
		for seed := int64(0); seed < 30; seed++ {
			eng, err := NewEngine(pingAlg{}, []model.Value{5, 0, 0, 0})
			if err != nil {
				t.Fatal(err)
			}
			sched := NewSSScheduler(cfg.phi, cfg.delta, seed, StopWhenDecided(model.Singleton(2)))
			tr, err := eng.Run(sched, 10000)
			if err != nil {
				t.Fatalf("Φ=%d Δ=%d seed=%d: %v", cfg.phi, cfg.delta, seed, err)
			}
			if v := CheckProcessSynchrony(tr, cfg.phi); len(v) != 0 {
				t.Fatalf("Φ=%d Δ=%d seed=%d: process synchrony: %v", cfg.phi, cfg.delta, seed, v[0].Error())
			}
			if v := CheckMessageSynchrony(tr, cfg.delta); len(v) != 0 {
				t.Fatalf("Φ=%d Δ=%d seed=%d: message synchrony: %v", cfg.phi, cfg.delta, seed, v[0].Error())
			}
			if !tr.Decided[2] || tr.DecidedValue[2] != 5 {
				t.Fatalf("Φ=%d Δ=%d seed=%d: p2 decided (%v,%d)", cfg.phi, cfg.delta, seed, tr.Decided[2], tr.DecidedValue[2])
			}
		}
	}
}

func TestSSSchedulerCrashInjection(t *testing.T) {
	eng, err := NewEngine(pingAlg{}, []model.Value{5, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSSScheduler(2, 2, 42, StopWhenDecided(model.Singleton(2)))
	sched.CrashAtStep = map[model.ProcessID]int{1: 1} // p1 crashes before any step
	tr, err := eng.Run(sched, 1000)
	if !errors.Is(err, ErrHorizon) {
		// p2 never decides because the value never arrives; the scheduler
		// runs until the horizon.
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	if !tr.InitiallyCrashed(1) {
		t.Error("p1 should be initially crashed")
	}
	if tr.Decided[2] {
		t.Error("p2 decided without any input message (ping has no timeout)")
	}
}

func TestTraceHelpers(t *testing.T) {
	eng, err := NewEngine(pingAlg{}, []model.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(Decision{Proc: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(Decision{Crash: 1}); err != nil {
		t.Fatal(err)
	}
	tr := eng.Trace()
	if tr.InitiallyCrashed(1) {
		t.Error("p1 took a step: not initially crashed")
	}
	if tr.Alive(1) || !tr.Alive(2) {
		t.Error("Alive wrong")
	}
	if !tr.TookStep(1) || tr.TookStep(2) {
		t.Error("TookStep wrong")
	}
}

func TestEventString(t *testing.T) {
	m := Message{From: 1, To: 2, SentStep: 3, Payload: "x"}
	ev := Event{Kind: StepEvent, Global: 4, Proc: 2, Local: 1, Delivered: []Message{m}, Sent: nil}
	if got := ev.String(); got == "" {
		t.Error("empty event string")
	}
	crash := Event{Kind: CrashEvent, Global: 9, Proc: 1}
	if got := crash.String(); got != "[9] p1 CRASHES" {
		t.Errorf("crash string = %q", got)
	}
	if EventKind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
}

// runCrashPlan runs pingAlg on four processes for 40 steps under the SS
// (Φ = Δ = 1) or the SP scheduler with the given crash plan.
func runCrashPlan(t *testing.T, sp bool, seed int64, plan map[model.ProcessID]int) *Trace {
	t.Helper()
	ss := NewSSScheduler(1, 1, seed, nil)
	ss.CrashAtStep = plan
	var sched Scheduler = ss
	newEngine := NewEngine
	if sp {
		s := NewSPScheduler(seed, nil)
		s.CrashAtStep = plan
		sched, newEngine = s, NewEngineWithFD
	}
	eng, err := newEngine(pingAlg{}, []model.Value{5, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(sched, 40)
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	return tr
}

// TestCrashPlansFireInIDOrder: two crashes due at one step fire p1 first,
// then p3, so one seed gives one run — in SP too, where each crash draws
// its observers' detection delays from the shared generator.
func TestCrashPlansFireInIDOrder(t *testing.T) {
	for _, sp := range []bool{false, true} {
		for seed := int64(0); seed < 5; seed++ {
			plan := func() map[model.ProcessID]int { return map[model.ProcessID]int{3: 3, 1: 3} }
			tr := runCrashPlan(t, sp, seed, plan())
			var crashed []model.ProcessID
			for _, ev := range tr.Events {
				if ev.Kind == CrashEvent {
					crashed = append(crashed, ev.Proc)
				}
			}
			if len(crashed) != 2 || crashed[0] != 1 || crashed[1] != 3 {
				t.Fatalf("sp=%v seed=%d: crash order %v, want [p1 p3]", sp, seed, crashed)
			}
			want := RenderSteps(tr, 0)
			for i := 0; i < 20; i++ {
				if got := RenderSteps(runCrashPlan(t, sp, seed, plan()), 0); got != want {
					t.Fatalf("sp=%v seed=%d: repeat %d differs:\n%s\nwant:\n%s", sp, seed, i, got, want)
				}
			}
		}
	}
}

// TestCrashPlansAreOnlyRead: a crash plan reused for a second run crashes
// its victims there too, and the caller's map is left as it was.
func TestCrashPlansAreOnlyRead(t *testing.T) {
	for _, sp := range []bool{false, true} {
		plan := map[model.ProcessID]int{1: 2, 3: 5}
		for run := 1; run <= 2; run++ {
			tr := runCrashPlan(t, sp, 7, plan)
			if tr.CrashedAt[1] != 2 || tr.CrashedAt[3] != 5 {
				t.Fatalf("sp=%v run %d: CrashedAt = %v, want p1@2 p3@5", sp, run, tr.CrashedAt)
			}
		}
		if len(plan) != 2 || plan[1] != 2 || plan[3] != 5 {
			t.Fatalf("sp=%v: plan changed to %v", sp, plan)
		}
	}
}

// TestSSSchedulerCrashAtStepZero: a crash planned at step 0 is due before
// the first step, as in SP.
func TestSSSchedulerCrashAtStepZero(t *testing.T) {
	for _, sp := range []bool{false, true} {
		tr := runCrashPlan(t, sp, 3, map[model.ProcessID]int{1: 0})
		if !tr.InitiallyCrashed(1) || tr.CrashedAt[1] != 1 {
			t.Fatalf("sp=%v: CrashedAt[1] = %d, want 1 (initially crashed)", sp, tr.CrashedAt[1])
		}
	}
}
