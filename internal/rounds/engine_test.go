package rounds

import (
	"errors"
	"testing"

	"repro/internal/model"
)

// echoAlg is a trivial test algorithm: every process broadcasts its initial
// value each round and decides it at round 1. It exists to exercise engine
// mechanics independently of the real consensus algorithms.
type echoAlg struct{}

func (echoAlg) Name() string { return "echo" }

func (echoAlg) New(cfg ProcConfig) Process {
	return &echoProc{cfg: cfg}
}

type echoProc struct {
	cfg      ProcConfig
	decided  bool
	decision model.Value
	// seen[r] records the senders heard from at round r.
	seen map[int]model.ProcSet
}

func (p *echoProc) Msgs(round int) []Message {
	out := make([]Message, p.cfg.N+1)
	for i := 1; i <= p.cfg.N; i++ {
		out[i] = p.cfg.Initial
	}
	return out
}

func (p *echoProc) Trans(round int, received []Message) {
	if p.seen == nil {
		p.seen = make(map[int]model.ProcSet)
	}
	var s model.ProcSet
	for j := 1; j < len(received); j++ {
		if received[j] != nil {
			s = s.Add(model.ProcessID(j))
		}
	}
	p.seen[round] = s
	if !p.decided {
		p.decided, p.decision = true, p.cfg.Initial
	}
}

func (p *echoProc) Decision() (model.Value, bool) { return p.decision, p.decided }

func (p *echoProc) CloneProcess() Process {
	c := *p
	c.seen = make(map[int]model.ProcSet, len(p.seen))
	for k, v := range p.seen {
		c.seen[k] = v
	}
	return &c
}

func vals(vs ...int64) []model.Value {
	out := make([]model.Value, len(vs))
	for i, v := range vs {
		out[i] = model.Value(v)
	}
	return out
}

func TestNewEngineValidation(t *testing.T) {
	tests := []struct {
		name    string
		kind    ModelKind
		initial []model.Value
		tol     int
		wantErr bool
	}{
		{"ok", RS, vals(0, 1, 2), 1, false},
		{"empty system", RS, nil, 0, true},
		{"t equals n", RS, vals(0, 1), 2, true},
		{"negative t", RWS, vals(0, 1), -1, true},
		{"bad kind", ModelKind(9), vals(0, 1), 1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewEngine(tt.kind, echoAlg{}, tt.initial, tt.tol)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewEngine err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestFailureFreeDelivery(t *testing.T) {
	e, err := NewEngine(RS, echoAlg{}, vals(10, 20, 30), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(NoFailures); err != nil {
		t.Fatal(err)
	}
	run := e.finish()
	if got := run.Rounds[0].Messages; got != 6 {
		t.Errorf("round 1 delivered %d network messages, want 6 (3 procs × 2 others)", got)
	}
	for p := 1; p <= 3; p++ {
		if run.DecidedAt[p] != 1 {
			t.Errorf("p%d decided at %d, want 1", p, run.DecidedAt[p])
		}
	}
	lat, ok := run.Latency()
	if !ok || lat != 1 {
		t.Errorf("latency = (%d,%v), want (1,true)", lat, ok)
	}
}

func TestCrashDuringRoundSkipsTransition(t *testing.T) {
	e, err := NewEngine(RS, echoAlg{}, vals(1, 2, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	adv := &CrashOnceAdversary{Victim: 2, Round: 1, Reach: model.Singleton(1)}
	if err := e.Step(adv); err != nil {
		t.Fatal(err)
	}
	run := e.finish()
	if run.CrashRound[2] != 1 {
		t.Fatalf("p2 crash round = %d, want 1", run.CrashRound[2])
	}
	if run.DecidedAt[2] != 0 {
		t.Error("p2 crashed during round 1 but still decided (transition should be skipped)")
	}
	// p1 was reached by p2's partial broadcast; p3 was not.
	if !run.Rounds[0].Reached[2].Has(1) || run.Rounds[0].Reached[2].Has(3) {
		t.Errorf("p2 reached %v, want exactly {p1}", run.Rounds[0].Reached[2])
	}
}

func TestCrashedProcessStopsParticipating(t *testing.T) {
	e, err := NewEngine(RS, echoAlg{}, vals(1, 2, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	adv := &CrashOnceAdversary{Victim: 3, Round: 1, Reach: 0}
	if err := e.Step(adv); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(adv); err != nil {
		t.Fatal(err)
	}
	run := e.finish()
	if !run.Rounds[1].Sent[3].Empty() {
		t.Error("crashed p3 sent messages in round 2")
	}
	if run.Rounds[1].AliveStart != model.FullSet(3).Remove(3) {
		t.Errorf("round 2 alive = %v, want {p1,p2}", run.Rounds[1].AliveStart)
	}
}

func TestPlanValidationErrors(t *testing.T) {
	tests := []struct {
		name    string
		kind    ModelKind
		tol     int
		plan    Plan
		wantErr error
	}{
		{
			"crash dead process twice",
			RS, 2,
			Plan{Crashes: map[model.ProcessID]model.ProcSet{9: 0}},
			ErrNotAlive,
		},
		{
			"budget exceeded",
			RS, 1,
			Plan{Crashes: map[model.ProcessID]model.ProcSet{1: 0, 2: 0}},
			ErrBudgetExceeded,
		},
		{
			"drops in RS",
			RS, 1,
			Plan{Drops: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
			ErrDropInRS,
		},
		{
			"drop to self",
			RWS, 1,
			Plan{Drops: map[model.ProcessID]model.ProcSet{1: model.Singleton(1)}},
			ErrDropSelf,
		},
		{
			"drop and crash same round",
			RWS, 2,
			Plan{
				Crashes: map[model.ProcessID]model.ProcSet{1: 0},
				Drops:   map[model.ProcessID]model.ProcSet{1: model.Singleton(2)},
			},
			ErrDropAndCrash,
		},
		{
			"drop without crash budget",
			RWS, 1,
			Plan{
				Crashes: map[model.ProcessID]model.ProcSet{2: 0},
				Drops:   map[model.ProcessID]model.ProcSet{1: model.Singleton(3)},
			},
			ErrBudgetExceeded,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, err := NewEngine(tt.kind, echoAlg{}, vals(1, 2, 3), tt.tol)
			if err != nil {
				t.Fatal(err)
			}
			err = e.Step(AdversaryFunc(func(*View) Plan { return tt.plan }))
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Step err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestObligationMustBeHonored(t *testing.T) {
	e, err := NewEngine(RWS, echoAlg{}, vals(1, 2, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	drop := AdversaryFunc(func(v *View) Plan {
		if v.Round == 1 {
			return Plan{Drops: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}}
		}
		return FailureFree
	})
	if err := e.Step(drop); err != nil {
		t.Fatal(err)
	}
	if got := e.Obligated(); got != model.Singleton(1) {
		t.Fatalf("obligated = %v, want {p1}", got)
	}
	// Round 2 with a failure-free plan violates weak round synchrony.
	err = e.Step(drop)
	if !errors.Is(err, ErrObligationBroken) {
		t.Errorf("Step err = %v, want ErrObligationBroken", err)
	}
}

func TestDropToSameRoundCrasherCreatesNoObligation(t *testing.T) {
	e, err := NewEngine(RWS, echoAlg{}, vals(1, 2, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	adv := AdversaryFunc(func(v *View) Plan {
		if v.Round != 1 {
			return FailureFree
		}
		// p1 drops only to p3, and p3 crashes this very round: no live
		// receiver observes a missing message, so no obligation arises.
		return Plan{
			Crashes: map[model.ProcessID]model.ProcSet{3: 0},
			Drops:   map[model.ProcessID]model.ProcSet{1: model.Singleton(3)},
		}
	})
	if err := e.Step(adv); err != nil {
		t.Fatal(err)
	}
	if !e.Obligated().Empty() {
		t.Errorf("obligated = %v, want empty (drop only to a crashed receiver)", e.Obligated())
	}
}

func TestScriptDischargesObligationsPastEnd(t *testing.T) {
	script := &Script{Plans: []Plan{
		{Drops: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
	}}
	run, err := RunAlgorithm(RWS, echoAlg{}, vals(1, 2, 3), 1, script)
	if err != nil {
		t.Fatal(err)
	}
	if run.CrashRound[1] != 2 {
		t.Errorf("p1 crash round = %d, want 2 (obligation discharged by script default)", run.CrashRound[1])
	}
	if v := WeakRoundSynchrony(run.Receptions()); len(v) != 0 {
		t.Errorf("weak round synchrony violations: %v", v)
	}
}

func TestSelfDeliveryAlwaysSucceedsForSurvivors(t *testing.T) {
	e, err := NewEngine(RWS, echoAlg{}, vals(1, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	adv := AdversaryFunc(func(v *View) Plan {
		if v.Round == 1 {
			return Plan{Drops: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}}
		}
		return (&Script{}).Plan(v)
	})
	if err := e.Step(adv); err != nil {
		t.Fatal(err)
	}
	p1 := e.procs[1].(*echoProc)
	if !p1.seen[1].Has(1) {
		t.Error("p1 did not receive its own message despite completing the round")
	}
	p2 := e.procs[2].(*echoProc)
	if p2.seen[1].Has(1) {
		t.Error("p2 received p1's dropped (pending) message")
	}
}

func TestExecuteStopsWhenAllLiveDecided(t *testing.T) {
	run, err := RunAlgorithm(RS, echoAlg{}, vals(5, 5, 5), 1, NoFailures)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Rounds) != 1 {
		t.Errorf("rounds = %d, want 1 (echo decides immediately)", len(run.Rounds))
	}
	if run.Truncated {
		t.Error("run marked truncated")
	}
}

// undecidedAlg never decides, to exercise the round limit.
type undecidedAlg struct{ echoAlg }

func (undecidedAlg) Name() string { return "undecided" }

func (undecidedAlg) New(cfg ProcConfig) Process { return &undecidedProc{} }

type undecidedProc struct{}

func (*undecidedProc) Msgs(int) []Message            { return nil }
func (*undecidedProc) Trans(int, []Message)          {}
func (*undecidedProc) Decision() (model.Value, bool) { return 0, false }
func (p *undecidedProc) CloneProcess() Process       { c := *p; return &c }

func TestExecuteTruncatesAtRoundLimit(t *testing.T) {
	run, err := RunAlgorithm(RS, undecidedAlg{}, vals(1, 2), 1, NoFailures, WithRoundLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	if !run.Truncated {
		t.Error("run not marked truncated")
	}
	if len(run.Rounds) != 3 {
		t.Errorf("rounds = %d, want 3", len(run.Rounds))
	}
	if _, ok := run.Latency(); ok {
		t.Error("truncated run reported a finite latency")
	}
}

func TestEngineCloneIsIndependent(t *testing.T) {
	e, err := NewEngine(RS, echoAlg{}, vals(1, 2, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(NoFailures); err != nil {
		t.Fatal(err)
	}
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Crash p1 only in the clone.
	adv := &CrashOnceAdversary{Victim: 1, Round: 2, Reach: 0}
	if err := c.Step(adv); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(NoFailures); err != nil {
		t.Fatal(err)
	}
	if e.Alive() != model.FullSet(3) {
		t.Errorf("original engine alive = %v, want all", e.Alive())
	}
	if c.Alive() != model.FullSet(3).Remove(1) {
		t.Errorf("clone alive = %v, want {p2,p3}", c.Alive())
	}
	if len(e.finish().Rounds) != 2 || len(c.finish().Rounds) != 2 {
		t.Error("run records entangled between clone and original")
	}
}

func TestRandomAdversaryAlwaysLegal(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, kind := range []ModelKind{RS, RWS} {
			adv := NewRandomAdversary(seed, 0.5, 0.5)
			run, err := RunAlgorithm(kind, echoAlg{}, vals(3, 1, 2, 9, 4), 2, adv)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, kind, err)
			}
			if v := Admissible(run); len(v) != 0 {
				t.Fatalf("seed %d %v: inadmissible run: %v", seed, kind, v[0].Error())
			}
			if run.NumFaulty() > 2 {
				t.Fatalf("seed %d %v: %d crashes exceed t", seed, kind, run.NumFaulty())
			}
		}
	}
}

func TestInitialCrashAdversary(t *testing.T) {
	adv := &InitialCrashAdversary{Victims: model.Singleton(1).Add(3)}
	run, err := RunAlgorithm(RS, echoAlg{}, vals(1, 2, 3, 4), 2, adv)
	if err != nil {
		t.Fatal(err)
	}
	if run.CrashRound[1] != 1 || run.CrashRound[3] != 1 {
		t.Errorf("crash rounds = %v, want p1,p3 at round 1", run.CrashRound)
	}
	if !run.Rounds[0].Reached[1].Empty() {
		t.Error("initially crashed p1 reached someone")
	}
}

func TestModelKindString(t *testing.T) {
	if RS.String() != "RS" || RWS.String() != "RWS" {
		t.Error("ModelKind strings wrong")
	}
	if ModelKind(7).String() != "ModelKind(7)" {
		t.Error("unknown ModelKind string wrong")
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{
		Crashes: map[model.ProcessID]model.ProcSet{2: model.Singleton(1)},
		Drops:   map[model.ProcessID]model.ProcSet{3: model.Singleton(1)},
	}
	want := "plan{p2↯→{p1} p3⊘{p1}}"
	if got := p.String(); got != want {
		t.Errorf("Plan.String() = %q, want %q", got, want)
	}
	if got := FailureFree.String(); got != "plan{}" {
		t.Errorf("FailureFree.String() = %q", got)
	}
}
