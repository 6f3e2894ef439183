package check

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/rounds"
)

// fabricated builds a minimal Run record by hand so the predicates can be
// tested against exact shapes, independent of any engine.
type fabricated struct {
	n          int
	initial    []int64
	decidedAt  []int
	decisions  []int64
	crashRound []int
	truncated  bool
}

func (f fabricated) run() *rounds.Run {
	n := f.n
	run := &rounds.Run{
		Algorithm:  "fabricated",
		Model:      rounds.RS,
		N:          n,
		T:          n - 1,
		Initial:    make([]model.Value, n+1),
		CrashRound: make([]int, n+1),
		DecidedAt:  make([]int, n+1),
		DecisionOf: make([]model.Value, n+1),
		Truncated:  f.truncated,
	}
	for i := 1; i <= n; i++ {
		run.Initial[i] = model.Value(f.initial[i-1])
		if f.decidedAt != nil {
			run.DecidedAt[i] = f.decidedAt[i-1]
		}
		if f.decisions != nil {
			run.DecisionOf[i] = model.Value(f.decisions[i-1])
		}
		if f.crashRound != nil {
			run.CrashRound[i] = f.crashRound[i-1]
		}
	}
	// Each crash is recorded in its round, as the engine records it: the
	// rounds up to the last crash, in which no process sends.
	alive := model.FullSet(n)
	for r := 1; r <= slices.Max(run.CrashRound); r++ {
		rec := rounds.RoundRecord{Round: r, AliveStart: alive,
			Sent: make([]model.ProcSet, n+1), Reached: make([]model.ProcSet, n+1)}
		for i := 1; i <= n; i++ {
			if run.CrashRound[i] == r {
				rec.Crashed = rec.Crashed.Add(model.ProcessID(i))
			}
		}
		alive = alive.Minus(rec.Crashed)
		run.Rounds = append(run.Rounds, rec)
	}
	return run
}

func TestUniformAgreement(t *testing.T) {
	tests := []struct {
		name string
		f    fabricated
		ok   bool
	}{
		{
			"all agree",
			fabricated{n: 3, initial: []int64{1, 2, 3}, decidedAt: []int{1, 1, 1}, decisions: []int64{1, 1, 1}},
			true,
		},
		{
			"disagree",
			fabricated{n: 3, initial: []int64{1, 2, 3}, decidedAt: []int{1, 1, 1}, decisions: []int64{1, 2, 1}},
			false,
		},
		{
			"faulty decider counts (uniformity)",
			fabricated{n: 3, initial: []int64{1, 2, 3}, decidedAt: []int{1, 2, 2},
				decisions: []int64{1, 2, 2}, crashRound: []int{2, 0, 0}},
			false,
		},
		{
			"undecided ignored",
			fabricated{n: 3, initial: []int64{1, 2, 3}, decidedAt: []int{0, 1, 1}, decisions: []int64{9, 2, 2}},
			true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := UniformAgreement(tt.f.run())
			if res.OK != tt.ok {
				t.Errorf("OK = %v, want %v (%s)", res.OK, tt.ok, res.Detail)
			}
		})
	}
}

func TestUniformValidity(t *testing.T) {
	unanimousBad := fabricated{n: 2, initial: []int64{5, 5}, decidedAt: []int{1, 1}, decisions: []int64{5, 6}}
	if UniformValidity(unanimousBad.run()).OK {
		t.Error("unanimous 5 deciding 6 accepted")
	}
	mixed := fabricated{n: 2, initial: []int64{5, 6}, decidedAt: []int{1, 1}, decisions: []int64{7, 7}}
	if !UniformValidity(mixed.run()).OK {
		t.Error("validity is vacuous for mixed inputs")
	}
}

func TestValueOrigin(t *testing.T) {
	f := fabricated{n: 2, initial: []int64{5, 6}, decidedAt: []int{1, 1}, decisions: []int64{7, 7}}
	if ValueOrigin(f.run()).OK {
		t.Error("decision 7 not among proposals but accepted")
	}
	g := fabricated{n: 2, initial: []int64{5, 6}, decidedAt: []int{1, 1}, decisions: []int64{6, 6}}
	if !ValueOrigin(g.run()).OK {
		t.Error("legitimate decision rejected")
	}
}

func TestTermination(t *testing.T) {
	undecidedCorrect := fabricated{n: 2, initial: []int64{1, 2}, decidedAt: []int{1, 0}}
	if Termination(undecidedCorrect.run()).OK {
		t.Error("correct undecided process accepted")
	}
	undecidedFaulty := fabricated{n: 2, initial: []int64{1, 2}, decidedAt: []int{1, 0},
		decisions: []int64{1, 0}, crashRound: []int{0, 1}}
	if !Termination(undecidedFaulty.run()).OK {
		t.Error("faulty process need not decide")
	}
	truncated := fabricated{n: 2, initial: []int64{1, 2}, decidedAt: []int{1, 1}, decisions: []int64{1, 1}, truncated: true}
	if Termination(truncated.run()).OK {
		t.Error("truncated run accepted")
	}
}

func TestConsensusBundleAndHelpers(t *testing.T) {
	good := fabricated{n: 2, initial: []int64{2, 1}, decidedAt: []int{1, 1}, decisions: []int64{1, 1}}
	results := Consensus(good.run())
	if len(results) != 5 {
		t.Fatalf("Consensus returned %d results, want 5", len(results))
	}
	ok, bad := AllOK(results)
	if !ok || bad != nil {
		t.Errorf("AllOK = (%v, %v)", ok, bad)
	}
	if FirstViolation(good.run()) != nil {
		t.Error("FirstViolation on a clean run")
	}
	badRun := fabricated{n: 2, initial: []int64{2, 1}, decidedAt: []int{1, 1}, decisions: []int64{1, 2}}
	v := FirstViolation(badRun.run())
	if v == nil || v.Property != "uniform agreement" {
		t.Errorf("FirstViolation = %v", v)
	}
	if !strings.Contains(v.String(), "VIOLATED") {
		t.Errorf("String = %q", v.String())
	}
}

// flipFlop decides different values over time — integrity must catch it.
type flipFlop struct{}

func (flipFlop) Name() string { return "flipflop" }
func (flipFlop) New(cfg rounds.ProcConfig) rounds.Process {
	return &flipProc{}
}

type flipProc struct{ round int }

func (p *flipProc) Msgs(int) []rounds.Message { return nil }
func (p *flipProc) Trans(round int, _ []rounds.Message) {
	p.round = round
}
func (p *flipProc) Decision() (model.Value, bool) { return model.Value(p.round), p.round >= 1 }
func (p *flipProc) CloneProcess() rounds.Process  { c := *p; return &c }

func TestIntegrityWrapperCatchesFlips(t *testing.T) {
	ia := NewIntegrityAlgorithm(flipFlop{})
	eng, err := rounds.NewEngine(rounds.RS, ia, []model.Value{0, 0}, 1, rounds.WithRoundLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execute(rounds.NoFailures, 3); err != nil {
		t.Fatal(err)
	}
	if len(ia.Violations()) == 0 {
		t.Error("decision flip not detected")
	}
}

func TestIntegrityWrapperCleanAlgorithm(t *testing.T) {
	// A constant decider never violates integrity.
	ia := NewIntegrityAlgorithm(constAlg{})
	eng, err := rounds.NewEngine(rounds.RS, ia, []model.Value{7, 7}, 1, rounds.WithRoundLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execute(rounds.NoFailures, 3); err != nil {
		t.Fatal(err)
	}
	if v := ia.Violations(); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
	if ia.Name() != "const" {
		t.Errorf("Name = %q", ia.Name())
	}
}

type constAlg struct{}

func (constAlg) Name() string { return "const" }
func (constAlg) New(cfg rounds.ProcConfig) rounds.Process {
	return &constProc{v: cfg.Initial}
}

type constProc struct {
	v       model.Value
	decided bool
}

func (p *constProc) Msgs(int) []rounds.Message { return nil }
func (p *constProc) Trans(int, []rounds.Message) {
	p.decided = true
}
func (p *constProc) Decision() (model.Value, bool) { return p.v, p.decided }
func (p *constProc) CloneProcess() rounds.Process  { c := *p; return &c }
