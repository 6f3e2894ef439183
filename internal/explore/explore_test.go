package explore

import (
	"testing"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/rounds"
)

func binCfg(bits ...int64) []model.Value {
	out := make([]model.Value, len(bits))
	for i, b := range bits {
		out[i] = model.Value(b)
	}
	return out
}

func TestEnumeratePlansFailureFreeRS(t *testing.T) {
	v := &rounds.View{
		Round: 1, N: 3, T: 0, Model: rounds.RS,
		Alive:   model.FullSet(3),
		Sending: []model.ProcSet{0, model.FullSet(3), model.FullSet(3), model.FullSet(3)},
	}
	plans := EnumeratePlans(v, 0)
	if len(plans) != 1 {
		t.Fatalf("t=0 should admit exactly the failure-free plan, got %d plans", len(plans))
	}
	if len(plans[0].Crashes) != 0 || len(plans[0].Drops) != 0 {
		t.Errorf("unexpected non-trivial plan %v", plans[0])
	}
}

func TestEnumeratePlansCountsRS(t *testing.T) {
	// n=3, t=1, everyone broadcasting: plans are {no crash} ∪ {crash p,
	// reach ⊆ other two alive-completers} = 1 + 3·4 = 13.
	v := &rounds.View{
		Round: 1, N: 3, T: 1, Model: rounds.RS,
		Alive:   model.FullSet(3),
		Sending: []model.ProcSet{0, model.FullSet(3), model.FullSet(3), model.FullSet(3)},
	}
	plans := EnumeratePlans(v, 0)
	if len(plans) != 13 {
		t.Errorf("RS plan count = %d, want 13", len(plans))
	}
}

func TestEnumeratePlansCountsRWS(t *testing.T) {
	// Same view in RWS adds pending patterns when nobody crashes: each of
	// the 3 completers may drop a nonempty subset of its 2 peers (3 ways),
	// at most 1 dropper (budget 1): 1 + 3·3 = 10 no-crash plans. With one
	// crash the budget is exhausted, so drops disappear: 3·4 = 12.
	v := &rounds.View{
		Round: 1, N: 3, T: 1, Model: rounds.RWS,
		Alive:   model.FullSet(3),
		Sending: []model.ProcSet{0, model.FullSet(3), model.FullSet(3), model.FullSet(3)},
	}
	plans := EnumeratePlans(v, 0)
	if len(plans) != 22 {
		t.Errorf("RWS plan count = %d, want 22", len(plans))
	}
	for _, p := range plans {
		if len(p.Crashes) > 0 && len(p.Drops) > 0 {
			t.Errorf("plan %v spends more budget than t=1 allows", p)
		}
	}
}

func TestEnumeratePlansHonorsObligations(t *testing.T) {
	v := &rounds.View{
		Round: 2, N: 3, T: 1, Model: rounds.RWS,
		Alive:     model.FullSet(3),
		Obligated: model.Singleton(2),
		Sending:   []model.ProcSet{0, model.FullSet(3), model.FullSet(3), model.FullSet(3)},
	}
	plans := EnumeratePlans(v, 0)
	if len(plans) == 0 {
		t.Fatal("no plans enumerated")
	}
	for _, p := range plans {
		if _, ok := p.Crashes[2]; !ok {
			t.Fatalf("plan %v does not crash the obligated p2", p)
		}
	}
}

// TestExhaustiveFloodSetRS is experiment E1's core evidence: over EVERY
// admissible RS adversary and every binary initial configuration, FloodSet
// satisfies uniform consensus.
func TestExhaustiveFloodSetRS(t *testing.T) {
	configs := [][]model.Value{
		binCfg(0, 0, 0), binCfg(0, 0, 1), binCfg(0, 1, 0), binCfg(0, 1, 1),
		binCfg(1, 0, 0), binCfg(1, 0, 1), binCfg(1, 1, 0), binCfg(1, 1, 1),
	}
	total := 0
	for _, cfg := range configs {
		stats, err := Runs(rounds.RS, consensus.FloodSet{}, cfg, 1, Options{}, func(run *rounds.Run) bool {
			if bad := check.FirstViolation(run); bad != nil {
				t.Fatalf("config %v: %s\nrun %s", cfg, bad, run)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		total += stats.Runs
	}
	// n=3, t=1: round 1 admits 13 plans (failure-free + 3 victims × 4 reach
	// subsets). The 12 crash branches exhaust the budget (1 run each); the
	// failure-free branch admits 13 round-2 plans. 25 runs per config.
	if total != 25*len(configs) {
		t.Errorf("explored %d runs, want %d (exhaustive count)", total, 25*len(configs))
	}
}

// TestExhaustiveFloodSetWSInRWS is experiment E2's core evidence: FloodSetWS
// satisfies uniform consensus under EVERY admissible RWS adversary (n=3,
// t=1, all binary configs).
func TestExhaustiveFloodSetWSInRWS(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		cfg := binCfg(int64(mask&1), int64(mask>>1&1), int64(mask>>2&1))
		_, err := Runs(rounds.RWS, consensus.FloodSetWS{}, cfg, 1, Options{}, func(run *rounds.Run) bool {
			if run.Truncated {
				return true // unfinishable horizon prefix
			}
			if bad := check.FirstViolation(run); bad != nil {
				t.Fatalf("config %v: %s\nrun %s", cfg, bad, run)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestExplorerFindsFloodSetRWSDisagreement shows the explorer autonomously
// discovers the pending-message disagreement of plain FloodSet in RWS (the
// paper's §5.1 remark) — no hand-written scenario needed.
func TestExplorerFindsFloodSetRWSDisagreement(t *testing.T) {
	var witness *rounds.Run
	_, err := Runs(rounds.RWS, consensus.FloodSet{}, binCfg(0, 1, 2), 1, Options{}, func(run *rounds.Run) bool {
		if run.Truncated {
			return true
		}
		if !check.UniformAgreement(run).OK {
			witness = run
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if witness == nil {
		t.Fatal("explorer failed to find FloodSet's RWS disagreement")
	}
	if v := rounds.WeakRoundSynchrony(witness.Receptions()); len(v) != 0 {
		t.Fatalf("witness is not RWS-admissible: %v", v[0].Error())
	}
}

// TestExplorerFindsA1RWSDisagreement: the explorer also finds the §5.3
// scenario against A1 in RWS.
func TestExplorerFindsA1RWSDisagreement(t *testing.T) {
	var witness *rounds.Run
	_, err := Runs(rounds.RWS, consensus.A1{}, binCfg(0, 1, 1), 1, Options{}, func(run *rounds.Run) bool {
		if run.Truncated {
			return true
		}
		if !check.UniformAgreement(run).OK {
			witness = run
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if witness == nil {
		t.Fatal("explorer failed to find A1's RWS disagreement")
	}
}

// TestExhaustiveA1InRS is Theorem 5.2's evidence: A1 satisfies uniform
// consensus under every admissible RS adversary, and every run decides
// within 2 rounds.
func TestExhaustiveA1InRS(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		cfg := binCfg(int64(mask&1), int64(mask>>1&1), int64(mask>>2&1))
		_, err := Runs(rounds.RS, consensus.A1{}, cfg, 1, Options{}, func(run *rounds.Run) bool {
			if bad := check.FirstViolation(run); bad != nil {
				t.Fatalf("config %v: %s\nrun %s", cfg, bad, run)
			}
			if lat, ok := run.Latency(); !ok || lat > 2 {
				t.Fatalf("config %v: latency %d > 2 in %s", cfg, lat, run)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunsMaxCrashesCap(t *testing.T) {
	// With the cap at 1, no round introduces 2 crashes even though t=2.
	_, err := Runs(rounds.RS, consensus.FloodSet{}, binCfg(0, 1, 0), 2,
		Options{MaxCrashesPerRound: 1}, func(run *rounds.Run) bool {
			for i := range run.Rounds {
				if run.Rounds[i].Crashed.Count() > 1 {
					t.Fatalf("round %d crashed %v despite cap", i+1, run.Rounds[i].Crashed)
				}
			}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
}

// decideOwn is a bogus "fast" algorithm: decide your own value at round 1.
type decideOwn struct{}

func (decideOwn) Name() string { return "DecideOwn" }
func (decideOwn) New(cfg rounds.ProcConfig) rounds.Process {
	return &decideOwnProc{v: cfg.Initial}
}

type decideOwnProc struct {
	v       model.Value
	decided bool
}

func (p *decideOwnProc) Msgs(int) []rounds.Message { return nil }
func (p *decideOwnProc) Trans(round int, _ []rounds.Message) {
	if round == 1 {
		p.decided = true
	}
}
func (p *decideOwnProc) Decision() (model.Value, bool) { return p.v, p.decided }
func (p *decideOwnProc) CloneProcess() rounds.Process  { c := *p; return &c }

// minRoundOne is the natural Λ=1 candidate: broadcast your value, decide
// the minimum received at round 1. Correct when failure-free, refuted by
// the pending-message adversary.
type minRoundOne struct{}

func (minRoundOne) Name() string { return "MinRoundOne" }
func (minRoundOne) New(cfg rounds.ProcConfig) rounds.Process {
	return &minRoundOneProc{cfg: cfg, w: model.NewValueSet(cfg.Initial)}
}

type minRoundOneProc struct {
	cfg      rounds.ProcConfig
	w        model.ValueSet
	decided  bool
	decision model.Value
}

func (p *minRoundOneProc) Msgs(round int) []rounds.Message {
	if round > p.cfg.T+1 {
		return nil
	}
	out := make([]rounds.Message, p.cfg.N+1)
	for i := 1; i <= p.cfg.N; i++ {
		out[i] = consensus.WMsg{W: p.w}
	}
	return out
}

func (p *minRoundOneProc) Trans(round int, received []rounds.Message) {
	for j := 1; j < len(received); j++ {
		if m, ok := received[j].(consensus.WMsg); ok {
			p.w = p.w.Union(m.W)
		}
	}
	if !p.decided {
		if v, ok := p.w.Min(); ok {
			p.decision, p.decided = v, true
		}
	}
}

func (p *minRoundOneProc) Decision() (model.Value, bool) { return p.decision, p.decided }
func (p *minRoundOneProc) CloneProcess() rounds.Process  { c := *p; return &c } // Union never writes W

func TestRefuteRoundOneRWS(t *testing.T) {
	tests := []struct {
		name string
		alg  rounds.Algorithm
		want RefutationKind
	}{
		// A1 decides at round 1 of every failure-free run; the refuter must
		// exhibit the §5.3 pending-message disagreement.
		{"A1", consensus.A1{}, AgreementViolation},
		// DecideOwn disagrees already in a failure-free mixed run.
		{"DecideOwn", decideOwn{}, AgreementViolation},
		// MinRoundOne is the natural fast candidate; only the constructed
		// pending scenario defeats it.
		{"MinRoundOne", minRoundOne{}, AgreementViolation},
		// FloodSetWS is correct — so it cannot decide at round 1.
		{"FloodSetWS", consensus.FloodSetWS{}, NotRoundOne},
		// C_OptFloodSetWS decides at round 1 only on unanimity: some
		// failure-free run is slower, so Λ ≥ 2.
		{"C_OptFloodSetWS", consensus.COptFloodSetWS{}, NotRoundOne},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ref, err := RefuteRoundOneRWS(tt.alg, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Kind != tt.want {
				t.Fatalf("refutation kind = %v, want %v\n%s", ref.Kind, tt.want, ref)
			}
			if ref.Run == nil {
				t.Fatal("refutation carries no witness run")
			}
			if tt.want == AgreementViolation {
				if viol := rounds.WeakRoundSynchrony(ref.Run.Receptions()); len(viol) != 0 {
					t.Errorf("witness not RWS-admissible: %v", viol[0].Error())
				}
				if check.UniformAgreement(ref.Run).OK {
					t.Error("witness does not actually violate uniform agreement")
				}
			}
		})
	}
}

func TestRefuteRoundOneRWSValidation(t *testing.T) {
	if _, err := RefuteRoundOneRWS(consensus.A1{}, 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := RefuteRoundOneRWS(consensus.FloodSetWS{}, 3, 0); err == nil {
		t.Error("t=0 accepted")
	}
}

// TestExhaustiveFloodSetWSInRWSTolTwo deepens E2's evidence to t = 2:
// two crash budgets admit simultaneous droppers and chained obligations,
// the regime where naive pending-message defenses tend to break.
func TestExhaustiveFloodSetWSInRWSTolTwo(t *testing.T) {
	for _, cfg := range [][]model.Value{binCfg(0, 1, 1), binCfg(1, 0, 1), binCfg(0, 0, 0), binCfg(2, 1, 0)} {
		stats, err := Runs(rounds.RWS, consensus.FloodSetWS{}, cfg, 2, Options{}, func(run *rounds.Run) bool {
			if run.Truncated {
				return true
			}
			if bad := check.FirstViolation(run); bad != nil {
				t.Fatalf("config %v: %s\nrun %s", cfg, bad, run)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Runs < 1000 {
			t.Fatalf("config %v: only %d runs; t=2 space should be much larger", cfg, stats.Runs)
		}
	}
}

// TestRunsAllocsPerRun caps what enumerating one run may allocate on the
// largest sweep in the suite (FloodSetWS/RWS n=4 t=2, 33 591 runs): 35.2
// with warm pools. The explorer's throughput is a wall-clock number and
// lives in BenchmarkExploreWorkers (root package); its allocation count is
// not, so it is pinned here.
func TestRunsAllocsPerRun(t *testing.T) {
	runs := 0
	sweep := func() {
		stats, err := Runs(rounds.RWS, consensus.FloodSetWS{}, binCfg(0, 1, 1, 0), 2, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = stats.Runs
	}
	// AllocsPerRun's warm-up call primes the enumeration pools.
	perSweep := testing.AllocsPerRun(1, sweep)
	if runs != 33591 {
		t.Fatalf("sweep visited %d runs, want 33591", runs)
	}
	// The race detector's sync.Pool drops entries at random: 36.2 there.
	if perRun := perSweep / float64(runs); perRun > 39 {
		t.Errorf("%.1f allocations per explored run, want ≤ 39", perRun)
	}
}
