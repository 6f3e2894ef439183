package repro

// The benchmark harness regenerates every table and figure of the paper
// (experiments E1–E11, see DESIGN.md §4) under the Go benchmark driver, and
// adds the ablation and substrate benchmarks DESIGN.md §5 calls out. Run:
//
//	go test -bench=. -benchmem
//
// The E-benchmarks time a full regeneration of the corresponding artifact;
// correctness of the regenerated numbers is asserted inside each iteration,
// so a benchmark run doubles as a reproduction check.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/emul"
	"repro/internal/explore"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/sdd"
	"repro/internal/step"
	"repro/internal/wire"
)

// requirePass fails the benchmark if an experiment stops reproducing.
func requirePass(b *testing.B, r *core.Report, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if !r.Pass {
		b.Fatalf("%s no longer reproduces:\n%s", r.ID, r)
	}
}

func BenchmarkE1_FloodSetRS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E1FloodSetRS(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

func BenchmarkE2_FloodSetWS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E2FloodSetWS(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

func BenchmarkE3_FOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E3FOpt(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

func BenchmarkE4_A1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E4A1(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

func BenchmarkE5_COptLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E5COpt(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

func BenchmarkE6_FOptLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E6FOptLat(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

func BenchmarkE7_LambdaSeparation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E7Lambda(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

func BenchmarkE8_SDD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E8SDD(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

func BenchmarkE9_CommitGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E9Commit(core.Config{Trials: 50})
		requirePass(b, r, err)
	}
}

func BenchmarkE10_Emulations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E10Emulation(core.Config{Trials: 40})
		requirePass(b, r, err)
	}
}

func BenchmarkE11_LatencyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E11Matrix(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

// --- Ablations (DESIGN.md §5) ---

// Ablation: RWS adversary power. Removing pending messages (DropProb = 0)
// makes plain FloodSet safe in RWS — pending messages, not mere crashes,
// are what separates the models.
func BenchmarkAblation_RWSWithoutPending(b *testing.B) {
	initial := []model.Value{0, 1, 2, 3}
	for i := 0; i < b.N; i++ {
		for seed := int64(0); seed < 50; seed++ {
			adv := rounds.NewRandomAdversary(seed, 0.5, 0) // no drops
			run, err := rounds.RunAlgorithm(rounds.RWS, consensus.FloodSet{}, initial, 1, adv)
			if err != nil {
				b.Fatal(err)
			}
			if bad := firstConsensusViolation(run); bad != "" {
				b.Fatalf("FloodSet violated %s in RWS without pending messages (seed %d)", bad, seed)
			}
		}
	}
}

// Ablation: with pending messages enabled, the same sweep must eventually
// break plain FloodSet.
func BenchmarkAblation_RWSWithPending(b *testing.B) {
	initial := []model.Value{0, 1, 2, 3}
	for i := 0; i < b.N; i++ {
		broken := false
		for seed := int64(0); seed < 200 && !broken; seed++ {
			adv := rounds.NewRandomAdversary(seed, 0.5, 0.5)
			adv.DropAll = false
			run, err := rounds.RunAlgorithm(rounds.RWS, consensus.FloodSet{}, initial, 1, adv)
			if err != nil {
				b.Fatal(err)
			}
			if firstConsensusViolation(run) != "" {
				broken = true
			}
		}
		if !broken {
			b.Fatal("pending messages never broke FloodSet across the sweep")
		}
	}
}

// Ablation: the SDD protocol's dependence on the true Δ bound — assuming a
// smaller Δ than the network honors must produce validity violations.
func BenchmarkAblation_SDDUnderestimatedDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		violated := false
		for seed := int64(0); seed < 200 && !violated; seed++ {
			alg := sdd.NewSS(1, 1) // protocol believes Δ=1
			eng, err := step.NewEngine(alg, []model.Value{1, 0})
			if err != nil {
				b.Fatal(err)
			}
			sched := step.NewSSScheduler(1, 6, seed, step.StopWhenDecided(model.Singleton(sdd.DefaultObserver)))
			tr, err := eng.Run(sched, 10000)
			if err != nil {
				b.Fatal(err)
			}
			if sdd.FirstViolation(tr, sdd.Spec{Sender: sdd.DefaultSender, Observer: sdd.DefaultObserver, Input: 1}) != nil {
				violated = true
			}
		}
		if !violated {
			b.Fatal("underestimated Δ never violated SDD validity")
		}
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkEngineRS_FloodSet_n8(b *testing.B) {
	initial := make([]model.Value, 8)
	for i := range initial {
		initial[i] = model.Value(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv := rounds.NewRandomAdversary(int64(i), 0.3, 0)
		if _, err := rounds.RunAlgorithm(rounds.RS, consensus.FloodSet{}, initial, 3, adv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineRWS_FloodSetWS_n8(b *testing.B) {
	initial := make([]model.Value, 8)
	for i := range initial {
		initial[i] = model.Value(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv := rounds.NewRandomAdversary(int64(i), 0.3, 0.3)
		if _, err := rounds.RunAlgorithm(rounds.RWS, consensus.FloodSetWS{}, initial, 3, adv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplore_A1_RWS(b *testing.B) {
	initial := []model.Value{0, 1, 1}
	for i := 0; i < b.N; i++ {
		if _, err := explore.Runs(rounds.RWS, consensus.A1{}, initial, 1, explore.Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreWorkers drains the n=4, t=2 FloodSetWS/RWS space — the
// largest sweep in the test suite — sequentially and with 1/2/4 explorer
// workers, reporting runs/sec and allocations per run. The sequential and
// parallel variants visit the identical run multiset (pinned by the
// equivalence property tests), so the metric is directly comparable across
// rows. CI's bench job uploads this benchmark's output; allocations per run
// also have a ceiling under plain `go test` (explore.TestRunsAllocsPerRun).
func BenchmarkExploreWorkers(b *testing.B) {
	initial := []model.Value{0, 1, 1, 0}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"seq", 0}, {"w1", 1}, {"w2", 2}, {"w4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			totalRuns := 0
			for i := 0; i < b.N; i++ {
				stats, err := explore.Runs(rounds.RWS, consensus.FloodSetWS{}, initial, 2,
					explore.Options{Workers: bc.workers}, nil)
				if err != nil {
					b.Fatal(err)
				}
				totalRuns += stats.Runs
			}
			b.ReportMetric(float64(totalRuns)/b.Elapsed().Seconds(), "runs/sec")
		})
	}
}

func BenchmarkLatencyCompute_FloodSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := latency.Compute(rounds.RS, consensus.FloodSet{}, 3, 1, explore.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepEmulationRS(b *testing.B) {
	initial := []model.Value{0, 5, 9}
	for i := 0; i < b.N; i++ {
		if _, err := emul.RunRS(consensus.FloodSet{}, initial, 1, 1, 1, 3, int64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepEmulationRWS(b *testing.B) {
	initial := []model.Value{0, 5, 9}
	for i := 0; i < b.N; i++ {
		if _, err := emul.RunRWS(consensus.FloodSetWS{}, initial, 1, 4, int64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	env, err := wire.EnvelopeFor(1, 2, 3, consensus.WMsg{W: model.NewValueSet(1, 2, 3, 4, 5, 6, 7, 8)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := wire.Encode(env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNBACCommitRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := nbac.MeasureRates(4, 100, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if rep.RSRate() <= rep.RWSRate() {
			b.Fatalf("commit gap vanished: %s", rep)
		}
	}
}

func BenchmarkLiveClusterRS(b *testing.B) {
	initial := []model.Value{4, 2, 7}
	for i := 0; i < b.N; i++ {
		cr, err := runtime.RunCluster(consensus.A1{}, runtime.EngineConfig{
			Kind: rounds.RS, T: 1,
			RoundDuration: 10 * time.Millisecond,
		}, initial, runtime.OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, st := cr.Agreement(); st != AgreementReached {
			b.Fatalf("agreement verdict %v", st)
		}
	}
}

func BenchmarkLiveClusterRWS(b *testing.B) {
	initial := []model.Value{4, 2, 7}
	for i := 0; i < b.N; i++ {
		cr, err := runtime.RunCluster(consensus.FloodSetWS{}, runtime.EngineConfig{
			Kind: rounds.RWS, T: 1,
		}, initial, runtime.OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, st := cr.Agreement(); st != AgreementReached {
			b.Fatalf("agreement verdict %v", st)
		}
	}
}

// firstConsensusViolation returns the name of the first violated uniform
// consensus property, or "".
func firstConsensusViolation(run *rounds.Run) string {
	for _, res := range CheckConsensus(run) {
		if !res.OK {
			return res.Property
		}
	}
	return ""
}

func BenchmarkE12_Extensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E12Extensions(core.Config{Trials: 20})
		requirePass(b, r, err)
	}
}

func BenchmarkE13_DiamondS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.E13DiamondS(core.Config{Trials: 32})
		requirePass(b, r, err)
	}
}

// BenchmarkScaling measures round-engine throughput as the system grows:
// one failure-free FloodSet execution per iteration.
func BenchmarkScaling(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("RS_n%d", n), func(b *testing.B) {
			initial := make([]model.Value, n)
			for i := range initial {
				initial[i] = model.Value(i)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run, err := rounds.RunAlgorithm(rounds.RS, consensus.FloodSet{}, initial, n/4, rounds.NoFailures)
				if err != nil {
					b.Fatal(err)
				}
				if lat, ok := run.Latency(); !ok || lat != n/4+1 {
					b.Fatalf("latency (%d,%v)", lat, ok)
				}
			}
		})
	}
}

// BenchmarkEmulationCost contrasts the step cost of the two §4 emulations —
// the RS-from-SS padding (geometric K_r) versus RWS-from-SP's
// receive-or-suspect (linear in traffic): the paper's efficiency framing
// applies to the emulations themselves.
func BenchmarkEmulationCost(b *testing.B) {
	initial := []model.Value{0, 5, 9}
	b.Run("RS_from_SS", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			res, err := emul.RunRS(consensus.FloodSet{}, initial, 1, 1, 1, 3, int64(i), nil)
			if err != nil {
				b.Fatal(err)
			}
			total += res.Steps
		}
		b.ReportMetric(float64(total)/float64(b.N), "steps/run")
	})
	b.Run("RWS_from_SP", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			res, err := emul.RunRWS(consensus.FloodSetWS{}, initial, 1, 4, int64(i), nil)
			if err != nil {
				b.Fatal(err)
			}
			total += res.Steps
		}
		b.ReportMetric(float64(total)/float64(b.N), "steps/run")
	})
}

// Ablation: failure-detection latency is decision latency. The live RWS
// cluster's time-to-decide under a crash scales with the suspicion timeout
// — quantifying why SP's *unbounded* detection delay (the paper's point)
// matters operationally.
func BenchmarkAblation_SuspicionLatency(b *testing.B) {
	for _, timeout := range []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 160 * time.Millisecond} {
		b.Run(timeout.String(), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				cr, err := runtime.RunCluster(consensus.FloodSetWS{}, runtime.EngineConfig{
					Kind: rounds.RWS, T: 1,
					SuspectTimeout: timeout,
				}, []model.Value{0, 5, 9}, runtime.OpenOptions{Crashes: map[model.ProcessID]runtime.CrashPlan{1: {Round: 1, Reach: 0}}})
				if err != nil {
					b.Fatal(err)
				}
				if _, st := cr.Agreement(); st != AgreementReached {
					b.Fatalf("agreement verdict %v", st)
				}
				total += cr.Elapsed
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ms-to-decide")
		})
	}
}

// a1NoFastPath wraps A1 and suppresses round-1 decisions: the ablation that
// shows Λ moving from 1 to 2 when the fast path is disabled.
type a1NoFastPath struct{}

func (a1NoFastPath) Name() string { return "A1-no-fast-path" }
func (a1NoFastPath) New(cfg rounds.ProcConfig) rounds.Process {
	return &a1NoFastProc{inner: consensus.A1{}.New(cfg)}
}

type a1NoFastProc struct {
	inner rounds.Process
	round int
}

func (p *a1NoFastProc) Msgs(round int) []rounds.Message { return p.inner.Msgs(round) }
func (p *a1NoFastProc) Trans(round int, received []rounds.Message) {
	p.inner.Trans(round, received)
	p.round = round
}
func (p *a1NoFastProc) Decision() (model.Value, bool) {
	if p.round < 2 {
		return 0, false
	}
	return p.inner.Decision()
}
func (p *a1NoFastProc) CloneProcess() rounds.Process {
	c := *p
	c.inner = p.inner.(rounds.Cloner).CloneProcess()
	return &c
}

func BenchmarkAblation_A1FastPathOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on, err := latency.Compute(rounds.RS, consensus.A1{}, 3, 1, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		off, err := latency.Compute(rounds.RS, a1NoFastPath{}, 3, 1, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if on.Lambda != 1 || off.Lambda != 2 {
			b.Fatalf("Λ with fast path = %d (want 1), without = %d (want 2)", on.Lambda, off.Lambda)
		}
		if off.Violations != 0 {
			b.Fatalf("disabling the fast path broke the spec: %d violations", off.Violations)
		}
	}
}
