package tracing

import (
	"testing"
	"time"

	"repro/internal/conform"
	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/runtime"
)

// liveTraced runs a live cluster with a tracer interposed on its event
// stream, checks conformance, and returns the trace together with the
// engine replay of the projected schedule.
func liveTraced(t *testing.T, alg rounds.Algorithm, cfg runtime.EngineConfig,
	initial []model.Value, open runtime.OpenOptions) (*Trace, *rounds.Run) {
	t.Helper()
	tracer := NewTracer(alg.Name(), cfg.Kind.String(), len(initial), cfg.T, cfg.Events)
	cfg.Events = tracer
	report, _, err := conform.CheckLive(alg, cfg, initial, open, conform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.ReplayErr != nil {
		t.Fatalf("replay rejected the projected schedule: %v", report.ReplayErr)
	}
	if !report.OK() {
		t.Fatalf("live run does not conform to its replay:\n%s", report)
	}
	return tracer.Finish(), report.Run
}

// TestLiveAttributionA1RWSvsRS is the issue's live acceptance criterion:
// for the same failure-free scenario, a live A1/RS trace attributes a
// one-round decision latency that sums exactly from its components, a live
// FloodSetWS/RWS trace pays the §5 second round, and both traces reconcile
// against the engine replay of their projected schedules.
func TestLiveAttributionA1RWSvsRS(t *testing.T) {
	initial := []model.Value{3, 1, 4}

	rsTrace, rsRun := liveTraced(t, consensus.A1{}, runtime.EngineConfig{
		Kind: rounds.RS, T: 1,
		RoundDuration: 40 * time.Millisecond,
		Metrics:       obs.NewRegistry(),
	}, initial, runtime.OpenOptions{})
	rwsTrace, rwsRun := liveTraced(t, consensus.FloodSetWS{}, runtime.EngineConfig{
		Kind: rounds.RWS, T: 1,
		Metrics: obs.NewRegistry(),
	}, initial, runtime.OpenOptions{})

	rs, rws := Attribute(rsTrace), Attribute(rwsTrace)
	for name, a := range map[string]*Attribution{"A1/RS": rs, "FloodSetWS/RWS": rws} {
		if err := a.CheckSums(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := ReconcileRounds(rs, rsRun); err != nil {
		t.Errorf("A1/RS: %v", err)
	}
	if err := ReconcileRounds(rws, rwsRun); err != nil {
		t.Errorf("FloodSetWS/RWS: %v", err)
	}

	if got := rs.ObservedRounds(); got != 1 {
		t.Errorf("live A1/RS decided after %d rounds, want 1 (Λ(A1)=1)", got)
	}
	if got := rws.ObservedRounds(); got != 2 {
		t.Errorf("live FloodSetWS/RWS decided after %d rounds, want 2 (Λ ≥ 2 in RWS)", got)
	}

	// The §5 cost must be visible in the trace itself: every RWS process
	// carries a round-2 attribution with a positive wait, while no RS
	// process attributes anything past round 1.
	for _, p := range rs.Procs {
		if len(p.Rounds) != 1 {
			t.Errorf("live RS p%d attributes %d rounds, want 1", p.Proc, len(p.Rounds))
		}
	}
	for _, p := range rws.Procs {
		if len(p.Rounds) != 2 {
			t.Fatalf("live RWS p%d attributes %d rounds, want 2", p.Proc, len(p.Rounds))
		}
		r2 := p.Rounds[1]
		if r2.Transport+r2.FDTimeout+r2.Barrier <= 0 {
			t.Errorf("live RWS p%d round 2 shows no wait; the second round's cost should be visible", p.Proc)
		}
	}

	// RS lock-step rounds are dominated by the barrier; with a 40ms round
	// and a loopback network, the barrier must carry most of the latency.
	for _, p := range rs.Procs {
		if p.Barrier*2 < p.Total {
			t.Errorf("live RS p%d: barrier %d < half of total %d; lock-step rounds should be barrier-dominated",
				p.Proc, p.Barrier, p.Total)
		}
	}
}

// TestLiveAttributionWithCrash exercises the crash path end to end: a
// crashing RWS process truncates its trace, the survivors' waits show
// detector time for the missing sender, and everything still reconciles.
func TestLiveAttributionWithCrash(t *testing.T) {
	trace, run := liveTraced(t, consensus.FloodSetWS{}, runtime.EngineConfig{
		Kind: rounds.RWS, T: 1,
		Metrics: obs.NewRegistry(),
	}, []model.Value{5, 9, 2}, runtime.OpenOptions{Crashes: map[model.ProcessID]runtime.CrashPlan{1: {Round: 1, Reach: 0}}})
	a := Attribute(trace)
	if err := a.CheckSums(); err != nil {
		t.Fatal(err)
	}
	if err := ReconcileRounds(a, run); err != nil {
		t.Error(err)
	}
	var crashed, fdTime int
	for _, p := range a.Procs {
		if p.Crashed {
			crashed++
			continue
		}
		if p.FDTimeout > 0 {
			fdTime++
		}
	}
	if crashed != 1 {
		t.Errorf("attribution shows %d crashed processes, want 1", crashed)
	}
	// p1 reached no one in round 1, so both survivors waited on the
	// detector to suspect it: round-1 waits must carry detector time.
	if fdTime != 2 {
		t.Errorf("%d survivors attribute detector time, want 2", fdTime)
	}
}
