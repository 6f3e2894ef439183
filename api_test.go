package repro

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/fdimpl"
	"repro/internal/nbac"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/serve"
	"repro/internal/tracing"
)

func TestQuickConsensusRun(t *testing.T) {
	run, err := Run(RS, FloodSet(), []Value{4, 2, 7}, 1, NoFailures)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range CheckConsensus(run) {
		if !res.OK {
			t.Fatalf("violation: %s", res)
		}
	}
	if run.DecisionOf[1] != 2 {
		t.Errorf("decided %d, want 2", run.DecisionOf[1])
	}
	if !strings.Contains(RenderRun(run), "latency degree") {
		t.Error("RenderRun missing latency line")
	}
}

func TestAlgorithmsSuite(t *testing.T) {
	if len(Algorithms()) != 7 {
		t.Errorf("suite size = %d, want 7", len(Algorithms()))
	}
	names := map[string]bool{}
	for _, a := range Algorithms() {
		names[a.Name()] = true
	}
	for _, want := range []string{"FloodSet", "FloodSetWS", "C_OptFloodSet", "C_OptFloodSetWS", "F_OptFloodSet", "F_OptFloodSetWS", "A1"} {
		if !names[want] {
			t.Errorf("missing algorithm %q", want)
		}
	}
}

func TestLatencyAPI(t *testing.T) {
	d, err := Latency(RS, A1(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Lambda != 1 {
		t.Errorf("Λ(A1) = %d, want 1", d.Lambda)
	}
}

func TestExploreAPI(t *testing.T) {
	count := 0
	err := Explore(RS, FloodSet(), []Value{0, 1, 0}, 1, func(run *RoundRun) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 25 {
		t.Errorf("explored %d runs, want 25", count)
	}
}

func TestRefutersAPI(t *testing.T) {
	ref, err := RefuteRoundOneRWS(A1(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Run == nil {
		t.Error("no witness run")
	}
	for _, cand := range SDDCandidates() {
		spRef, err := RefuteSDDInSP(cand, 500)
		if err != nil {
			t.Fatal(err)
		}
		if spRef.Witness == nil {
			t.Errorf("%s: no witness", cand.Name())
		}
	}
}

func TestRunLiveAPI(t *testing.T) {
	cr, err := RunLive(FloodSetWS(), EngineConfig{
		Kind: RWS, T: 1,
	}, []Value{4, 2, 7}, LiveOpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, st := cr.Agreement(); st != AgreementReached || v != 2 {
		t.Errorf("live agreement = (%d,%v), want (2,reached)", v, st)
	}
	// Every live run carries its transport cost accounting.
	cost := cr.Stats.Cost
	if cost == nil || cost.Decisions != 3 || cost.DataMessagesPerDecision <= 0 {
		t.Errorf("cost summary = %+v, want 3 decisions with positive data cost", cost)
	}
	if cr.Links == nil || cr.Links.Totals().MsgsSent == 0 {
		t.Error("no per-link telemetry on the cluster result")
	}
}

func TestLiveEngineInstancesAPI(t *testing.T) {
	eng, err := StartLiveEngine(FloodSetWS(), EngineConfig{
		N: 3, T: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	handles := make([]*LiveInstance, 8)
	for inst := range handles {
		if handles[inst], err = eng.OpenValue(Value(inst % 3)); err != nil {
			t.Fatal(err)
		}
	}
	for inst, h := range handles {
		<-h.Done()
		out, _ := h.Outcome()
		if v, st := out.Agreement(); st != AgreementReached || v != Value(inst%3) {
			t.Errorf("instance %d: agreement (%d,%v), want (%d,reached)", inst, v, st, inst%3)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := eng.Stats()
	if st.DecidedNodes != 8*3 {
		t.Fatalf("DecidedNodes = %d, want 24", st.DecidedNodes)
	}
	// The shared detector's control cost is split out of the transport
	// accounting — the figure the engine amortizes across instances.
	if st.Cost == nil || st.Cost.Decisions != 24 || st.Cost.DataMessagesPerDecision <= 0 {
		t.Errorf("engine cost summary = %+v, want 24 decisions with positive data cost", st.Cost)
	}
	if st.UnknownInstanceDrops != 0 {
		t.Errorf("UnknownInstanceDrops = %d on a clean run", st.UnknownInstanceDrops)
	}
}

func TestLiveEngineAPI(t *testing.T) {
	eng, err := StartLiveEngine(FloodSetWS(), EngineConfig{
		N: 3, T: 1,
		HeartbeatPeriod: 2 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var inst *LiveInstance
	inst, err = eng.OpenValue(9)
	if err != nil {
		t.Fatal(err)
	}
	<-inst.Done()
	out, ok := inst.Outcome()
	if !ok {
		t.Fatal("Outcome not available after Done closed")
	}
	var _ InstanceOutcome = out
	if v, st := out.Agreement(); st != AgreementReached || v != 9 {
		t.Fatalf("on-demand instance agreement = (%d,%v), want (9,reached)", v, st)
	}
	var stats LiveEngineStats = eng.Stats()
	if stats.Completed != 1 || stats.AgreementReached != 1 {
		t.Errorf("engine stats = %+v, want 1 completed/reached", stats)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServingAPI drives the daemon from its internal package and checks the
// exported client and linearizability checker against it.
func TestServingAPI(t *testing.T) {
	srv, err := serve.New(serve.Config{
		N: 3, T: 1,
		HeartbeatPeriod: 2 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
		Conform:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		BaseURL:      ts.URL,
		Clients:      4,
		Keys:         2,
		OpsPerClient: 5,
		Seed:         2,
		RecordOps:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 20 || rep.CASOk == 0 {
		t.Fatalf("load report = %s, want 20 ops with decided CAS", rep)
	}

	client := &ServeClient{BaseURL: ts.URL}
	chains := make(map[string][]KVVersion)
	for _, key := range []string{"k000", "k001"} {
		hist, err := client.History(context.Background(), key)
		if errors.Is(err, ErrKeyNotFound) {
			continue // the seeded workload may never have written this key
		}
		if err != nil {
			t.Fatalf("History(%s): %v", key, err)
		}
		chains[key] = hist
	}
	if err := CheckLinearizable(chains, rep.Records); err != nil {
		t.Fatalf("linearizability: %v", err)
	}
}

// TestRequestTracingAPI: the daemon samples a request, the debug surface
// returns its record through the exported client, and the serve verifier
// confirms the exact-tiling invariants.
func TestRequestTracingAPI(t *testing.T) {
	srv, err := serve.New(serve.Config{
		N: 3, T: 1,
		HeartbeatPeriod: 2 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
		TraceSample:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	client := &ServeClient{BaseURL: ts.URL}
	if _, err := client.CAS(ctx, "api", nil, 3); err != nil {
		t.Fatal(err)
	}
	var dt *serve.DebugTraces
	if dt, err = client.DebugTraces(ctx); err != nil {
		t.Fatal(err)
	}
	var sampling serve.SamplingStats = dt.Sampling
	if sampling.Rate != 1 || sampling.Sampled == 0 {
		t.Fatalf("sampling = %+v, want rate 1 with sampled requests", sampling)
	}
	var id string
	for _, r := range dt.Recent {
		if r.Route == "kv-cas" {
			id = r.ID
		}
	}
	var rec *serve.RequestTrace
	if rec, err = client.DebugTrace(ctx, id); err != nil {
		t.Fatal(err)
	}
	var phases serve.RequestPhases = rec.Phases
	if phases.Total() != rec.TotalNS {
		t.Fatalf("phases %+v do not tile total %d", phases, rec.TotalNS)
	}
	if err := serve.VerifyRequestTrace(rec); err != nil {
		t.Fatalf("VerifyRequestTrace: %v", err)
	}
	var keys []serve.KeyStats
	if keys, err = client.DebugKeys(ctx, 0); err != nil || len(keys) == 0 {
		t.Fatalf("DebugKeys = %v rows, err %v", len(keys), err)
	}
}

func TestAgreementStatusAPI(t *testing.T) {
	for st, want := range map[AgreementStatus]string{
		AgreementNone:     "none",
		AgreementReached:  "reached",
		AgreementViolated: "violated",
	} {
		if got := st.String(); got != want {
			t.Errorf("AgreementStatus(%d).String() = %q, want %q", st, got, want)
		}
	}
}

// The tests below drive the internal packages an in-module program imports
// beside the root package: detectors, experiments, the flight recorder,
// NBAC, atomic broadcast, observability, conformance and causal tracing.
// Each composes them with the root run surface.

func TestNBACAPI(t *testing.T) {
	rates, err := nbac.MeasureRates(4, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rates.RSRate() <= rates.RWSRate() {
		t.Errorf("rates: %s — expected the RS > RWS gap", rates)
	}
}

func TestFlightRecorderAPI(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(nil, reg)
	cr, err := RunLive(FloodSet(), EngineConfig{
		Kind: RS, T: 1,
		Metrics: reg, Events: rec,
	}, []Value{4, 2, 7}, LiveOpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, st := cr.Agreement(); st != AgreementReached {
		t.Fatalf("agreement verdict %v, want reached", st)
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := rec.DumpTo(path); err != nil {
		t.Fatal(err)
	}
	dump, err := obs.ReadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	decides := 0
	for _, ev := range dump.Events {
		if ev.Type == obs.EventDecide {
			decides++
		}
	}
	links := 0
	for name, v := range dump.Header.Counters {
		if strings.HasPrefix(name, netobs.MetricLinkMessagesSent+"{") && v > 0 {
			links++
		}
	}
	if decides != 3 || links != 6 {
		t.Errorf("flight dump has %d decides and %d links with sends, want 3 and 6", decides, links)
	}
}

func TestExperimentsAPI(t *testing.T) {
	if len(core.All()) != 15 {
		t.Errorf("experiments = %d, want 15", len(core.All()))
	}
}

func TestDetectorZooAPI(t *testing.T) {
	specs := fdimpl.Specs()
	if len(specs) != 4 {
		t.Fatalf("zoo size = %d, want 4", len(specs))
	}
	if specs[0].Name != "heartbeat" {
		t.Errorf("first spec = %q, want the default heartbeat", specs[0].Name)
	}
	scores, err := fdimpl.Race(fdimpl.RaceConfig{
		Detectors: []string{"heartbeat"},
		Seed:      3, CrashAt: 30 * time.Millisecond, Window: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 1 || !scores[0].Detected {
		t.Fatalf("race scores = %+v", scores)
	}
	if card := fdimpl.RenderScores(scores); !strings.Contains(card, "heartbeat") {
		t.Errorf("scorecard missing the detector row:\n%s", card)
	}
}

func TestObservabilityAPI(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	run, err := rounds.RunAlgorithm(RWS, FloodSetWS(), []Value{4, 2, 7}, 1,
		RandomAdversary(11, 0.3, 0.3),
		rounds.WithMetrics(reg), rounds.WithEventSink(obs.NewEmitter(&buf)))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(`ssfd_rounds_runs_total{model="RWS"}`); got != 1 {
		t.Errorf("runs counter = %d, want 1", got)
	}
	if got := snap.Counter(`ssfd_rounds_messages_delivered_total{model="RWS"}`); got != int64(run.TotalMessages()) {
		t.Errorf("delivered counter = %d, want %d", got, run.TotalMessages())
	}

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	meta := conform.Meta{Alg: FloodSetWS(), Kind: RWS, T: 1, Initial: []Value{4, 2, 7}}
	rep, err := conform.CheckEvents(meta, events, conform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Fingerprint != conform.Fingerprint(run) {
		t.Errorf("JSONL stream does not replay to its run:\n%s\n replay %s\n engine %s",
			rep, rep.Fingerprint, conform.Fingerprint(run))
	}
}

func TestServeMetricsAPI(t *testing.T) {
	srv, err := obs.StartServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics = %d, want 200", resp.StatusCode)
	}
}

func TestCausalTracingAPI(t *testing.T) {
	run, err := Run(RWS, FloodSetWS(), []Value{3, 1, 4}, 1, RandomAdversary(42, 0.3, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.Synthesize(run)
	attr := tracing.Attribute(tr)
	if err := attr.CheckSums(); err != nil {
		t.Fatal(err)
	}
	if err := tracing.ReconcileRounds(attr, run); err != nil {
		t.Fatal(err)
	}

	var chrome, html bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	back, err := tracing.ReadChrome(&chrome)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(tr.Spans) || len(back.Points) != len(tr.Points) {
		t.Errorf("round trip lost events: %d/%d spans, %d/%d points",
			len(back.Spans), len(tr.Spans), len(back.Points), len(tr.Points))
	}

	// Live tracing composes with conformance checking: the tracer rides the
	// cluster's event chain and the live attribution reconciles against the
	// engine replay of the projected schedule.
	tracer := tracing.NewTracer("FloodSetWS", "RWS", 3, 1, nil)
	rep, _, err := conform.CheckLive(FloodSetWS(), EngineConfig{
		Kind: RWS, T: 1,
		Metrics: obs.NewRegistry(), Events: tracer,
	}, []Value{3, 1, 4}, LiveOpenOptions{}, conform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("live run does not conform:\n%s", rep)
	}
	liveAttr := tracing.Attribute(tracer.Finish())
	if err := liveAttr.CheckSums(); err != nil {
		t.Fatal(err)
	}
	if err := tracing.ReconcileRounds(liveAttr, rep.Run); err != nil {
		t.Fatal(err)
	}
}
