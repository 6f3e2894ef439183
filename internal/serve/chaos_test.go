package serve

import (
	"context"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/wire"
)

func vals(vs ...int64) []model.Value {
	out := make([]model.Value, len(vs))
	for i, v := range vs {
		out[i] = model.Value(v)
	}
	return out
}

// chaosServe runs TestChaosServing's load on a daemon over a
// fault-injected mesh (the E14-grade drop/dup/delay mix) with the
// conformance monitor attached, and returns once the engine is quiet.
func chaosServe(t *testing.T) (*Server, *Client, *LoadReport) {
	t.Helper()
	spec, err := faults.ParseSpec("seed=7,loss=0.1,dup=0.2,spike=1ms-3ms@0.2")
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, func(c *Config) {
		// n=4, t=2: the flooding algorithms tolerate two silent peers per
		// round, so a dropped batch degrades liveness, not safety.
		c.N, c.T = 4, 2
		c.Faults = &spec
		// Quick wait bound: a starved round proceeds with what arrived
		// instead of parking the client; generous suspect timeout so the
		// injector's delays never manufacture false suspicions.
		c.WaitBound = 300 * time.Millisecond
		c.SuspectTimeout = 2 * time.Second
		c.ProposeTimeout = 5 * time.Second
	})

	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:      client.BaseURL,
		HTTP:         client.HTTP,
		Clients:      6,
		Keys:         3,
		OpsPerClient: 8,
		ReadFraction: 0.3,
		Seed:         7,
		RecordOps:    true,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.CASOk == 0 {
		t.Fatalf("no CAS succeeded under chaos: %s", rep)
	}
	t.Logf("chaos load: %s", rep)
	quiesce(t, srv)
	return srv, client, rep
}

// TestChaosServing is the chaos-serving regression: individual proposals
// may time out or come back undecided — that is liveness, and the injector
// is licensed to take it — but AgreementStatus must never report violated
// and the conformance report must stay clean.
func TestChaosServing(t *testing.T) {
	_, client, rep := chaosServe(t)
	status, err := client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if status.Engine.AgreementViolated != 0 {
		t.Fatalf("agreement violated %d times under chaos", status.Engine.AgreementViolated)
	}
	if status.Conform == nil || !status.Conform.Clean {
		t.Fatalf("conformance report not clean: %+v", status.Conform)
	}
	if status.Conform.Checked == 0 {
		t.Fatal("conformance monitor checked nothing")
	}

	// The observations that did land must still linearize.
	chains := gatherChains(t, client, 3)
	if err := CheckLinearizable(chains, rep.Records); err != nil {
		t.Fatalf("linearizability violated under chaos: %v", err)
	}
}

// TestChaosStatusMatchesMetrics: after the chaos load, the engine block of
// /v1/status and a /metrics scrape tell one story. The engine's counts are
// quiet once the load is, so each equals its family; transport traffic
// keeps moving with the heartbeats, so the status figure lies between a
// scrape taken before it and one taken after.
func TestChaosStatusMatchesMetrics(t *testing.T) {
	_, client, _ := chaosServe(t)
	before := scrape(t, client)
	status, err := client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after := scrape(t, client)
	st := status.Engine
	if st.Opened == 0 || st.DecidedNodes == 0 || st.Cost == nil {
		t.Fatalf("engine block shows no traffic: %+v", st)
	}
	var dataEncoded int64
	for _, k := range wire.Kinds() {
		if !k.Control() {
			dataEncoded += after[obs.Label(netobs.MetricWireEncoded, "kind", k.String())]
		}
	}
	fdFamily := func(name string) int64 { return after[obs.Label(name, "detector", st.Detector)] }
	for _, c := range []struct {
		name          string
		stats, family int64
	}{
		{runtime.MetricEngineInstancesOpened, st.Opened, after[runtime.MetricEngineInstancesOpened]},
		{runtime.MetricEngineInstancesDone, st.Completed, after[runtime.MetricEngineInstancesDone]},
		{runtime.MetricEngineInstancesDecided, st.DecidedNodes, after[runtime.MetricEngineInstancesDecided]},
		{runtime.MetricNodeWaitTimeouts, st.WaitTimeouts, after[runtime.MetricNodeWaitTimeouts]},
		{runtime.MetricEngineUnknownInstance, st.UnknownInstanceDrops, after[runtime.MetricEngineUnknownInstance]},
		{runtime.MetricSuspicionsRetracted, st.FalseSuspicions, fdFamily(runtime.MetricSuspicionsRetracted)},
		{runtime.MetricFDEncodeErrors, st.EncodeErrors, fdFamily(runtime.MetricFDEncodeErrors)},
		{netobs.MetricWireEncoded + " (data kinds)", st.Cost.DataMessages, dataEncoded},
	} {
		if c.stats != c.family {
			t.Errorf("%s: /v1/status %d, /metrics %d", c.name, c.stats, c.family)
		}
	}
	for _, c := range []struct {
		name  string
		stats int64
	}{
		{netobs.MetricTransportMessagesSent, st.Cost.Messages},
		{netobs.MetricTransportBytesSent, st.Cost.Bytes},
		{netobs.MetricTransportMessagesDropped, st.Cost.Dropped},
	} {
		series := obs.Label(c.name, "transport", "chan")
		if c.stats < before[series] || c.stats > after[series] {
			t.Errorf("%s: /v1/status %d, outside the scrapes around it [%d, %d]",
				c.name, c.stats, before[series], after[series])
		}
	}
}

// scrape reads the server's /metrics exposition into series → value; the
// keys are the names obs.Label builds.
func scrape(t *testing.T, client *Client) map[string]int64 {
	t.Helper()
	resp, err := client.HTTP.Get(client.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// neverDecides is an algorithm whose automata run their rounds and never
// decide — the synthetic way to force an undecided instance (FloodSetWS
// with uniform proposals decides even on a dead mesh: every W set contains
// the node's own proposal).
type neverDecides struct{}

func (neverDecides) Name() string { return "NeverDecides" }
func (neverDecides) New(cfg rounds.ProcConfig) rounds.Process {
	return &neverProc{}
}

type neverProc struct{}

func (p *neverProc) Msgs(int) []rounds.Message     { return nil }
func (p *neverProc) Trans(int, []rounds.Message)   {}
func (p *neverProc) Decision() (model.Value, bool) { return 0, false }

// TestUndecidedInstanceReleasesSlot: an instance that exhausts its rounds
// undecided must not wedge the key — the flight resolves with an error and
// the slot is released.
func TestUndecidedInstanceReleasesSlot(t *testing.T) {
	srv, client := newTestServer(t, func(c *Config) {
		c.Algorithm = neverDecides{}
		c.ProposeTimeout = 10 * time.Second
	})
	ctx := context.Background()
	_, err := client.CAS(ctx, "wedge", nil, 1)
	if err == nil {
		t.Fatal("CAS succeeded under an algorithm that never decides")
	}
	st := srv.Status()
	if st.Engine.AgreementViolated != 0 {
		t.Fatalf("total loss must not violate agreement: %+v", st.Engine)
	}
	if st.KV.InFlight != 0 {
		t.Fatalf("undecided flight still holds the slot: %+v", st.KV)
	}
	if mon := srv.Monitor().Summary(); !mon.Clean || mon.Undecided == 0 {
		t.Fatalf("monitor = %+v, want clean with undecided counted", mon)
	}
}

// TestMonitorCatchesViolations feeds the monitor synthetic bad outcomes —
// the serving layer's conformance check must actually fire, not just stay
// green on good traffic.
func TestMonitorCatchesViolations(t *testing.T) {
	m := &Monitor{}
	// Forked decision (both values were proposed, so validity holds and
	// the fork counts only against agreement).
	m.Note(0, vals(1, 2, 1), runtime.InstanceOutcome{
		N: 3, Decided: []bool{true, true, true}, Decisions: vals(1, 2, 1),
	})
	// Decision nobody proposed.
	m.Note(1, vals(3, 4, 5), runtime.InstanceOutcome{
		N: 3, Decided: []bool{true, true, true}, Decisions: vals(9, 9, 9),
	})
	// Undecided: counted, not a violation.
	m.Note(2, vals(1, 1, 1), runtime.InstanceOutcome{
		N: 3, Decided: make([]bool, 3), Decisions: vals(0, 0, 0),
	})
	sum := m.Summary()
	if sum.Clean || m.Clean() {
		t.Fatal("monitor stayed clean through violations")
	}
	if sum.AgreementViolations != 1 || sum.ValidityViolations != 1 || sum.Undecided != 1 || sum.Checked != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.FirstViolation == "" {
		t.Fatal("first violation not recorded")
	}
}
