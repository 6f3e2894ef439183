package runtime

import (
	"errors"
	"io"
	"math/rand"
	"net/http"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// TestClusterMetricsEndpoint is the live-exposition acceptance check: the
// registry of an RWS cluster run with a crash, served by obs.StartServer,
// yields non-empty Prometheus output including suspicion and round-duration
// metrics.
func TestClusterMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	server, err := obs.StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	var events obs.Collector
	cr, err := RunCluster(consensus.FloodSetWS{}, EngineConfig{
		Kind: rounds.RWS, T: 1,
		Metrics: reg,
		Events:  &events,
	}, vals(0, 5, 9), OpenOptions{Crashes: map[model.ProcessID]CrashPlan{1: {Round: 1, Reach: 0}}})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(server.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	out := string(body)
	if len(strings.TrimSpace(out)) == 0 {
		t.Fatal("empty /metrics body")
	}
	for _, want := range []string{
		MetricSuspicionsRaised,
		MetricRoundDuration + "_count",
		MetricNodeRounds,
		MetricHeartbeatsSent,
		obs.Label(netobs.MetricTransportMessagesSent, "transport", "chan"),
		// Counters a scrape must see even at zero, so dashboards and alert
		// rules never face a missing series: the FD's encode-error count
		// and the injector's fault counters (pre-registered by RunCluster
		// whether or not faults are configured).
		MetricFDEncodeErrors,
		obs.Label(faults.MetricDropped, "reason", "loss"),
		obs.Label(faults.MetricDropped, "reason", "partition"),
		obs.Label(faults.MetricDropped, "reason", "crash"),
		faults.MetricDuplicated,
		faults.MetricReordered,
		faults.MetricDelayed,
		// The telemetry layer's wire, per-link and cost series.
		obs.Label(netobs.MetricWireEncoded, "kind", "heartbeat"),
		obs.Label(netobs.MetricWireEncodedBytes, "kind", "W"),
		netobs.MetricLinkBytesSent,
		netobs.MetricCostMessagesPerDecisionMilli,
		netobs.MetricCostBytesPerDecisionMilli,
		netobs.MetricCostDecisions,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %s in:\n%s", want, out)
		}
	}

	snap := reg.Snapshot()
	// p1 crashed, so both survivors must have suspected it: the raised
	// counter counts suspicion edges, one per (observer, suspect) pair.
	if got := snap.Counter(obs.Label(MetricSuspicionsRaised, "detector", "heartbeat")); got < 2 {
		t.Errorf("suspicions raised = %d, want ≥ 2", got)
	}
	labeled := obs.Label(obs.Label(MetricRoundDuration, "algorithm", "FloodSetWS"), "model", "RWS")
	if got := snap.Histograms[labeled].Count; got == 0 {
		t.Error("no round durations observed under the algorithm/model label")
	}
	// Perfect detection over the synchronous default network: the retracted
	// counter must agree with the result's false-suspicion tally (both 0).
	if got := snap.Counter(obs.Label(MetricSuspicionsRetracted, "detector", "heartbeat")); got != cr.Stats.FalseSuspicions {
		t.Errorf("retracted counter = %d, FalseSuspicions = %d", got, cr.Stats.FalseSuspicions)
	}

	resp, err = http.Get(server.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}

	// The live event stream saw p1's crash, both survivors' suspicions of
	// it, and two decisions.
	var crashes, suspects, decides int
	for _, ev := range events.Events() {
		switch ev.Type {
		case obs.EventCrash:
			crashes++
		case obs.EventSuspect:
			if ev.Proc == 1 {
				suspects++
			}
		case obs.EventDecide:
			decides++
		}
	}
	if crashes != 1 || suspects != 2 || decides != 2 {
		t.Errorf("event stream: %d crashes, %d suspicions of p1, %d decisions (want 1, 2, 2)",
			crashes, suspects, decides)
	}
}

// failingNetwork wraps a network so every data send errors out, forcing the
// node error path through RunCluster.
type failingNetwork struct {
	inner *ChanNetwork
}

func (f *failingNetwork) Endpoint(id model.ProcessID) Transport {
	return &failingEndpoint{inner: f.inner.Endpoint(id)}
}

func (f *failingNetwork) Close() error { return f.inner.Close() }

type failingEndpoint struct {
	inner Transport
}

var errInjected = errors.New("injected send failure")

func (f *failingEndpoint) LocalID() model.ProcessID { return f.inner.LocalID() }
func (f *failingEndpoint) Send(model.ProcessID, []byte) error {
	return errInjected
}
func (f *failingEndpoint) Listen(fn func(Packet)) { f.inner.Listen(fn) }
func (f *failingEndpoint) Recv() <-chan Packet    { return f.inner.Recv() }
func (f *failingEndpoint) Close() error           { return f.inner.Close() }

// TestRunClusterErrorPathLeaksNothing is the regression test for the early
// return: a cluster whose sends all fail must report the node error and join
// every goroutine it started.
func TestRunClusterErrorPathLeaksNothing(t *testing.T) {
	goruntime.GC()
	before := goruntime.NumGoroutine()

	inner := NewChanNetwork(3, ChanConfig{MaxDelay: time.Millisecond, Metrics: obs.NewRegistry()})
	_, err := RunCluster(consensus.FloodSetWS{}, EngineConfig{
		Kind: rounds.RWS, T: 1,
		Network: &failingNetwork{inner: inner},
		Metrics: obs.NewRegistry(),
	}, vals(1, 2, 3), OpenOptions{})
	if err == nil {
		t.Fatal("expected a node error from the failing network")
	}
	if !errors.Is(err, errInjected) {
		t.Errorf("error = %v, want wrapped injected failure", err)
	}

	// Every goroutine RunCluster started (workers, detectors,
	// in-flight deliveries) must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for {
		goruntime.GC()
		if n := goruntime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, goruntime.NumGoroutine(), buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStartEngineErrorPath covers the construction-time early returns: a
// rejected config — an unknown model, or a resilience bound outside
// [0, n) — leaves a caller-supplied network untouched (no goroutine has
// started, nothing was closed on the caller's behalf). Faults over a
// network whose endpoints cannot hold a packet back (no SendAfter) fails
// once the engine has taken the network over: it names the endpoint type,
// closes the network and leaves no goroutine either.
func TestStartEngineErrorPath(t *testing.T) {
	for _, cfg := range []EngineConfig{
		{Kind: rounds.ModelKind(9), T: 1},
		{T: -2},
		{T: 2},
		{T: 1, Faults: &faults.Config{}},
	} {
		nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry()})
		before := goruntime.NumGoroutine()
		cfg.Network, cfg.Metrics = nw, obs.NewRegistry()
		if cfg.Faults != nil {
			cfg.Network = &failingNetwork{inner: nw}
		}
		cr, err := RunCluster(consensus.FloodSet{}, cfg, vals(1, 2), OpenOptions{})
		if err == nil || cr != nil {
			t.Fatalf("kind %v t=%d: RunCluster = (%v, %v), want a config error and no result", cfg.Kind, cfg.T, cr, err)
		}
		if cfg.Faults != nil && !strings.Contains(err.Error(), "*runtime.failingEndpoint") {
			t.Errorf("faults over endpoints without SendAfter: error %q does not name the endpoint type", err)
		}
		err = nw.Endpoint(1).Send(2, []byte("still open"))
		switch {
		case cfg.Faults == nil && err != nil:
			t.Errorf("kind %v t=%d: rejected config closed the caller's network: %v", cfg.Kind, cfg.T, err)
		case cfg.Faults != nil && err != ErrClosed:
			t.Errorf("faults over endpoints without SendAfter left the network open (send: %v)", err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := goruntime.NumGoroutine(); after > before {
			t.Errorf("kind %v t=%d: error path left goroutines behind: %d before, %d after", cfg.Kind, cfg.T, before, after)
		}
		_ = nw.Close()
	}
}

// TestOpenAfterAbort: once a transport failure has aborted the engine its
// workers are gone, so Open must refuse with the abort error instead of
// handing out a handle nothing will ever resolve before Close.
func TestOpenAfterAbort(t *testing.T) {
	inner := NewChanNetwork(3, ChanConfig{MaxDelay: time.Millisecond, Metrics: obs.NewRegistry()})
	e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1,
		Network: &failingNetwork{inner: inner},
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.OpenValue(1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-e.er.abortCh:
	case <-time.After(2 * time.Second):
		t.Fatal("the failing network never aborted the engine")
	}
	if h, err := e.OpenValue(2); !errors.Is(err, errInjected) {
		t.Errorf("Open after abort = (%v, %v), want an error wrapping the injected failure", h, err)
	}
	if err := e.Close(); !errors.Is(err, errInjected) {
		t.Errorf("Close = %v, want the injected failure", err)
	}
	if out, ok := first.Outcome(); !ok || !errors.Is(out.Err, errInjected) {
		t.Errorf("aborted instance resolved (%v, %+v), want the abort error", ok, out)
	}
	if st := e.Stats(); st.Opened != 1 {
		t.Errorf("Opened = %d, want 1: the refused Open must not consume an instance id", st.Opened)
	}
}

// TestEngineStatsMatchMetrics: every count Engine.Stats reports is the
// count its /metrics family shows. A chaos run on a private registry —
// injected loss and duplication on a 4-node mesh that itself loses one
// packet in twenty, a node crash-stopping mid-instance while its peers wait
// on it past WaitBound, and a stray frame planted in node 1's inbox — must
// leave each EngineStats figure equal to its family.
func TestEngineStatsMatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(7)) // drawn under the network's lock
	// A 5-endpoint mesh for a 4-node engine: endpoint 5 plants the stray.
	nw := NewChanNetwork(5, ChanConfig{Metrics: reg, Delay: func(model.ProcessID, model.ProcessID, []byte) time.Duration {
		if rng.Intn(20) == 0 {
			return -1
		}
		return time.Duration(rng.Int63n(int64(time.Millisecond)))
	}})
	stray, err := wire.Encode(wire.Envelope{From: 2, To: 1, Round: 1, Kind: wire.KindD,
		Instance: 1 << 20, Payload: consensus.DMsg{V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Endpoint(5).Send(1, stray); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the delayed delivery land in the inbox
	spec, err := faults.ParseSpec("seed=7,loss=0.05,dup=0.2")
	if err != nil {
		t.Fatal(err)
	}
	// Unanimous proposals: C_OptFloodSetWS decides in round 1, so the
	// instances the crash starves in round 2 still count their decisions.
	e, err := StartEngine(consensus.COptFloodSetWS{}, EngineConfig{
		N: 4, T: 2,
		Network: nw,
		Faults:  &spec,
		// The crashed node stays unsuspected well past the wait bound, so
		// the peers it did not reach expire waiting for it.
		WaitBound:       50 * time.Millisecond,
		HeartbeatPeriod: 5 * time.Millisecond, SuspectTimeout: 500 * time.Millisecond,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Instance, 20)
	for k := range handles {
		var opts OpenOptions
		if k == 0 {
			opts.Crashes = map[model.ProcessID]CrashPlan{2: {Round: 2, Reach: 1}}
		}
		if handles[k], err = e.OpenWith(func(model.ProcessID) model.Value { return model.Value(k) }, opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range handles {
		<-h.Done()
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st, snap := e.Stats(), reg.Snapshot()
	if st.DecidedNodes == 0 || st.WaitTimeouts == 0 || st.UnknownInstanceDrops == 0 || st.Cost.Dropped == 0 {
		t.Fatalf("the run exercised too little: %d decisions, %d wait timeouts, %d stray frames, %d drops",
			st.DecidedNodes, st.WaitTimeouts, st.UnknownInstanceDrops, st.Cost.Dropped)
	}
	var dataEncoded int64
	for _, k := range wire.Kinds() {
		if !k.Control() {
			dataEncoded += snap.Counter(obs.Label(netobs.MetricWireEncoded, "kind", k.String()))
		}
	}
	chanFamily := func(name string) int64 { return snap.Counter(obs.Label(name, "transport", "chan")) }
	fdFamily := func(name string) int64 { return snap.Counter(obs.Label(name, "detector", st.Detector)) }
	for _, c := range []struct {
		name          string
		stats, family int64
	}{
		{MetricEngineInstancesOpened, st.Opened, snap.Counter(MetricEngineInstancesOpened)},
		{MetricEngineInstancesDone, st.Completed, snap.Counter(MetricEngineInstancesDone)},
		{MetricEngineInstancesDecided, st.DecidedNodes, snap.Counter(MetricEngineInstancesDecided)},
		{MetricNodeWaitTimeouts, st.WaitTimeouts, snap.Counter(MetricNodeWaitTimeouts)},
		{MetricEngineUnknownInstance, st.UnknownInstanceDrops, snap.Counter(MetricEngineUnknownInstance)},
		{MetricSuspicionsRetracted, st.FalseSuspicions, fdFamily(MetricSuspicionsRetracted)},
		{MetricFDEncodeErrors, st.EncodeErrors, fdFamily(MetricFDEncodeErrors)},
		{netobs.MetricTransportMessagesSent, st.Cost.Messages, chanFamily(netobs.MetricTransportMessagesSent)},
		{netobs.MetricTransportBytesSent, st.Cost.Bytes, chanFamily(netobs.MetricTransportBytesSent)},
		{netobs.MetricTransportMessagesDropped, st.Cost.Dropped, chanFamily(netobs.MetricTransportMessagesDropped)},
		{netobs.MetricWireEncoded + " (data kinds)", st.Cost.DataMessages, dataEncoded},
	} {
		if c.stats != c.family {
			t.Errorf("%s: Stats %d, family %d", c.name, c.stats, c.family)
		}
	}
	t.Logf("%d opened, %d decisions, %d wait timeouts, %d dropped of %d sent, %d retractions",
		st.Opened, st.DecidedNodes, st.WaitTimeouts, st.Cost.Dropped, st.Cost.Messages, st.FalseSuspicions)
}
