package runtime

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
)

// ClusterConfig assembles a full live execution: one consensus instance on
// its own mesh. RunCluster maps it onto EngineConfig and OpenOptions.
type ClusterConfig struct {
	// Kind selects the round discipline: rounds.RS runs wall-clock lock-step
	// rounds (requires a synchronous network and RoundDuration > worst-case
	// round trip); rounds.RWS (also the zero value) runs the
	// receive-or-suspect loop over the failure detector.
	Kind    rounds.ModelKind
	Initial []model.Value // initial[i] is p_{i+1}'s value
	T       int

	// Network: either provide one (Endpoints), or leave nil to get a
	// default in-process synchronous network.
	Network interface {
		Endpoint(model.ProcessID) Transport
		Close() error
	}

	// RoundDuration paces RS rounds (default 25ms: comfortably above the
	// default network's 1ms delay bound).
	RoundDuration time.Duration

	// EpochHeadroom is the slack between finishing cluster construction and
	// the RS round-1 deadline barrier. Zero scales with the cluster size
	// (10ms + 2ms·n); set it explicitly when node startup is known to be
	// slow (remote TCP dials, cold containers).
	EpochHeadroom time.Duration

	// HeartbeatPeriod and SuspectTimeout configure the RWS failure
	// detectors (defaults 2ms / 30ms: perfect over the default network).
	HeartbeatPeriod time.Duration
	SuspectTimeout  time.Duration

	// Detector selects the failure-detector construction for RWS runs; nil
	// means the default all-to-all heartbeat. The spec's factory is invoked
	// once per node with the node's (fault-wrapped) transport; its name
	// labels the ssfd_fd_* metric families. The implementations live in
	// internal/fdimpl — resolve CLI names through its registry.
	Detector *DetectorSpec

	// MaxRounds is a safety cap (default t+2); instances halt at quiescence
	// (see EngineConfig.MaxRounds).
	MaxRounds int

	// Crashes schedules crash plans per process.
	Crashes map[model.ProcessID]CrashPlan

	// Faults, when non-nil, interposes a seeded fault injector between
	// every node and the network: per-link loss/duplication/reordering/
	// delay spikes, scheduled partitions and crash/recovery blackholes.
	// The injector's metrics and events default to this config's Metrics
	// and Events unless the faults config sets its own.
	Faults *faults.Config

	// AdaptiveTimeout switches the failure detectors to the ◇P
	// construction: each retraction doubles the suspicion timeout, up to
	// AdaptiveTimeoutMax (0: 64× the initial timeout). Without it the
	// detectors keep the configured window and a network beyond its Δ
	// bound makes them permanently inaccurate.
	AdaptiveTimeout    bool
	AdaptiveTimeoutMax time.Duration

	// RWSWaitBound bounds each RWS round's receive-or-suspect wait (see
	// EngineConfig.WaitBound). Zero keeps the model-faithful unbounded wait;
	// chaos runs over message-losing networks need a bound to terminate.
	RWSWaitBound time.Duration

	// Metrics receives the cluster's instruments (node round durations,
	// failure-detector counters, default-network transport counters). Nil
	// uses the process-wide obs.Default registry.
	Metrics *obs.Registry
	// Events, when non-nil, receives the interleaved live event stream of
	// every node and failure detector. The sink must be concurrency-safe
	// (obs.Emitter and obs.Collector both are).
	Events obs.Sink
	// MetricsAddr, when non-empty (e.g. "127.0.0.1:0"), serves the
	// registry's Prometheus exposition plus /healthz for the duration of the
	// run. The server stays up after RunCluster returns successfully —
	// ClusterResult.MetricsServer — so callers can scrape the finished run;
	// they own the server and must Close it.
	MetricsAddr string

	// Flight, when non-nil, receives the run's transport flight records:
	// the default network and the fault injector record into it. To also
	// capture detector and lifecycle records, chain the recorder into the
	// event stream (it implements obs.Sink) — never both chain it and rely
	// on this field for events, or records double. Callers dump it on
	// crash or conformance failure (see netobs.Recorder).
	Flight *netobs.Recorder
}

// NodeResult is what a finished node reports.
type NodeResult struct {
	ID        model.ProcessID
	Decided   bool
	Decision  model.Value
	DecidedAt int // round
	Crashed   bool
	Rounds    int // rounds completed
	// WaitTimeouts counts RWS rounds cut short by RWSWaitBound — nonzero
	// only on networks lossy enough to starve receive-or-suspect.
	WaitTimeouts int
}

// ClusterResult aggregates the nodes' results.
type ClusterResult struct {
	Results []NodeResult // index 1..n
	// FalseSuspicions sums detector retractions across nodes: 0 means
	// failure detection was perfect in this run.
	FalseSuspicions int64
	// Retractions sums the detectors' retraction edges — numerically equal
	// to FalseSuspicions under crash-stop, surfaced separately because the
	// adaptive constructions consume it as their tuning signal and the E15
	// scorecard reports it as a rate.
	Retractions int64
	// FalselySuspected counts (observer, target) pairs where the observer
	// suspected a process that never crash-stopped — the strong-accuracy
	// audit, catching even suspicions the run ended too early to retract.
	FalselySuspected int64
	// DetectorWasPerfect is the run-level verdict: no retractions and no
	// sticky false suspicions. Over a network honoring its Δ bound this is
	// always true — experiment E14 measures where it stops being so.
	DetectorWasPerfect bool
	// EncodeErrors sums heartbeats lost to envelope encoding failures.
	EncodeErrors int64
	// PartitionLog is the fault injector's fired topology transitions
	// (empty without ClusterConfig.Faults).
	PartitionLog []faults.Transition
	// FaultDecisions is the injector's per-message decision log in
	// canonical order — the seed-replay artifact. Populated only when
	// ClusterConfig.Faults sets RecordDecisions.
	FaultDecisions []faults.Decision
	Elapsed        time.Duration

	// Cost is the run's transport cost accounting — messages/decision and
	// bytes/decision. Always populated.
	Cost *obs.CostSummary
	// WireKinds is the per-message-type codec accounting behind Cost, in
	// kind-tag order.
	WireKinds []netobs.KindTotals
	// Links is the network's per-link telemetry (nil when the caller
	// supplied a network that exposes none).
	Links *netobs.LinkTap

	// MetricsServer is the live exposition endpoint when
	// ClusterConfig.MetricsAddr was set; the caller must Close it. Nil when
	// no endpoint was requested or the run failed.
	MetricsServer *obs.Server
}

// Decisions extracts (value, decided) pairs.
func (cr *ClusterResult) Decisions() ([]model.Value, []bool) {
	n := len(cr.Results) - 1
	vals := make([]model.Value, n+1)
	ok := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		vals[i] = cr.Results[i].Decision
		ok[i] = cr.Results[i].Decided
	}
	return vals, ok
}

// AgreementStatus is a run's three-way agreement verdict. The historic
// boolean form conflated two very different outcomes — a safety violation
// (two nodes decided differently) and a liveness miss (nobody decided) both
// read as "false" — so chaos verdicts could not tell which invariant broke.
type AgreementStatus int

const (
	// AgreementNone: no node decided — a liveness observation, not a
	// safety one.
	AgreementNone AgreementStatus = iota
	// AgreementReached: every decided node decided the same value.
	AgreementReached
	// AgreementViolated: two decided nodes hold different values — the
	// safety violation.
	AgreementViolated
)

// String names the verdict.
func (s AgreementStatus) String() string {
	switch s {
	case AgreementNone:
		return "none"
	case AgreementReached:
		return "reached"
	case AgreementViolated:
		return "violated"
	default:
		return fmt.Sprintf("AgreementStatus(%d)", int(s))
	}
}

// agreementOf folds parallel decision slices into the three-way verdict.
// Shared by ClusterResult.Agreement and EngineResult.InstanceAgreement.
func agreementOf(vals []model.Value, decided []bool) (model.Value, AgreementStatus) {
	var first model.Value
	status := AgreementNone
	for i := range vals {
		if !decided[i] {
			continue
		}
		if status == AgreementNone {
			first, status = vals[i], AgreementReached
		} else if vals[i] != first {
			return 0, AgreementViolated
		}
	}
	return first, status
}

// Agreement reports the run's agreement verdict and, when reached, the
// common value (the value is meaningful only for AgreementReached).
func (cr *ClusterResult) Agreement() (model.Value, AgreementStatus) {
	vals, ok := cr.Decisions()
	return agreementOf(vals[1:], ok[1:])
}

// RunCluster executes one live run of the algorithm and returns every
// node's outcome. It is a one-instance run of the engine — one worker,
// instance 0, the batcher at MaxBatch 1 so every frame leaves bare and at
// once — and all goroutines are joined before it returns.
func RunCluster(alg rounds.Algorithm, cfg ClusterConfig) (*ClusterResult, error) {
	n := len(cfg.Initial)
	if n < 1 {
		return nil, fmt.Errorf("runtime: empty cluster")
	}
	if cfg.RoundDuration <= 0 {
		cfg.RoundDuration = 25 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	spec := cfg.Detector
	if spec == nil {
		spec = HeartbeatDetector()
	}
	// Pre-register the counter families a scrape should always see, even at
	// zero: an absent ssfd_fd_encode_errors_total is indistinguishable from
	// an unmeasured one.
	reg.Counter(obs.Label(MetricFDEncodeErrors, "detector", spec.Name))
	reg.Counter(obs.Label(faults.MetricDropped, "reason", "loss"))
	reg.Counter(obs.Label(faults.MetricDropped, "reason", "partition"))
	reg.Counter(obs.Label(faults.MetricDropped, "reason", "crash"))
	reg.Counter(faults.MetricDuplicated)
	reg.Counter(faults.MetricReordered)
	reg.Counter(faults.MetricDelayed)

	var server *obs.Server
	if cfg.MetricsAddr != "" {
		var err error
		server, err = obs.StartServer(cfg.MetricsAddr, reg)
		if err != nil {
			return nil, err
		}
	}
	// On any failure the server must come down with us: the caller only
	// takes ownership of it through a successful result.
	serverToCaller := false
	defer func() {
		if !serverToCaller {
			_ = server.Close()
		}
	}()

	waitBound := cfg.RWSWaitBound
	if waitBound == 0 {
		waitBound = -1 // unbounded
	}
	e, err := StartEngine(alg, EngineConfig{
		Kind: cfg.Kind, N: n, T: cfg.T, Groups: 1,
		RoundDuration: cfg.RoundDuration, EpochHeadroom: cfg.EpochHeadroom,
		Network: cfg.Network, Buffer: 1024,
		HeartbeatPeriod: cfg.HeartbeatPeriod, SuspectTimeout: cfg.SuspectTimeout,
		Detector:        spec,
		AdaptiveTimeout: cfg.AdaptiveTimeout, AdaptiveTimeoutMax: cfg.AdaptiveTimeoutMax,
		MaxRounds: cfg.MaxRounds, WaitBound: waitBound,
		Batch:  BatcherConfig{MaxBatch: 1},
		Faults: cfg.Faults, Metrics: reg, Events: cfg.Events, Flight: cfg.Flight,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	h, err := e.OpenWith(func(id model.ProcessID) model.Value { return cfg.Initial[id-1] },
		OpenOptions{Events: cfg.Events, Crashes: cfg.Crashes})
	if err != nil {
		_ = e.Close()
		return nil, err
	}
	select {
	case <-h.Done():
	case <-e.er.abortCh:
	}
	cr := &ClusterResult{Results: make([]NodeResult, n+1), Elapsed: time.Since(start)}
	err = e.Close()

	out, _ := h.Outcome()
	for i := 1; i <= n; i++ {
		res := &cr.Results[i]
		res.ID = model.ProcessID(i)
		if out.Err != nil {
			continue // torn down before completing: nobody decided
		}
		nd := out.Nodes[i-1]
		res.Decided, res.Decision, res.DecidedAt = out.Decided[i-1], out.Decisions[i-1], int(nd.DecidedAt)
		res.Crashed, res.Rounds, res.WaitTimeouts = nd.Crashed, int(nd.Rounds), int(nd.WaitTimeouts)
	}
	st := e.Stats()
	cr.FalseSuspicions = st.FalseSuspicions
	cr.Retractions = st.Retractions
	cr.FalselySuspected = st.FalselySuspected
	cr.DetectorWasPerfect = st.DetectorWasPerfect
	cr.EncodeErrors = st.EncodeErrors
	if inj := e.Injector(); inj != nil {
		cr.PartitionLog = inj.PartitionLog()
		cr.FaultDecisions = inj.Decisions()
	}
	// Even a failed run reports what it spent.
	cr.Cost = st.Cost
	cr.WireKinds = e.ws.PerKind()
	cr.Links = e.links()
	if err != nil {
		return cr, fmt.Errorf("runtime: %w", err)
	}
	cr.MetricsServer = server
	serverToCaller = true
	return cr, nil
}
