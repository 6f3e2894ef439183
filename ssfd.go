// Package repro is the public API of this reproduction of Charron-Bost,
// Guerraoui and Schiper, "Synchronous System and Perfect Failure Detector:
// solvability and efficiency issues" (DSN 2000).
//
// The paper compares the synchronous model SS with the asynchronous model
// augmented by a perfect failure detector, SP, and proves that SS is
// strictly stronger on both axes:
//
//   - Solvability: the Strongly Dependent Decision problem (SDD) is
//     solvable in SS but not in SP (Theorem 3.1) — see RefuteSDDInSP and
//     the sdd example.
//   - Efficiency: in SS's round model RS, uniform consensus can decide at
//     round 1 of every failure-free run (Λ(A1)=1), while in SP's round
//     model RWS every algorithm needs at least two rounds — see Latency and
//     RefuteRoundOneRWS.
//
// The package re-exports the layers a downstream user needs:
//
//   - round-model execution (Run, Explore) with exact adversarial control;
//   - the algorithm suite (Algorithms, ForModel) of the paper's Figures 1–4
//     and §5.2 variants;
//   - specification checking (CheckConsensus) and latency analysis
//     (Latency);
//   - the live goroutine/channel runtime — one engine, configured by
//     EngineConfig and read through InstanceOutcome and LiveEngineStats:
//     StartLiveEngine opens instances on demand, RunLive is its
//     one-instance helper — with heartbeat-based failure detection over
//     in-process or TCP transports;
//   - the paper's experiments E1–E15 (Experiments, RunExperiments).
//
// See examples/quickstart for a five-minute tour.
package repro

import (
	"context"
	"io"

	"repro/internal/abcast"
	"repro/internal/check"
	"repro/internal/conform"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/ctoueg"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/fdimpl"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/sdd"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/tracing"
)

// Fundamental re-exported types.
type (
	// Value is a consensus proposal/decision value.
	Value = model.Value
	// ProcessID identifies a process (1-based, the paper's p1..pn).
	ProcessID = model.ProcessID
	// ProcSet is a set of processes.
	ProcSet = model.ProcSet

	// ModelKind selects the round-based computational model.
	ModelKind = rounds.ModelKind
	// Algorithm is a round-based algorithm (states, msgs, trans).
	Algorithm = rounds.Algorithm
	// Adversary controls crashes and pending messages per round.
	Adversary = rounds.Adversary
	// Plan is one round's adversary decision.
	Plan = rounds.Plan
	// RoundRun is a completed round-model execution record.
	RoundRun = rounds.Run
	// CheckResult reports one specification property on a run.
	CheckResult = check.Result

	// Degrees aggregates the paper's latency measures lat, Lat, Lat(·,f), Λ.
	Degrees = latency.Degrees

	// CrashPlan crash-stops a live node mid-round (LiveOpenOptions.Crashes).
	CrashPlan = runtime.CrashPlan
	// ClusterResult is a finished RunLive: the instance's InstanceOutcome,
	// the engine's closing LiveEngineStats and the whole-run logs.
	ClusterResult = runtime.ClusterResult
	// AgreementStatus is a run's three-way agreement verdict
	// (none/reached/violated) — see ClusterResult.Agreement.
	AgreementStatus = runtime.AgreementStatus

	// EngineConfig is the one configuration of a live run: N nodes, one
	// physical mesh, one failure detector per node, and any number of
	// consensus instances multiplexed over them (RunLive opens exactly one).
	EngineConfig = runtime.EngineConfig
	// BatcherConfig tunes the engine's per-link send batching.
	BatcherConfig = runtime.BatcherConfig

	// Detector is the pluggable failure-detector contract the live RWS
	// runtime programs against (the "oracle" of the paper's SP model).
	Detector = runtime.Detector
	// DetectorSpec names a detector construction and builds per-node
	// instances; plug into EngineConfig.Detector (nil: all-to-all
	// heartbeat). See DetectorSpecs for the bundled zoo.
	DetectorSpec = runtime.DetectorSpec
	// DetectorConfig is everything a DetectorSpec factory receives for each
	// node — endpoint, timing, and the metrics registry, event sink and wire
	// stats its telemetry goes to. The detector it returns is complete: the
	// lifecycle is construct → Start → Stop.
	DetectorConfig = runtime.DetectorConfig

	// FaultConfig scripts a seeded adversarial network for live clusters
	// (loss, duplication, reordering, delay spikes, partitions,
	// crash/recovery blackholes); plug into EngineConfig.Faults.
	FaultConfig = faults.Config
	// LinkFaults is one link's random-fault menu.
	LinkFaults = faults.LinkFaults
	// FaultPartition is a scheduled bidirectional partition window.
	FaultPartition = faults.Partition
	// NodeCrash is a scheduled crash/recovery blackhole.
	NodeCrash = faults.NodeCrash

	// ExperimentReport is one reproduced paper artifact.
	ExperimentReport = core.Report
	// ExperimentConfig tunes the experiment drivers.
	ExperimentConfig = core.Config

	// CostSummary is a live run's transport cost accounting —
	// messages/decision and bytes/decision, total and data-only — found on
	// ClusterResult.Stats.Cost after every RunLive.
	CostSummary = obs.CostSummary
	// LinkTelemetry is a live network's per-link send/recv/drop counters
	// and queue high-water marks (ClusterResult.Links).
	LinkTelemetry = netobs.LinkTap
	// FlightRecorder is the fixed-size ring of recent transport/FD records
	// dumped for post-mortem on crash or conformance failure; plug into
	// EngineConfig.Flight and chain it into the event stream.
	FlightRecorder = netobs.Recorder
	// FlightRecord is one entry of a flight recorder ring or dump.
	FlightRecord = netobs.Record
	// FlightDump is a parsed flight-recorder dump file.
	FlightDump = netobs.Dump
)

// NewFlightRecorder builds a flight recorder ring holding the most recent
// capacity records (≤ 0 uses a 4096-record default). Events emitted into it
// are captured and forwarded to next (which may be nil).
func NewFlightRecorder(capacity int, next obs.Sink) *FlightRecorder {
	return netobs.NewRecorder(capacity, next)
}

// ReadFlightDump parses a flight-recorder dump file written by
// FlightRecorder.DumpTo (or the -flight flag of the CLIs).
func ReadFlightDump(path string) (*FlightDump, error) {
	return netobs.ReadDumpFile(path)
}

// The two round-based models (paper §4).
const (
	// RS is the synchronous round model induced by SS.
	RS = rounds.RS
	// RWS is the weakly synchronous round model induced by SP.
	RWS = rounds.RWS
)

// The three-way agreement verdicts (ClusterResult.Agreement,
// InstanceOutcome.Agreement): no decisions at all, all decided nodes agree,
// or two decided nodes differ.
const (
	AgreementNone     = runtime.AgreementNone
	AgreementReached  = runtime.AgreementReached
	AgreementViolated = runtime.AgreementViolated
)

// NoFailures is the failure-free adversary.
var NoFailures = rounds.NoFailures

// Script returns an adversary that applies plans[i] at round i+1 and then
// behaves benignly (discharging any weak-round-synchrony obligations).
func Script(plans ...Plan) Adversary { return &rounds.Script{Plans: plans} }

// Procs builds a ProcSet from process ids.
func Procs(ids ...ProcessID) ProcSet {
	var s ProcSet
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// Algorithms returns the full uniform consensus suite: FloodSet (Fig. 1),
// FloodSetWS (Fig. 2), C_Opt and F_Opt variants (§5.2, Fig. 3) and A1
// (Fig. 4).
func Algorithms() []Algorithm { return consensus.All() }

// ForModel returns the algorithms the paper proves correct in the model.
func ForModel(kind ModelKind) []Algorithm { return consensus.ForModel(kind) }

// Named algorithm constructors.
func FloodSet() Algorithm              { return consensus.FloodSet{} }
func EarlyStoppingFloodSet() Algorithm { return consensus.EarlyStoppingFloodSet{} }
func FloodSetWS() Algorithm            { return consensus.FloodSetWS{} }
func COptFloodSet() Algorithm          { return consensus.COptFloodSet{} }
func COptFloodSetWS() Algorithm        { return consensus.COptFloodSetWS{} }
func FOptFloodSet() Algorithm          { return consensus.FOptFloodSet{} }
func FOptFloodSetWS() Algorithm        { return consensus.FOptFloodSetWS{} }
func A1() Algorithm                    { return consensus.A1{} }

// Run executes one round-model run of alg under adv with the given initial
// values (initial[i] belongs to p_{i+1}) tolerating t crashes.
func Run(kind ModelKind, alg Algorithm, initial []Value, t int, adv Adversary) (*RoundRun, error) {
	return rounds.RunAlgorithm(kind, alg, initial, t, adv)
}

// RandomAdversary returns a seeded adversary that crashes processes,
// truncates broadcasts and (in RWS) creates pending messages, always
// staying admissible for the model.
func RandomAdversary(seed int64, crashProb, dropProb float64) Adversary {
	return rounds.NewRandomAdversary(seed, crashProb, dropProb)
}

// CheckConsensus evaluates the uniform consensus specification (§5.1) plus
// model admissibility on a completed run. The first entry with OK == false
// explains the violation.
func CheckConsensus(run *RoundRun) []CheckResult { return check.Consensus(run) }

// RenderRun pretty-prints a run as a round-by-round narrative.
func RenderRun(run *RoundRun) string { return trace.RenderRun(run) }

// Explore enumerates every admissible run of alg over a bounded horizon and
// calls visit for each; returning false stops early. It is the engine
// behind every "for all runs" claim in the experiments.
func Explore(kind ModelKind, alg Algorithm, initial []Value, t int, visit func(*RoundRun) bool) error {
	_, err := explore.Runs(kind, alg, initial, t, explore.Options{}, visit)
	return err
}

// Latency computes the paper's latency measures of alg in the model by
// exhaustive exploration (n processes, resilience t).
func Latency(kind ModelKind, alg Algorithm, n, t int) (*Degrees, error) {
	return latency.Compute(kind, alg, n, t, explore.Options{})
}

// RefuteRoundOneRWS mechanizes the §5.3 lower bound: for any deterministic
// algorithm that decides at round 1 of every failure-free RWS run, it
// produces a concrete run violating uniform agreement or validity.
func RefuteRoundOneRWS(alg Algorithm, n, t int) (*explore.Refutation, error) {
	return explore.RefuteRoundOneRWS(alg, n, t)
}

// RefuteSDDInSP mechanizes Theorem 3.1 against a step-level SDD candidate
// protocol: it constructs the proof's indistinguishable runs and returns
// the violating witness. The bundled candidates are available via
// SDDCandidates.
func RefuteSDDInSP(alg SDDAlgorithm, maxObserverSteps int) (*sdd.SPRefutation, error) {
	return sdd.RefuteSP(alg, maxObserverSteps)
}

// SDDAlgorithm is a step-level algorithm (used by the SDD experiments).
type SDDAlgorithm = sdd.Candidate

// SDDCandidates returns the natural-but-doomed SP protocols for SDD.
func SDDCandidates() []SDDAlgorithm { return sdd.Candidates() }

// SDDInSS returns the paper's Φ+1+Δ algorithm solving SDD in SS.
func SDDInSS(phi, delta int) SDDAlgorithm { return sdd.NewSS(phi, delta) }

// RunLive executes one live consensus run (heartbeat failure detection,
// wall-clock rounds): start the engine cfg describes with N = len(initial),
// open one instance where p_{i+1} proposes initial[i] under opts, wait it
// out and close. For many instances over one mesh use StartLiveEngine.
func RunLive(alg Algorithm, cfg EngineConfig, initial []Value, opts LiveOpenOptions) (*ClusterResult, error) {
	return runtime.RunCluster(alg, cfg, initial, opts)
}

// ParseFaultSpec parses the compact chaos grammar ("loss=0.3,spike=5ms@0.5,
// part=3@20ms+100ms,seed=7") into a FaultConfig; see internal/faults for
// the full grammar. Same spec and seed always replay the identical fault
// decisions.
func ParseFaultSpec(spec string) (FaultConfig, error) { return faults.ParseSpec(spec) }

// NBACForRS and NBACForRWS return the atomic-commit protocols of the §3
// corollary (vote flooding; the RWS variant adds the halt defense).
func NBACForRS() Algorithm  { return nbac.ForRS() }
func NBACForRWS() Algorithm { return nbac.ForRWS() }

// CommitRates measures the randomized commit-rate gap between the models on
// all-Yes workloads.
func CommitRates(n, trials int, seed int64) (*nbac.RateReport, error) {
	return nbac.MeasureRates(n, trials, seed)
}

// NewAtomicBroadcast builds the intro's other canonical agreement protocol:
// atomic broadcast as repeated uniform consensus over the chosen round
// model. Submit messages, Drain slots, inspect the totally ordered Logs.
func NewAtomicBroadcast(kind ModelKind, n, t int) (*abcast.Broadcaster, error) {
	return abcast.New(kind, n, t)
}

// MsgIDFor converts an int64 into an atomic-broadcast message id.
func MsgIDFor(v int64) abcast.MsgID { return abcast.MsgID(v) }

// RunDiamondS executes Chandra–Toueg's ◇S rotating-coordinator consensus
// (the extension direction the paper's discussion names) under a generated
// eventual-accuracy detector history; see ctoueg.RunConfig for knobs.
func RunDiamondS(inputs []Value, cfg ctoueg.RunConfig) (*ctoueg.Result, error) {
	return ctoueg.Run(inputs, cfg)
}

// Observability re-exports (package obs): every layer counts into a metrics
// registry and can stream structured run events, the machine-readable twin
// of RenderRun.
type (
	// MetricsRegistry holds named counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a consistent point-in-time read of a registry.
	MetricsSnapshot = obs.Snapshot
	// Event is one structured run event (JSONL schema in DESIGN.md).
	Event = obs.Event
	// EventSink receives run events; EventLog is the JSONL implementation.
	EventSink = obs.Sink
	// EventLog appends events to an io.Writer as JSON Lines.
	EventLog = obs.Emitter
	// MetricsServer serves /metrics (Prometheus text) and /healthz.
	MetricsServer = obs.Server
)

// Metrics returns the process-wide default registry that every layer counts
// into unless given an explicit one.
func Metrics() *MetricsRegistry { return obs.Default }

// NewMetricsRegistry returns a fresh, empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventLog returns an EventSink writing JSONL events to w.
func NewEventLog(w io.Writer) *EventLog { return obs.NewEmitter(w) }

// EventsFromRun replays a completed run as its event stream — the same
// stream a live engine with an event sink would have emitted.
func EventsFromRun(run *RoundRun) []Event { return rounds.EventsFromRun(run) }

// RenderEvents re-renders an event stream as the RenderRun narrative.
func RenderEvents(events []Event) (string, error) { return obs.RenderEvents(events) }

// ReadEvents parses a JSONL event stream (as written by NewEventLog).
func ReadEvents(r io.Reader) ([]Event, error) { return obs.ReadEvents(r) }

// ServeMetrics exposes reg (nil for the default registry) on addr with
// /metrics and /healthz endpoints; Close the returned server when done.
func ServeMetrics(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return obs.StartServer(addr, reg)
}

// RunObserved is Run with explicit instrumentation: counters go to reg (nil
// for the default registry) and, if sink is non-nil, the engine streams
// events to it as the run unfolds.
func RunObserved(kind ModelKind, alg Algorithm, initial []Value, t int, adv Adversary, reg *MetricsRegistry, sink EventSink) (*RoundRun, error) {
	if reg == nil {
		reg = obs.Default
	}
	opts := []rounds.Option{rounds.WithMetrics(reg)}
	if sink != nil {
		opts = append(opts, rounds.WithEventSink(sink))
	}
	return rounds.RunAlgorithm(kind, alg, initial, t, adv, opts...)
}

// Experiments lists the paper's reproduced artifacts E1–E15.
func Experiments() []core.Experiment { return core.All() }

// DetectorSpecs returns the bundled failure-detector zoo (internal/fdimpl)
// in registry order: all-to-all heartbeat, bounded-message ◇P, ring
// forwarding, and the two-process SDD harness. Plug one into
// EngineConfig.Detector, or race them with RaceDetectors.
func DetectorSpecs() []*DetectorSpec { return fdimpl.Specs() }

// DetectorRace parameterizes RaceDetectors; DetectorScore is one row of
// its scorecard (RenderDetectorScores formats the card).
type (
	DetectorRace  = fdimpl.RaceConfig
	DetectorScore = fdimpl.Score
)

// RaceDetectors runs every requested construction under identical seeded
// chaos schedules and scores detection latency, accuracy and message cost
// — the E15 harness as a library call.
func RaceDetectors(cfg DetectorRace) ([]DetectorScore, error) { return fdimpl.Race(cfg) }

// RenderDetectorScores formats a RaceDetectors scorecard.
func RenderDetectorScores(scores []DetectorScore) string { return fdimpl.RenderScores(scores) }

// RunExperiments executes every experiment and returns the reports.
func RunExperiments(cfg ExperimentConfig) ([]*ExperimentReport, error) {
	return core.RunAll(cfg)
}

// ---------------------------------------------------------------------------
// Conformance & differential checking (internal/conform): project a live or
// emulated execution into the round model's vocabulary, replay it through
// the engine, assert the model's invariants, and check membership in the
// exhaustively enumerated run space.
type (
	// ConformMeta identifies the coordinate a run is checked at.
	ConformMeta = conform.Meta
	// ConformOptions tunes a conformance check (space, enumeration,
	// consensus expectation).
	ConformOptions = conform.Options
	// ConformReport is the outcome of one conformance check.
	ConformReport = conform.Report
	// ProjectedRun is the canonical projection of a live or emulated
	// execution.
	ProjectedRun = conform.LiveRun
	// RunSpace is an enumerated set of run fingerprints for one coordinate.
	RunSpace = conform.Space
	// ExploreOptions tunes the exhaustive explorer (worker count, budget);
	// the zero value is the sequential defaults.
	ExploreOptions = explore.Options
)

// CheckLive executes one live cluster run (RunLive's arguments) and
// conformance-checks it; see ConformReport.OK.
func CheckLive(alg Algorithm, cfg EngineConfig, initial []Value, open LiveOpenOptions,
	opts ConformOptions) (*ConformReport, *ClusterResult, error) {
	return conform.CheckLive(alg, cfg, initial, open, opts)
}

// CheckEvents conformance-checks a recorded live event stream.
func CheckEvents(meta ConformMeta, events []Event, opts ConformOptions) (*ConformReport, error) {
	return conform.CheckEvents(meta, events, opts)
}

// RunFingerprint is the canonical fingerprint the membership check keys on.
func RunFingerprint(run *RoundRun) string { return conform.Fingerprint(run) }

// EnumerateRunSpace enumerates the full run space of a coordinate (feasible
// for n ≤ 4, t ≤ 2).
func EnumerateRunSpace(meta ConformMeta, opts ExploreOptions) (*RunSpace, error) {
	return conform.EnumerateSpace(meta, opts)
}

// ---------------------------------------------------------------------------
// Causal tracing & latency attribution (internal/tracing): happens-before
// spans over live or emulated executions, Perfetto-loadable exports, and the
// decomposition of each process's decision latency into round-barrier,
// detector-timeout, transport and compute time.
type (
	// CausalTrace is an assembled happens-before trace: per-process span
	// trees (run → round → send/wait/compute) Lamport-stamped so the
	// receive of a message is ordered after its send across processes.
	CausalTrace = tracing.Trace
	// CausalSpan is one interval of a trace.
	CausalSpan = tracing.Span
	// CausalPoint is one instantaneous trace event (arrive, suspect,
	// decide, crash).
	CausalPoint = tracing.Point
	// CausalTracer observes a live cluster's event stream (plug it in as
	// EngineConfig.Events) and assembles the CausalTrace; chain the
	// original sink through NewCausalTracer to keep JSONL logging.
	CausalTracer = tracing.Tracer
	// LatencyAttribution decomposes decision latency per process and per
	// round; see Attribute.
	LatencyAttribution = tracing.Attribution
	// LatencyComponents is one barrier/fd-timeout/transport/compute split.
	LatencyComponents = tracing.Components
)

// NewCausalTracer returns a tracer for a live run of algorithm alg in the
// given model with n processes tolerating t crashes. next (may be nil)
// receives every event after stamping, so tracing composes with -events
// style JSONL sinks.
func NewCausalTracer(algorithm, model string, n, t int, next EventSink) *CausalTracer {
	return tracing.NewTracer(algorithm, model, n, t, next)
}

// SynthesizeTrace renders a completed round-model run as a CausalTrace on a
// synthetic timebase, so emulated and live executions draw identically.
func SynthesizeTrace(run *RoundRun) *CausalTrace { return tracing.Synthesize(run) }

// Attribute decomposes each process's decision latency into its components;
// the components tile the latency exactly (Attribution.CheckSums).
func Attribute(tr *CausalTrace) *LatencyAttribution { return tracing.Attribute(tr) }

// ReconcileTrace cross-checks a trace's attribution against the engine
// replay of the same schedule: observed decision rounds must match.
func ReconcileTrace(a *LatencyAttribution, run *RoundRun) error {
	return tracing.ReconcileRounds(a, run)
}

// WriteChromeTrace exports tr as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing; ReadChromeTrace is its
// inverse.
func WriteChromeTrace(tr *CausalTrace, w io.Writer) error { return tr.WriteChrome(w) }

// ReadChromeTrace parses a trace previously written by WriteChromeTrace.
func ReadChromeTrace(r io.Reader) (*CausalTrace, error) { return tracing.ReadChrome(r) }

// WriteHTMLTimeline exports tr as a self-contained HTML timeline.
func WriteHTMLTimeline(tr *CausalTrace, w io.Writer) error { return tr.WriteHTML(w) }

// ---------------------------------------------------------------------------
// Live serving (internal/runtime engine lifecycle + internal/serve): a
// long-lived shared-mesh engine that opens consensus instances on demand,
// and the HTTP/JSON daemon (cmd/ssfd-serve) that exposes raw proposals and
// a linearizable KV store whose every key version is one consensus
// decision.
type (
	// LiveEngine is a long-lived shared-mesh execution: one physical mesh,
	// one failure detector per node, consensus instances opened on demand
	// (Open/OpenValue).
	LiveEngine = runtime.Engine
	// LiveInstance is one open instance's handle: Done() closes when every
	// node has halted, Outcome() carries the per-node decisions.
	LiveInstance = runtime.Instance
	// LiveOpenOptions attaches an event sink and crash plans to one
	// instance (LiveEngine.OpenWith).
	LiveOpenOptions = runtime.OpenOptions
	// InstanceOutcome is a completed instance's per-node outcome; its
	// Agreement() is the three-way verdict.
	InstanceOutcome = runtime.InstanceOutcome
	// LiveEngineStats is a point-in-time read of a running engine's
	// counters (opened/completed/in-flight, agreement tallies, cost).
	LiveEngineStats = runtime.EngineStats

	// ServeConfig configures a serving daemon's cluster and HTTP surface.
	ServeConfig = serve.Config
	// ServeServer owns one live engine behind the HTTP/JSON API; mount
	// Handler() on any listener and Shutdown(ctx) to drain gracefully.
	ServeServer = serve.Server
	// ServeClient is the typed client for the daemon's API.
	ServeClient = serve.Client
	// KVVersion is one committed version of a key: its value plus the
	// consensus instance that decided it.
	KVVersion = serve.KVVersion
	// LoadConfig parameterizes RunServeLoad's closed-loop workload.
	LoadConfig = serve.LoadConfig
	// LoadReport aggregates a load run: throughput, latency percentiles
	// and (with RecordOps) the per-operation records CheckLinearizable
	// consumes.
	LoadReport = serve.LoadReport
	// OpRecord is one recorded client operation of a load run.
	OpRecord = serve.OpRecord
	// RequestTrace is one finished HTTP request's observability record:
	// exact phase attribution plus, when sampled, the embedded consensus
	// instance's span tree (GET /v1/debug/trace/{id}).
	RequestTrace = serve.RequestTrace
	// RequestPhases tiles a request's measured latency into handler /
	// queue / contention / consensus / commit slices that sum exactly.
	RequestPhases = serve.RequestPhases
	// ServeSamplingStats reports a daemon's head-sampling config and tallies.
	ServeSamplingStats = serve.SamplingStats
	// ServeDebugTraces is the GET /v1/debug/traces body: recent sampled
	// requests plus slowest exemplars per route.
	ServeDebugTraces = serve.DebugTraces
	// ServeKeyStats is one row of the hot-key table (GET /v1/debug/keys).
	ServeKeyStats = serve.KeyStats
)

// ErrKeyNotFound reports a read of a KV key with no committed version;
// ErrServeDraining a proposal against a draining daemon.
var (
	ErrKeyNotFound   = serve.ErrKeyNotFound
	ErrServeDraining = serve.ErrDraining
)

// StartLiveEngine boots the shared mesh and detectors of cfg and returns a
// running engine with no instances (they are opened on demand). Drain()
// stops admission, Close() drains and tears the mesh down.
func StartLiveEngine(alg Algorithm, cfg EngineConfig) (*LiveEngine, error) {
	return runtime.StartEngine(alg, cfg)
}

// NewServer builds a serving daemon: a live engine plus the HTTP/JSON API
// (propose, instance, KV CAS/get, status, metrics, health).
func NewServer(cfg ServeConfig) (*ServeServer, error) { return serve.New(cfg) }

// RunServeLoad drives cfg.Clients concurrent closed-loop clients against a
// serving daemon and reports throughput and latency percentiles.
func RunServeLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	return serve.RunLoad(ctx, cfg)
}

// CheckLinearizable verifies that recorded load operations embed into the
// per-key consensus chains as one linearizable history; nil means no
// violation. The chains map is keyed by KV key, each entry the full
// version history (ServeClient.History).
func CheckLinearizable(chains map[string][]KVVersion, ops []OpRecord) error {
	return serve.CheckLinearizable(chains, ops)
}

// VerifyRequestTrace checks a request record's exact-tiling invariants:
// the phase attribution sums to the measured total, and any embedded
// instance trace passes the CheckSums latency-attribution discipline inside
// the request's consensus window.
func VerifyRequestTrace(rec *RequestTrace) error {
	return serve.VerifyRequestTrace(rec)
}
