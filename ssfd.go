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
// The package exports three groups:
//
//   - the round models and the paper's results: execution (Run, Explore)
//     under exact adversarial control, the algorithms of Figures 1–4 and
//     §5.2 (Algorithms, ForModel), Latency and the two refuters;
//   - the live run: one engine configured by EngineConfig — StartLiveEngine
//     opens instances on demand, RunLive is its one-instance helper;
//   - the serving daemon's client and the checkers: ServeClient,
//     CheckLinearizable over its KV chains, CheckConsensus and RenderRun.
//
// Detectors, faults, observability, conformance, tracing and the daemon
// itself live in internal packages. See examples/quickstart for a tour.
package repro

import (
	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/sdd"
	"repro/internal/serve"
)

// The round models and the paper's results.
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

	// Degrees aggregates the paper's latency measures lat, Lat, Lat(·,f), Λ.
	Degrees = latency.Degrees
)

// The two round-based models (paper §4).
const (
	// RS is the synchronous round model induced by SS.
	RS = rounds.RS
	// RWS is the weakly synchronous round model induced by SP.
	RWS = rounds.RWS
)

// NoFailures is the failure-free adversary.
var NoFailures = rounds.NoFailures

// Script returns an adversary that applies plans[i] at round i+1 and then
// behaves benignly (discharging any weak-round-synchrony obligations).
func Script(plans ...Plan) Adversary { return &rounds.Script{Plans: plans} }

// Procs builds a ProcSet from process ids.
func Procs(ids ...ProcessID) ProcSet { return model.NewProcSet(ids...) }

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

// The live run: one engine over a shared mesh, one failure detector per
// node, consensus instances opened on demand.
type (
	// EngineConfig is the one configuration of a live run: N nodes, one
	// physical mesh, one failure detector per node, and any number of
	// consensus instances multiplexed over them (RunLive opens exactly one).
	EngineConfig = runtime.EngineConfig
	// LiveOpenOptions attaches an event sink and crash plans to one
	// instance (LiveEngine.OpenWith).
	LiveOpenOptions = runtime.OpenOptions
	// CrashPlan crash-stops a live node mid-round (LiveOpenOptions.Crashes).
	CrashPlan = runtime.CrashPlan
	// ClusterResult is a finished RunLive: the instance's InstanceOutcome,
	// the engine's closing LiveEngineStats and the whole-run logs.
	ClusterResult = runtime.ClusterResult
	// AgreementStatus is a run's three-way agreement verdict
	// (none/reached/violated) — see ClusterResult.Agreement.
	AgreementStatus = runtime.AgreementStatus

	// LiveEngine is a long-lived shared-mesh execution: one physical mesh,
	// one failure detector per node, consensus instances opened on demand
	// (Open/OpenValue).
	LiveEngine = runtime.Engine
	// LiveInstance is one open instance's handle: Done() closes when every
	// node has halted, Outcome() carries the per-node decisions.
	LiveInstance = runtime.Instance
	// InstanceOutcome is a completed instance's per-node outcome; its
	// Agreement() is the three-way verdict.
	InstanceOutcome = runtime.InstanceOutcome
	// LiveEngineStats is a point-in-time read of a running engine's
	// counters (opened/completed/in-flight, agreement tallies, cost).
	LiveEngineStats = runtime.EngineStats
)

// The three-way agreement verdicts (ClusterResult.Agreement,
// InstanceOutcome.Agreement): no decisions at all, all decided nodes agree,
// or two decided nodes differ.
const (
	AgreementNone     = runtime.AgreementNone
	AgreementReached  = runtime.AgreementReached
	AgreementViolated = runtime.AgreementViolated
)

// RunLive executes one live consensus run (heartbeat failure detection,
// wall-clock rounds): start the engine cfg describes with N = len(initial),
// open one instance where p_{i+1} proposes initial[i] under opts, wait it
// out and close. For many instances over one mesh use StartLiveEngine.
func RunLive(alg Algorithm, cfg EngineConfig, initial []Value, opts LiveOpenOptions) (*ClusterResult, error) {
	return runtime.RunCluster(alg, cfg, initial, opts)
}

// StartLiveEngine boots the shared mesh and detectors of cfg and returns a
// running engine with no instances (they are opened on demand). Drain()
// stops admission, Close() drains and tears the mesh down.
func StartLiveEngine(alg Algorithm, cfg EngineConfig) (*LiveEngine, error) {
	return runtime.StartEngine(alg, cfg)
}

// The serving daemon's client (cmd/ssfd-serve: a linearizable KV store whose
// every key version is one consensus decision) and the checkers.
type (
	// ServeClient is the typed client for the daemon's API.
	ServeClient = serve.Client
	// KVVersion is one committed version of a key: its value plus the
	// consensus instance that decided it.
	KVVersion = serve.KVVersion
	// OpRecord is one recorded client operation, the input of
	// CheckLinearizable.
	OpRecord = serve.OpRecord
	// CheckResult reports one specification property on a run.
	CheckResult = check.Result
)

// ErrKeyNotFound reports a read of a KV key with no committed version.
var ErrKeyNotFound = serve.ErrKeyNotFound

// CheckLinearizable verifies that recorded client operations embed into the
// per-key consensus chains as one linearizable history; nil means no
// violation. The chains map is keyed by KV key, each entry the full
// version history (ServeClient.History).
func CheckLinearizable(chains map[string][]KVVersion, ops []OpRecord) error {
	return serve.CheckLinearizable(chains, ops)
}

// CheckConsensus evaluates the uniform consensus specification (§5.1) plus
// model admissibility on a completed run. The first entry with OK == false
// explains the violation.
func CheckConsensus(run *RoundRun) []CheckResult { return check.Consensus(run) }

// RenderRun pretty-prints a run as a round-by-round narrative.
func RenderRun(run *RoundRun) string { return rounds.RenderRun(run) }
