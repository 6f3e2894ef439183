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

// ClusterResult is a finished one-instance run of the engine: the
// instance's outcome, the engine's closing snapshot, and what only a whole
// run has — the fault injector's logs, the codec's per-kind totals, the
// network's link telemetry and the wall-clock from Open to the last halt.
type ClusterResult struct {
	// Outcome is the instance's result, indexed id-1. After an engine abort
	// its Err is set, nobody decided and Nodes is nil.
	Outcome InstanceOutcome
	// Stats is the engine's snapshot after Close: the detector audit, the
	// wait-timeout count and Cost (always populated, even for a failed run).
	Stats EngineStats
	// PartitionLog is the fault injector's fired topology transitions
	// (empty without EngineConfig.Faults).
	PartitionLog []faults.Transition
	// FaultDecisions is the injector's per-message decision log in
	// canonical order — the seed-replay artifact. Populated only when
	// EngineConfig.Faults sets RecordDecisions.
	FaultDecisions []faults.Decision
	// WireKinds is the per-message-type codec accounting behind Stats.Cost,
	// in kind-tag order.
	WireKinds []netobs.KindTotals
	// Links is the network's per-link telemetry (nil when the caller
	// supplied a network that exposes none).
	Links   *netobs.LinkTap
	Elapsed time.Duration
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
	return cr.Outcome.Agreement()
}

// RunCluster executes one live run of the algorithm — start the engine,
// open one instance where p_{i+1} proposes initial[i], wait it out, close —
// and joins every goroutine before it returns. It sets only what follows
// from "one instance": N = len(initial), one worker, and the instance's
// round events going to cfg.Events unless opts.Events is set.
// Everything else is the engine's own default, so a zero field means here
// what it means to StartEngine.
func RunCluster(alg rounds.Algorithm, cfg EngineConfig, initial []model.Value, opts OpenOptions) (*ClusterResult, error) {
	cfg.N, cfg.Groups = len(initial), 1
	if opts.Events == nil {
		opts.Events = cfg.Events
	}
	reg, spec := cfg.Metrics, cfg.Detector
	if reg == nil {
		reg = obs.Default
	}
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

	e, err := StartEngine(alg, cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	h, err := e.OpenWith(func(id model.ProcessID) model.Value { return initial[id-1] }, opts)
	if err != nil {
		_ = e.Close()
		return nil, err
	}
	select {
	case <-h.Done():
	case <-e.er.abortCh:
	}
	cr := &ClusterResult{Elapsed: time.Since(start)}
	err = e.Close()
	cr.Outcome, _ = h.Outcome()
	cr.Stats = e.Stats()
	if e.inj != nil {
		cr.PartitionLog = e.inj.PartitionLog()
		cr.FaultDecisions = e.inj.Decisions()
	}
	cr.WireKinds = e.er.ws.PerKind()
	cr.Links = e.links()
	if err != nil {
		return cr, fmt.Errorf("runtime: %w", err)
	}
	return cr, nil
}
