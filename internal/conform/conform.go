// Package conform differentially checks the repository's two realizations
// of the paper's round models against each other: the exhaustive
// enumeration of admissible runs (package explore over rounds.Engine) and
// the live cluster execution (package runtime, optionally under the fault
// injector of package faults).
//
// The pipeline has four stages, mirroring the harness's guarantees:
//
//  1. Projection (Project, ProjectEmul): a live execution's structured
//     event stream — or an emulated execution's step-level result — is
//     canonicalized into a LiveRun: the rounds.Receptions record
//     (per-round completion, reception and crash sets) plus decisions and
//     detector suspicions, with the horizon where the round engines would
//     declare the run finished.
//
//  2. Replay (Replay): the adversary schedule implied by the projection
//     (who crashed when reaching whom, which messages went missing) is
//     re-executed deterministically through rounds.Engine. The engine's
//     plan validation is itself a conformance check — a live execution
//     whose schedule the model rejects (a drop in RS, a weak-round-
//     synchrony obligation never honored) is a model violation, reported
//     as Report.ReplayErr. DiffLive then compares the replayed run with
//     the projection round by round.
//
//  3. Invariants (OnlineInvariants, check.Consensus): the model's
//     synchrony property (round synchrony in RS, Lemma 4.1 in RWS) and the
//     crash budget — rounds.CheckReceptions, the functions every run
//     record is checked by — plus crash-stop discipline and
//     perfect-detector accuracy are asserted directly on the projection;
//     the full specification predicates of package check run on the
//     replayed run.
//
//  4. Membership (EnumerateSpace, Space.Contains): for coordinates small
//     enough to enumerate, the replayed run's Fingerprint must be a member
//     of the explorer's run space — every live execution is some run the
//     model's adversary could have produced.
//
// CheckEvents composes the stages over a recorded event stream; CheckLive
// runs a cluster and checks it in one call. The package is the correctness
// tooling behind `ssfd-run -conform` and the CI conformance job, and its
// fuzz targets (FuzzAdversarySchedule, FuzzFaultSpec) drive randomized
// engine schedules and fault specs through the same checkers.
package conform

import (
	"fmt"
	"strings"

	"repro/internal/check"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/runtime"
)

// Meta identifies the coordinate a run is checked at: algorithm, round
// model, resilience bound and the initial configuration (Initial[i] is
// p_{i+1}'s value, as in runtime.RunCluster).
type Meta struct {
	Alg     rounds.Algorithm
	Kind    rounds.ModelKind
	T       int
	Initial []model.Value
}

// N returns the system size.
func (m Meta) N() int { return len(m.Initial) }

func (m Meta) validate() error {
	if m.Alg == nil {
		return fmt.Errorf("conform: nil algorithm")
	}
	if m.Kind != rounds.RS && m.Kind != rounds.RWS {
		return fmt.Errorf("conform: unknown model kind %v", m.Kind)
	}
	n := m.N()
	if n < 1 || n > model.MaxProcs {
		return fmt.Errorf("conform: n=%d out of range", n)
	}
	if m.T < 0 || m.T >= n {
		return fmt.Errorf("conform: t=%d out of range for n=%d", m.T, n)
	}
	return nil
}

// Options tunes a conformance check.
type Options struct {
	// Enumerate additionally runs the exhaustive explorer over the Meta
	// coordinate and checks the replayed run's fingerprint for membership.
	// Only feasible at small coordinates (n≤4, t≤2); without it the replay
	// diff alone certifies the execution.
	Enumerate bool
	// Explore bounds the enumeration when Enumerate is set.
	Explore explore.Options
	// Space, when non-nil, is a pre-enumerated run space reused across
	// checks of the same coordinate (it must match Meta); it implies
	// membership checking without re-enumerating.
	Space *Space
	// ExpectConsensus folds the check.Consensus verdicts on the replayed
	// run into Report.OK. Leave it unset for algorithm/model pairs the
	// paper proves incorrect (A1 in RWS): their live runs still conform to
	// the model even though they violate uniform consensus.
	ExpectConsensus bool
}

// Report is the outcome of one conformance check.
type Report struct {
	Meta Meta
	// Live is the projected execution.
	Live *LiveRun
	// Run is the canonical replayed run (nil when ReplayErr is set).
	Run *rounds.Run
	// ReplayErr is the engine's rejection of the projected adversary
	// schedule — a live behaviour the round model deems inadmissible.
	ReplayErr error
	// Mismatches are round-level disagreements between projection and
	// replay.
	Mismatches []Mismatch
	// Online are the invariant monitor's findings on the projection.
	Online []InvariantViolation
	// Checks are the specification predicates evaluated on the replayed
	// run (empty when replay failed).
	Checks []check.Result
	// Fingerprint is the replayed run's canonical fingerprint.
	Fingerprint string
	// InSpace is the membership verdict (nil when not evaluated).
	InSpace *bool
	// SpaceSize is the enumerated space's distinct-fingerprint count.
	SpaceSize int
	// ConsensusExpected records Options.ExpectConsensus for OK.
	ConsensusExpected bool
}

// OK reports whether the execution conforms: the replay succeeded and
// matches, no online invariant fired, the run is model-admissible, and —
// when evaluated — the fingerprint is in the enumerated space and (when
// expected) uniform consensus holds.
func (r *Report) OK() bool {
	if r.ReplayErr != nil || len(r.Mismatches) > 0 || len(r.Online) > 0 {
		return false
	}
	if r.Live != nil && r.Live.Truncated {
		// No horizon: some process was still alive and undecided when the
		// execution stopped, so no complete round-model run matches it.
		return false
	}
	if r.InSpace != nil && !*r.InSpace {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK && (r.ConsensusExpected || c.Property == "model admissibility") {
			return false
		}
	}
	return true
}

// String renders a human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance %s/%s n=%d t=%d: ", r.Meta.Alg.Name(), r.Meta.Kind, r.Meta.N(), r.Meta.T)
	if r.OK() {
		b.WriteString("OK\n")
	} else {
		b.WriteString("FAIL\n")
	}
	if r.Live != nil {
		fmt.Fprintf(&b, "  projected: %d rounds observed, horizon %d", len(r.Live.Rounds), r.Live.Horizon)
		if r.Live.Truncated {
			b.WriteString(" (truncated)")
		}
		b.WriteByte('\n')
	}
	if r.ReplayErr != nil {
		fmt.Fprintf(&b, "  replay: schedule rejected by the model: %v\n", r.ReplayErr)
	} else if r.Run != nil {
		fmt.Fprintf(&b, "  replay: %v\n", r.Run)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "  mismatch: %s\n", m)
	}
	for _, v := range r.Online {
		fmt.Fprintf(&b, "  invariant: %s\n", v)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	if r.InSpace != nil {
		verdict := "MEMBER of"
		if !*r.InSpace {
			verdict = "NOT IN"
		}
		fmt.Fprintf(&b, "  membership: %s the enumerated space (%d distinct runs)\n", verdict, r.SpaceSize)
	}
	return b.String()
}

// CheckEvents projects a recorded event stream and runs the full
// conformance pipeline over it.
func CheckEvents(meta Meta, events []obs.Event, opts Options) (*Report, error) {
	lr, err := Project(meta, events)
	if err != nil {
		return nil, err
	}
	return CheckProjected(lr, opts)
}

// CheckProjected runs replay, invariants and (optionally) membership over
// an already-projected execution.
func CheckProjected(lr *LiveRun, opts Options) (*Report, error) {
	rep := &Report{Meta: lr.Meta, Live: lr, ConsensusExpected: opts.ExpectConsensus}
	rep.Online = OnlineInvariants(lr)

	run, err := Replay(lr)
	if err != nil {
		rep.ReplayErr = err
		return rep, nil
	}
	rep.Run = run
	rep.Mismatches = DiffLive(lr, run)
	rep.Checks = check.Consensus(run)
	rep.Fingerprint = Fingerprint(run)

	space := opts.Space
	if space == nil && opts.Enumerate {
		space, err = EnumerateSpace(lr.Meta, opts.Explore)
		if err != nil {
			return rep, fmt.Errorf("conform: enumerating run space: %w", err)
		}
	}
	if space != nil {
		in := space.Contains(rep.Fingerprint)
		rep.InSpace = &in
		rep.SpaceSize = space.Size()
	}
	return rep, nil
}

// CheckLive executes one live cluster run (runtime.RunCluster's arguments),
// recording its event stream, and conformance-checks the execution. Any sink
// already in cfg.Events or open.Events keeps receiving its stream. The
// cluster's result is returned alongside the report; a cluster execution
// error aborts the check.
func CheckLive(alg rounds.Algorithm, cfg runtime.EngineConfig, initial []model.Value,
	open runtime.OpenOptions, opts Options) (*Report, *runtime.ClusterResult, error) {
	meta := Meta{Alg: alg, Kind: cfg.Kind, T: cfg.T, Initial: initial}
	if meta.Kind == 0 {
		meta.Kind = rounds.RWS // the engine's zero Kind
	}
	if err := meta.validate(); err != nil {
		return nil, nil, err
	}
	col := &obs.Collector{}
	cfg.Events = obs.MultiSink(cfg.Events, col) // skips a nil sink
	if open.Events != nil {
		open.Events = obs.MultiSink(open.Events, col)
	}
	cr, err := runtime.RunCluster(alg, cfg, initial, open)
	if err != nil {
		return nil, cr, fmt.Errorf("conform: live run failed: %w", err)
	}
	rep, err := CheckEvents(meta, col.Events(), opts)
	if err != nil {
		return nil, cr, err
	}
	return rep, cr, nil
}
