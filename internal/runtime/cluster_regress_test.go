package runtime

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// slowSetupNetwork wraps a network so each Endpoint call stalls, simulating
// a cluster whose per-node startup (TCP dials, cold detectors) is slower
// than the old fixed 10ms epoch headroom.
type slowSetupNetwork struct {
	*ChanNetwork
	stall time.Duration
}

func (s *slowSetupNetwork) Endpoint(id model.ProcessID) Transport {
	time.Sleep(s.stall)
	return s.ChanNetwork.Endpoint(id)
}

// TestClusterSlowStartHitsRoundOneBarrier: the RS epoch is anchored after
// construction, so a cluster whose setup takes several times the old fixed
// headroom still starts round 1 with its deadline ahead of it. Before the
// fix, each node began with the round-1 barrier already in the past,
// collapsing the lock-step schedule (FloodSet then decides without hearing
// the true minimum's owner).
func TestClusterSlowStartHitsRoundOneBarrier(t *testing.T) {
	nw := &slowSetupNetwork{
		ChanNetwork: NewChanNetwork(3, ChanConfig{MaxDelay: time.Millisecond, Metrics: obs.NewRegistry()}),
		stall:       15 * time.Millisecond, // ×3 endpoints = 45ms setup > 10ms
	}
	cr, err := RunCluster(consensus.FloodSet{}, EngineConfig{
		Kind: rounds.RS, T: 1,
		Network:       nw,
		RoundDuration: 25 * time.Millisecond,
		Metrics:       obs.NewRegistry(),
	}, vals(9, 4, 7), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, st := cr.Agreement()
	if st != AgreementReached || v != 4 {
		t.Fatalf("slow-start cluster: agreement (%d,%v), want (4,reached)", int64(v), st)
	}
	for i, decided := range cr.Outcome.Decided {
		if !decided {
			t.Errorf("p%d undecided after slow start", i+1)
		}
	}
}

// TestClusterDetectorFailureStopsPrior: when a later node's detector
// construction fails, RunCluster stops the detectors it already built
// instead of leaking their eagerly acquired resources.
func TestClusterDetectorFailureStopsPrior(t *testing.T) {
	spec, built := failAfterSpec(3)
	_, err := RunCluster(consensus.FloodSetWS{}, EngineConfig{
		Kind: rounds.RWS, T: 1,
		Detector: spec,
		Metrics:  obs.NewRegistry(),
	}, vals(1, 2, 3), OpenOptions{})
	if err == nil {
		t.Fatal("expected a construction error")
	}
	if len(*built) != 2 {
		t.Fatalf("built %d stub detectors, want 2", len(*built))
	}
	for i, d := range *built {
		if d.stopped.Load() == 0 {
			t.Errorf("detector %d never stopped on the error path", i+1)
		}
	}
}

// TestAgreementStatusVerdicts pins the three-way verdict: no decisions is
// AgreementNone, not a disagreement — the old boolean collapsed both into
// false and callers could not tell a liveness miss from a safety violation.
func TestAgreementStatusVerdicts(t *testing.T) {
	cases := []struct {
		name    string
		vals    []model.Value
		decided []bool
		want    AgreementStatus
	}{
		{"all agree", vals(5, 5, 5), []bool{true, true, true}, AgreementReached},
		{"partial agree", vals(5, 0, 5), []bool{true, false, true}, AgreementReached},
		{"disagree", vals(5, 6, 5), []bool{true, true, true}, AgreementViolated},
		{"none decided", vals(0, 0, 0), []bool{false, false, false}, AgreementNone},
	}
	for _, tc := range cases {
		if _, got := agreementOf(tc.vals, tc.decided); got != tc.want {
			t.Errorf("%s: verdict %v, want %v", tc.name, got, tc.want)
		}
	}
	for _, st := range []AgreementStatus{AgreementNone, AgreementReached, AgreementViolated} {
		if st.String() == "" {
			t.Errorf("empty String() for status %d", st)
		}
	}
}

// TestClusterDropsForeignInstanceFromBatch: a one-instance run fed by a
// batching sender splits the container, observes the control traffic, and
// drops (counting) a round message tagged for an instance it is not serving.
func TestClusterDropsForeignInstanceFromBatch(t *testing.T) {
	reg := obs.NewRegistry()
	nw := NewChanNetwork(4, ChanConfig{MaxDelay: time.Millisecond, Metrics: reg})
	hb, err := wire.Encode(wire.Envelope{From: 2, To: 1, Kind: wire.KindHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := wire.Encode(wire.Envelope{
		From: 2, To: 1, Round: 1, Kind: wire.KindD,
		Instance: 7, Payload: consensus.DMsg{V: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := wire.AppendToBatch(nil, hb)
	batch = wire.AppendToBatch(batch, foreign)
	if err := nw.Endpoint(4).Send(1, batch); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the delayed delivery land in the inbox

	cr, err := RunCluster(consensus.FloodSetWS{}, EngineConfig{
		Kind: rounds.RWS, T: 1,
		Network: nw, Metrics: reg,
	}, vals(4, 2, 7), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, st := cr.Agreement(); st != AgreementReached || v != 2 {
		t.Fatalf("agreement (%d,%v), want (2,reached) despite the stray batch", int64(v), st)
	}
	if got := reg.Snapshot().Counter(MetricEngineUnknownInstance); got != 1 {
		t.Errorf("unknown-instance counter = %d, want 1", got)
	}
}
