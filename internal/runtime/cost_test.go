package runtime

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// The paper states its efficiency results in rounds and messages, and in a
// failure-free run those are constants of the algorithm. The two tests in
// this file pin them with == on integer counts: the round/protocol frames a
// run encodes (detector heartbeats excluded) and the rounds its automata
// run do not depend on the machine or on wall-clock time. Wall-clock
// numbers live in bench/ (`bash bench/run.sh`).

// TestClusterDataCost pins the data cost of one failure-free live cluster
// (n=3, t=1, proposals 0,1,2) per algorithm/model pair. Every node sends a
// frame to both peers in each of the t+1 rounds it runs, so all six rows
// cost (n−1)(t+1) = 4 data messages per decision; the bytes differ by what
// the frames carry (A1's are mostly empty).
func TestClusterDataCost(t *testing.T) {
	for _, tc := range []struct {
		name                string
		alg                 rounds.Algorithm
		kind                rounds.ModelKind
		dataMsgs, dataBytes float64 // per decision: integer totals over 3
	}{
		{"FloodSet/RS", consensus.FloodSet{}, rounds.RS, 4, 28},
		{"C_OptFloodSet/RS", consensus.COptFloodSet{}, rounds.RS, 4, 28},
		{"A1/RS", consensus.A1{}, rounds.RS, 4, 56.0 / 3},
		{"FloodSetWS/RWS", consensus.FloodSetWS{}, rounds.RWS, 4, 28},
		{"C_OptFloodSetWS/RWS", consensus.COptFloodSetWS{}, rounds.RWS, 4, 28},
		{"A1/RWS", consensus.A1{}, rounds.RWS, 4, 56.0 / 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The rows wait on timers, not on the CPU: run them side by side
			// so timing far above a host stall (a late RS frame or a false
			// RWS suspicion would change what the next round carries) costs
			// one round trip of wall-clock, not six.
			t.Parallel()
			cr, err := RunCluster(tc.alg, EngineConfig{
				Kind: tc.kind, T: 1,
				RoundDuration:  150 * time.Millisecond,
				SuspectTimeout: 2 * time.Second,
				Metrics:        obs.NewRegistry(),
			}, []model.Value{0, 1, 2}, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.kind == rounds.RWS && !cr.Stats.DetectorWasPerfect {
				t.Fatalf("precondition: detector was not perfect (%d retractions)", cr.Stats.Retractions)
			}
			c := cr.Stats.Cost
			if c == nil || c.Decisions != 3 {
				t.Fatalf("cost summary = %+v, want 3 decisions", c)
			}
			if c.DataMessagesPerDecision != tc.dataMsgs || c.DataBytesPerDecision != tc.dataBytes {
				t.Errorf("data cost per decision = %v msgs, %v B (%d msgs, %d B in all); want %v msgs, %v B",
					c.DataMessagesPerDecision, c.DataBytesPerDecision, c.DataMessages, c.DataBytes,
					tc.dataMsgs, tc.dataBytes)
			}
		})
	}
}

// costRun is one failure-free FloodSetWS run on the n=5, t=1 mesh, reduced
// to what TestEngineCostShape compares.
type costRun struct {
	cost    *obs.CostSummary
	rounds  int64  // MetricNodeRounds: automaton rounds run, all nodes
	packets int64  // round packets: flushes of the workers' links
	allocs  uint64 // heap allocations between StartEngine and Close
}

// dataPackets sums the batchers' flushes: every flush of a worker's link is
// one round packet on the mesh.
func dataPackets(reg *obs.Registry) int64 {
	var packets int64
	for _, reason := range []string{"count", "sweep", "close"} {
		packets += reg.Counter(obs.Label(MetricBatcherFlushes, "reason", reason)).Value()
	}
	return packets
}

const (
	costN, costT  = 5, 1
	costHeartbeat = 2 * time.Millisecond
)

// measureCost runs instances concurrent instances over one shared mesh —
// one heartbeat detector per node, whatever the instance count — and
// requires the run to be the one the constants describe: every node
// decided in every instance and no suspicion was ever raised. A nonzero
// linkDelay replaces the default mesh's random delay with that constant.
func measureCost(t *testing.T, instances, groups int, linkDelay time.Duration) costRun {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := EngineConfig{
		N: costN, T: costT,
		Groups:          groups,
		HeartbeatPeriod: costHeartbeat,
		SuspectTimeout:  2 * time.Second,
		Metrics:         reg,
	}
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	if linkDelay > 0 {
		cfg.Network = NewChanNetwork(costN, ChanConfig{Metrics: reg,
			Delay: func(_, _ model.ProcessID, _ []byte) time.Duration { return linkDelay }})
	}
	_, st, err := runInstances(consensus.FloodSetWS{}, cfg, instances, func(inst int, id model.ProcessID) model.Value {
		return model.Value((inst + int(id)) % 7)
	})
	goruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%d instances: %v", instances, err)
	}
	if got := st.DecidedNodes; got != int64(instances*costN) {
		t.Fatalf("%d instances: %d/%d decisions", instances, got, instances*costN)
	}
	if !st.DetectorWasPerfect {
		t.Fatalf("%d instances: precondition: detector was not perfect", instances)
	}
	packets := dataPackets(reg)
	if carried := st.Cost.Messages - st.Cost.ControlMessages; packets != carried {
		t.Fatalf("%d instances: the workers' links flushed %d packets, the mesh carried %d round packets",
			instances, packets, carried)
	}
	return costRun{
		cost:    st.Cost,
		rounds:  reg.Counter(MetricNodeRounds).Value(),
		packets: packets,
		allocs:  after.Mallocs - before.Mallocs,
	}
}

// TestEngineCostShape: what sharing one mesh and one detector across many
// instances changes, and what it must not. Exact: data messages per
// decision are FloodSet flooding's (n−1)(t+1) = 8 and rounds per decision
// are t+1 = 2, at 1 instance and at 2 000. Inequalities, each with a wide
// margin: the shared detector's control traffic per decision falls below
// what a dedicated cluster pays for its own detector; batching puts many
// data frames into one transport packet; the engine's fixed setup
// allocations spread over more decisions. One ceiling: the shared run's
// allocations per decision.
func TestEngineCostShape(t *testing.T) {
	// The dedicated baseline is a one-instance, one-worker engine: a link
	// holds one frame per sweep, so every frame leaves as its own packet.
	// Each link takes two heartbeat periods,
	// so its two rounds outlast the first heartbeats by a wide margin: a run
	// that paid no control traffic at all would make the amortization
	// comparison vacuous.
	dedicated := measureCost(t, 1, 1, 2*costHeartbeat)
	if dedicated.cost.ControlMessages == 0 {
		t.Fatal("dedicated baseline ran without a single heartbeat")
	}
	shared := measureCost(t, 2000, 0, 0)

	for _, r := range []costRun{dedicated, shared} {
		d := int64(r.cost.Decisions)
		if want := (costN - 1) * (costT + 1) * d; r.cost.DataMessages != want {
			t.Errorf("%d decisions: %d data messages, want exactly %d (= (n−1)(t+1) per decision)",
				d, r.cost.DataMessages, want)
		}
		if want := (costT + 1) * d; r.rounds != want {
			t.Errorf("%d decisions: %d automaton rounds, want exactly %d (= t+1 per decision)",
				d, r.rounds, want)
		}
	}
	if got := dedicated.cost.DataBytesPerDecision; got != 64 {
		t.Errorf("one instance: %v data bytes per decision, want exactly 64", got)
	}

	if s, d := shared.cost.ControlMessagesPerDecision, dedicated.cost.ControlMessagesPerDecision; s >= d {
		t.Errorf("no amortization: %.4f control msgs/decision shared vs %.2f dedicated", s, d)
	}
	if s, d := shared.cost.ControlBytesPerDecision, dedicated.cost.ControlBytesPerDecision; s >= d {
		t.Errorf("no amortization: %.2f control B/decision shared vs %.1f dedicated", s, d)
	}
	if dedicated.packets != dedicated.cost.DataMessages {
		t.Errorf("one instance: %d round packets for %d frames, want one each", dedicated.packets, dedicated.cost.DataMessages)
	}
	perDecision := func(r costRun, x float64) float64 { return x / float64(r.cost.Decisions) }
	if pk, fr := perDecision(shared, float64(shared.packets)), shared.cost.DataMessagesPerDecision; pk >= fr {
		t.Errorf("no batching win: %.2f round packets/decision vs %.2f data frames/decision", pk, fr)
	}
	for _, r := range []costRun{dedicated, shared} { // README's engine table is these two rows
		t.Logf("%d decisions: %.2f data msgs, %.3f control msgs, %.2f round packets, %.0f allocs per decision",
			r.cost.Decisions, r.cost.DataMessagesPerDecision, r.cost.ControlMessagesPerDecision,
			perDecision(r, float64(r.packets)), perDecision(r, float64(r.allocs)))
	}
	if s, d := perDecision(shared, float64(shared.allocs)), perDecision(dedicated, float64(dedicated.allocs)); s >= d {
		t.Errorf("no alloc win: %.1f allocs/decision shared vs %.1f dedicated", s, d)
	}
	// 9 as measured (1, 2 and 4 CPUs, and under -race).
	const allocCeiling = 12
	if s := perDecision(shared, float64(shared.allocs)); s > allocCeiling {
		t.Errorf("%.1f allocs/decision shared, want at most %d", s, allocCeiling)
	}
}

// TestEngineCostExactAtCallback: the engine counts encoded round frames,
// closed rounds and decisions per sweep, not one by one, yet whoever learns
// that an instance is done reads a Stats().Cost that already holds every
// frame the instance sent, and metrics that have lost nothing.
func TestEngineCostExactAtCallback(t *testing.T) {
	// (n−1)(t+1) = 8 data messages per node decision, read inside the last
	// OnInstanceDone callback and again right after the last Done(); the
	// decisions counter equals Stats().DecidedNodes at both points, and at
	// quiescence the rounds counter and the round-duration histogram each
	// count every round an automaton closed.
	t.Run("failure-free", func(t *testing.T) {
		const instances = 400
		type reading struct {
			st        EngineStats
			decisions int64
		}
		reg := obs.NewRegistry()
		read := func(e *Engine) reading {
			return reading{e.Stats(), reg.Counter(MetricEngineInstancesDecided).Value()}
		}
		var e *Engine
		var completed atomic.Int64
		atCallback := make(chan reading, 1)
		var err error
		e, err = StartEngine(consensus.FloodSetWS{}, EngineConfig{
			N: costN, T: costT,
			Groups:          2,
			HeartbeatPeriod: 2 * time.Millisecond,
			SuspectTimeout:  2 * time.Second,
			Metrics:         reg,
			OnInstanceDone: func(uint64, InstanceOutcome) {
				if completed.Add(1) == instances {
					atCallback <- read(e)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = e.Close() }()
		handles := make([]*Instance, instances)
		for k := range handles {
			if handles[k], err = e.Open(func(id model.ProcessID) model.Value { return model.Value((k + int(id)) % 7) }); err != nil {
				t.Fatal(err)
			}
		}
		var closed int64 // Σ NodeOutcome.Rounds
		for _, h := range handles {
			<-h.Done()
			out, _ := h.Outcome()
			for _, nd := range out.Nodes {
				closed += int64(nd.Rounds)
			}
		}
		afterDone := read(e)
		for when, r := range map[string]reading{"inside the last OnInstanceDone": <-atCallback, "after the last Done()": afterDone} {
			st := r.st
			if st.DecidedNodes != instances*costN {
				t.Fatalf("%s: %d/%d node decisions", when, st.DecidedNodes, instances*costN)
			}
			if r.decisions != st.DecidedNodes {
				t.Errorf("%s: %s = %d, Stats().DecidedNodes = %d", when, MetricEngineInstancesDecided, r.decisions, st.DecidedNodes)
			}
			if want := (costN - 1) * (costT + 1) * st.DecidedNodes; st.Cost.DataMessages != want {
				t.Errorf("%s: Cost.DataMessages = %d, want exactly %d (8 per node decision)", when, st.Cost.DataMessages, want)
			}
		}
		hist := obs.Label(obs.Label(MetricRoundDuration, "algorithm", consensus.FloodSetWS{}.Name()), "model", rounds.RWS.String())
		if want := int64(instances * costN * (costT + 1)); closed != want {
			t.Fatalf("precondition: the outcomes report %d rounds, want %d", closed, want)
		}
		if got := reg.Counter(MetricNodeRounds).Value(); got != closed {
			t.Errorf("%s = %d, Σ NodeOutcome.Rounds = %d", MetricNodeRounds, got, closed)
		}
		if got := reg.Snapshot().Histograms[hist].Count; int64(got) != closed {
			t.Errorf("%s count = %d, Σ NodeOutcome.Rounds = %d", hist, got, closed)
		}
	})
	// An instance that opens, sends both its rounds and completes within one
	// sweep — its only peer is crash-stopped and already suspected — has its
	// frames counted before its callbacks run, not at the end of that sweep:
	// the halt callback sees both frames, and the decision callback every
	// frame sent up to that decision. FloodSetWS decides in round t+1, with
	// both frames out; F_OptFloodSetWS decides in round 1 on its n−t = 1
	// message, with one frame out and the round-2 frame of its tail to come.
	t.Run("within one sweep", func(t *testing.T) {
		for _, tc := range []struct {
			alg            rounds.Algorithm
			atFirst, atSec int64 // data messages inside the two decision callbacks
		}{
			{consensus.FloodSetWS{}, 2, 4},
			{consensus.FOptFloodSetWS{}, 1, 3},
		} {
			t.Run(tc.alg.Name(), func(t *testing.T) {
				var e *Engine
				atCallback := make(chan EngineStats, 2)
				atDecision := make(chan EngineStats, 2)
				var err error
				e, err = StartEngine(tc.alg, EngineConfig{
					N: 2, T: 1,
					Groups:            1,
					HeartbeatPeriod:   2 * time.Millisecond,
					SuspectTimeout:    50 * time.Millisecond,
					Metrics:           obs.NewRegistry(),
					OnInstanceDecided: func(uint64, model.Value, int) { atDecision <- e.Stats() },
					OnInstanceDone:    func(uint64, InstanceOutcome) { atCallback <- e.Stats() },
				})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = e.Close() }()
				// Instance 0: p2 crashes in round 1 before sending; p1 sends a frame
				// in each of its two rounds and closes them on the suspicion.
				h, err := e.OpenWith(nil, OpenOptions{Crashes: map[model.ProcessID]CrashPlan{2: {Round: 1, Reach: 0}}})
				if err != nil {
					t.Fatal(err)
				}
				<-h.Done()
				if st := <-atDecision; st.Cost.DataMessages != tc.atFirst || st.DecidedNodes != 1 {
					t.Errorf("inside the crash instance's decision callback: %d data messages for %d decisions, want %d for 1",
						st.Cost.DataMessages, st.DecidedNodes, tc.atFirst)
				}
				if st := <-atCallback; st.Cost.DataMessages != 2 {
					t.Fatalf("after the crash instance: %d data messages, want 2", st.Cost.DataMessages)
				}
				if h, err = e.OpenValue(7); err != nil {
					t.Fatal(err)
				}
				<-h.Done()
				if st := <-atDecision; st.Cost.DataMessages != tc.atSec || st.DecidedNodes != 2 {
					t.Errorf("inside the second instance's decision callback: %d data messages for %d decisions, want %d for 2",
						st.Cost.DataMessages, st.DecidedNodes, tc.atSec)
				}
				if st := <-atCallback; st.Cost.DataMessages != 4 || st.DecidedNodes != 2 {
					t.Errorf("inside the second instance's callback: %d data messages for %d decisions, want 4 for 2",
						st.Cost.DataMessages, st.DecidedNodes)
				}
			})
		}
	})
}

// countingDetector counts what the receive function shows the heartbeat
// detector it wraps.
type countingDetector struct {
	Detector
	control, round atomic.Int64
}

func (d *countingDetector) Observe(env wire.Envelope) {
	if env.Kind.Control() {
		d.control.Add(1)
	} else {
		d.round.Add(1)
	}
	d.Detector.Observe(env)
}

// TestEngineObserveContract pins Detector.Observe's contract from the
// detector's side: every control envelope the node decoded, and round
// traffic once per packet per sender — a data packet is one batcher flush
// and carries one sender's frames, so in a loss-free run the round observes
// equal the flushes, far fewer than the frames.
func TestEngineObserveContract(t *testing.T) {
	reg := obs.NewRegistry()
	var built []*countingDetector
	inner := HeartbeatDetector()
	_, st, err := runInstances(consensus.FloodSetWS{}, EngineConfig{
		N: costN, T: costT,
		Groups:          2,
		HeartbeatPeriod: 2 * time.Millisecond,
		SuspectTimeout:  2 * time.Second,
		Metrics:         reg,
		Detector: &DetectorSpec{Name: inner.Name, New: func(cfg DetectorConfig) (Detector, error) {
			d, err := inner.New(cfg)
			if err != nil {
				return nil, err
			}
			cd := &countingDetector{Detector: d}
			built = append(built, cd)
			return cd, nil
		}},
	}, 1000, func(inst int, id model.ProcessID) model.Value { return model.Value((inst + int(id)) % 7) })
	if err != nil {
		t.Fatal(err)
	}
	if !st.DetectorWasPerfect || st.DecidedNodes != 1000*costN {
		t.Fatalf("precondition: %d/%d decisions, detector perfect = %v", st.DecidedNodes, 1000*costN, st.DetectorWasPerfect)
	}
	var control, round int64
	for _, d := range built {
		control += d.control.Load()
		round += d.round.Load()
	}
	var controlDecoded, framesDecoded int64
	for _, k := range wire.Kinds() {
		decoded := reg.Counter(obs.Label(netobs.MetricWireDecoded, "kind", k.String())).Value()
		if k.Control() {
			controlDecoded += decoded
		} else {
			framesDecoded += decoded
		}
	}
	packets := dataPackets(reg)
	if control == 0 || control != controlDecoded {
		t.Errorf("detectors observed %d control envelopes, the nodes decoded %d: want every one", control, controlDecoded)
	}
	if framesDecoded != st.Cost.DataMessages {
		t.Fatalf("precondition: %d round frames decoded of %d sent", framesDecoded, st.Cost.DataMessages)
	}
	if round != packets {
		t.Errorf("detectors observed round traffic %d times over %d data packets: want once per packet", round, packets)
	}
	if round*2 > framesDecoded {
		t.Errorf("%d round observes for %d frames: batching saved the detector nothing", round, framesDecoded)
	}
}
