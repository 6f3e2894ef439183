package runtime

import (
	"errors"
	"fmt"
	"maps"
	goruntime "runtime"
	"sync/atomic"
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

// stubDetector is an inert Detector that records lifecycle calls — enough to
// pin the construction-error cleanup paths of StartEngine and RunCluster.
type stubDetector struct {
	started atomic.Int32
	stopped atomic.Int32
}

func (s *stubDetector) Start()                       { s.started.Add(1) }
func (s *stubDetector) Stop()                        { s.stopped.Add(1) }
func (s *stubDetector) Observe(wire.Envelope)        {}
func (s *stubDetector) Suspects() model.ProcSet      { return 0 }
func (s *stubDetector) NoteRound(int)                {}
func (s *stubDetector) Name() string                 { return "stub" }
func (s *stubDetector) EverSuspected() model.ProcSet { return 0 }
func (s *stubDetector) FalseSuspicions() int64       { return 0 }
func (s *stubDetector) EncodeErrors() int64          { return 0 }

// failAfterSpec builds stub detectors until node `failAt`, then errors —
// the construction-failure scenario for the leak tests.
func failAfterSpec(failAt int) (*DetectorSpec, *[]*stubDetector) {
	built := &[]*stubDetector{}
	n := 0
	return &DetectorSpec{
		Name: "failing-stub",
		New: func(cfg DetectorConfig) (Detector, error) {
			n++
			if n >= failAt {
				return nil, errors.New("synthetic construction failure")
			}
			d := &stubDetector{}
			*built = append(*built, d)
			return d, nil
		},
	}, built
}

// engineInitials is the equivalence fixture: a handful of distinct proposal
// vectors cycled across instances, so neighbouring instances on the same
// mesh are solving different consensus problems.
var engineInitials = [][]model.Value{
	vals(4, 2, 7),
	vals(1, 9, 5),
	vals(3, 3, 3),
	vals(8, 0, 6),
}

func engineInitialFn(inst int, id model.ProcessID) model.Value {
	return engineInitials[inst%len(engineInitials)][id-1]
}

// runInstances is the batch shape several tests share: start an engine, open
// `instances` instances where node id proposes initial(inst, id), wait them
// out, close, and hand back every outcome with the closing stats.
func runInstances(alg rounds.Algorithm, cfg EngineConfig, instances int,
	initial func(inst int, id model.ProcessID) model.Value) ([]InstanceOutcome, EngineStats, error) {
	e, err := StartEngine(alg, cfg)
	if err != nil {
		return nil, EngineStats{}, err
	}
	handles := make([]*Instance, instances)
	for k := range handles {
		if handles[k], err = e.Open(func(id model.ProcessID) model.Value { return initial(k, id) }); err != nil {
			_ = e.Close()
			return nil, EngineStats{}, err
		}
	}
wait:
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-e.er.abortCh:
			break wait // Close resolves what the aborted workers left behind
		}
	}
	err = e.Close()
	outs := make([]InstanceOutcome, instances)
	for k, h := range handles {
		outs[k], _ = h.Outcome()
	}
	return outs, e.Stats(), err
}

func runEquivEngine(t *testing.T, groups int) []InstanceOutcome {
	t.Helper()
	outs, _, err := runInstances(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1,
		Groups:          groups,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
		Metrics:         obs.NewRegistry(),
	}, 12, engineInitialFn)
	if err != nil {
		t.Fatalf("runInstances(groups=%d): %v", groups, err)
	}
	return outs
}

// TestEngineMatchesRoundModel is the acceptance check against the repo's
// specification, not against a second runtime: every instance multiplexed
// on the shared mesh decides — value and round — exactly what a failure-free
// RWS run of the round model decides from the same proposals, and runs
// exactly as many rounds as that run has (it halts at quiescence).
func TestEngineMatchesRoundModel(t *testing.T) {
	want := make([]*rounds.Run, len(engineInitials))
	for i, initial := range engineInitials {
		run, err := rounds.RunAlgorithm(rounds.RWS, consensus.FloodSetWS{}, initial, 1, rounds.NoFailures)
		if err != nil {
			t.Fatalf("round-model run %d: %v", i, err)
		}
		want[i] = run
	}

	e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1, Groups: 3,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
		Metrics:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Instance, 12)
	for inst := range handles {
		inst := inst
		if handles[inst], err = e.Open(func(id model.ProcessID) model.Value { return engineInitialFn(inst, id) }); err != nil {
			t.Fatal(err)
		}
	}
	for inst, h := range handles {
		<-h.Done()
		out, _ := h.Outcome()
		run := want[inst%len(want)]
		for id := 1; id <= 3; id++ {
			nd := out.Nodes[id-1]
			if !out.Decided[id-1] || out.Decisions[id-1] != run.DecisionOf[id] || int(nd.DecidedAt) != run.DecidedAt[id] {
				t.Errorf("instance %d node %d: decided (%d,%v) at round %d; the round model decides %d at round %d",
					inst, id, int64(out.Decisions[id-1]), out.Decided[id-1], nd.DecidedAt,
					int64(run.DecisionOf[id]), run.DecidedAt[id])
			}
			if nd.Crashed || int(nd.Rounds) != len(run.Rounds) || nd.WaitTimeouts != 0 {
				t.Errorf("instance %d node %d: outcome %+v, want the round model's %d clean rounds",
					inst, id, nd, len(run.Rounds))
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.DecidedNodes != 12*3 || st.AgreementReached != 12 {
		t.Errorf("stats = %+v, want 36 decisions over 12 agreeing instances", st)
	}
}

// TestEngineShardingInvariance: Groups is a throughput knob, not a semantic
// one — the decision vector is identical however instances shard.
func TestEngineShardingInvariance(t *testing.T) {
	one := runEquivEngine(t, 1)
	four := runEquivEngine(t, 4)
	if len(one) != len(four) {
		t.Fatalf("result sizes differ: %d vs %d", len(one), len(four))
	}
	for k := range one {
		for i := range one[k].Decisions {
			if one[k].Decided[i] != four[k].Decided[i] || one[k].Decisions[i] != four[k].Decisions[i] {
				t.Errorf("instance %d node %d: groups=1 (%d,%v) vs groups=4 (%d,%v)",
					k, i+1, int64(one[k].Decisions[i]), one[k].Decided[i],
					int64(four[k].Decisions[i]), four[k].Decided[i])
			}
		}
	}
}

// TestEngineUnknownInstanceDrops: a round message carrying an out-of-range
// instance id is dropped by the worker the packet reached and counted,
// without disturbing the in-range instances.
func TestEngineUnknownInstanceDrops(t *testing.T) {
	reg := obs.NewRegistry()
	// A 4-endpoint mesh for a 3-node engine: endpoint 4 is the test's hand,
	// planting a stray frame in node 1's inbox before the engine starts.
	nw := NewChanNetwork(4, ChanConfig{MaxDelay: time.Millisecond, Metrics: reg})
	stray, err := wire.Encode(wire.Envelope{
		From: 2, To: 1, Round: 1, Kind: wire.KindD,
		Instance: 99, Payload: consensus.DMsg{V: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Endpoint(4).Send(1, stray); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the delayed delivery land in the inbox

	outs, st, err := runInstances(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1,
		Network:         nw,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
		Metrics:         reg,
	}, 2, engineInitialFn)
	if err != nil {
		t.Fatal(err)
	}
	if st.UnknownInstanceDrops != 1 {
		t.Errorf("UnknownInstanceDrops = %d, want 1", st.UnknownInstanceDrops)
	}
	if got := reg.Snapshot().Counter(MetricEngineUnknownInstance); got != 1 {
		t.Errorf("unknown-instance counter = %d, want 1", got)
	}
	for inst, out := range outs {
		if _, verdict := out.Agreement(); verdict != AgreementReached {
			t.Errorf("instance %d: verdict %v after stray drop", inst, verdict)
		}
	}
}

// TestEngineBatchedRun: with the workers batching round traffic the run
// reaches agreement everywhere, the batcher counters move, and the shared
// detector's control cost lands in the cost summary.
func TestEngineBatchedRun(t *testing.T) {
	reg := obs.NewRegistry()
	_, st, err := runInstances(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  500 * time.Millisecond,
		Metrics:         reg,
	}, 40, engineInitialFn)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.DecidedNodes; got != 40*3 {
		t.Fatalf("DecidedNodes = %d, want 120", got)
	}
	snap := reg.Snapshot()
	if frames := snap.Counter(MetricBatcherFrames); frames == 0 {
		t.Error("batcher saw no frames")
	}
	if dataPackets(reg) == 0 {
		t.Error("batcher never flushed")
	}
	if st.Cost == nil || st.Cost.Decisions != 120 {
		t.Fatalf("cost summary = %+v, want 120 decisions", st.Cost)
	}
	if got := snap.Counter(MetricEngineInstancesDecided); got != 120 {
		t.Errorf("decisions counter = %d, want 120", got)
	}
}

// TestEngineDetectorFailureStopsPrior: if detector construction fails on a
// later node, the engine stops the already-built detectors before returning
// the error.
func TestEngineDetectorFailureStopsPrior(t *testing.T) {
	spec, built := failAfterSpec(3)
	_, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1,
		Detector: spec,
		Metrics:  obs.NewRegistry(),
	})
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

// TestEngineDeadlineWakeup: a round deadline wakes its worker when it
// falls due, not on the next suspicion-poll tick. RS rounds of 10ms under a
// 1s SuspectTimeout (tick clamped to 50ms) must each close on their barrier:
// the T+1 = 2 rounds finish well inside 100ms of the epoch, and every round
// closes having heard both peers — a worker that overslept a barrier would
// start the next round late, past its own barrier, and close it empty.
//
// The bug is deterministic (a worker woken only by the tick oversleeps
// every barrier, every time) while a host stall is sporadic, so the first
// of up to three attempts that meets every assertion passes the test.
func TestEngineDeadlineWakeup(t *testing.T) {
	var failures []string
	for attempt := 0; attempt < 3; attempt++ {
		if failures = deadlineWakeupAttempt(t); len(failures) == 0 {
			return
		}
		t.Logf("attempt %d: %q", attempt+1, failures)
	}
	t.Errorf("three attempts in a row missed a 10ms barrier; last: %q", failures)
}

// deadlineWakeupAttempt runs the scenario once and returns every assertion
// it missed.
func deadlineWakeupAttempt(t *testing.T) (failures []string) {
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	const headroom = 16 * time.Millisecond // the round-1 barrier: 10ms + 2ms·n after Open
	e, err := StartEngine(consensus.FloodSet{}, EngineConfig{
		Kind: rounds.RS, N: 3, T: 1, Groups: 1,
		RoundDuration:  10 * time.Millisecond,
		SuspectTimeout: time.Second,
		Metrics:        obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	var events obs.Collector
	start := time.Now()
	h, err := e.OpenWith(func(id model.ProcessID) model.Value { return model.Value(id) },
		OpenOptions{Events: &events})
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	if took := time.Since(start) - headroom; took < 20*time.Millisecond || took >= 100*time.Millisecond {
		fail("two 10ms rounds took %v after the epoch, want within [20ms, 100ms)", took)
	}
	out, _ := h.Outcome()
	if v, st := out.Agreement(); st != AgreementReached || v != 1 {
		fail("agreement (%d,%v), want (1,reached)", int64(v), st)
	}
	recvs := 0
	for _, ev := range events.Events() {
		if ev.Type != obs.EventRecv {
			continue
		}
		recvs++
		if len(ev.Peers) != 2 {
			fail("p%d closed round %d having heard %v, want both peers", ev.Proc, ev.Round, ev.Peers)
		}
	}
	if recvs != 6 {
		fail("%d reception records, want 6 (3 nodes × (T+1) rounds)", recvs)
	}
	return failures
}

// TestEngineSlabsTrimmed: a worker's slab table forgets completed
// instances, so its size (and every full rescan) follows the in-flight
// window, not the engine's lifetime.
func TestEngineSlabsTrimmed(t *testing.T) {
	const total, window = 20000, 8
	done := make(chan struct{}, window)
	reg := obs.NewRegistry()
	e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1, Groups: 2,
		// A near-zero delay bound: the test is about bookkeeping, not latency.
		Network:         NewChanNetwork(3, ChanConfig{MaxDelay: 10 * time.Microsecond, Metrics: reg}),
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  time.Second,
		Metrics:         reg,
		OnInstanceDone:  func(uint64, InstanceOutcome) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	inflight := 0
	for opened := 0; opened < total; opened++ {
		if inflight == window {
			<-done
			inflight--
		}
		if _, err := e.OpenValue(model.Value(opened)); err != nil {
			t.Fatal(err)
		}
		inflight++
	}
	if err := e.Close(); err != nil { // joins the workers: their state is now safe to read
		t.Fatal(err)
	}
	if st := e.Stats(); st.Completed != total || st.AgreementReached != total {
		t.Fatalf("stats = %+v, want %d agreeing instances", st, total)
	}
	for _, w := range e.er.workers {
		if len(w.slabs) > 4*window || cap(w.slabs) > 64*window {
			t.Errorf("worker %d: slab table len %d cap %d after %d instances through a window of %d",
				w.idx, len(w.slabs), cap(w.slabs), total, window)
		}
		if w.base < total/2-window {
			t.Errorf("worker %d: trimmed only %d of its %d instances", w.idx, w.base, total/2)
		}
	}
}

// TestEngineLossyMeshKeepsAgreement: a mesh that loses 30% of its packets
// (TestChaosServing's mix otherwise) starves RWS rounds of live,
// unsuspected peers' messages. A starved round must halt its automaton at
// WaitBound, never close without the message: of 400 instances of
// differing proposals at n=4, t=2, not one splits its decision. Liveness is
// not gated — a lost packet takes every instance's frame on its link, so at
// this rate hardly any instance decides.
func TestEngineLossyMeshKeepsAgreement(t *testing.T) {
	spec, err := faults.ParseSpec("seed=7,loss=0.3,dup=0.2,spike=1ms-3ms@0.2")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []rounds.Algorithm{consensus.FloodSetWS{}, consensus.COptFloodSetWS{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			fcfg := spec
			fcfg.Metrics = obs.NewRegistry()
			outs, st, err := runInstances(alg, EngineConfig{
				N: 4, T: 2,
				Faults:          &fcfg,
				WaitBound:       300 * time.Millisecond,
				HeartbeatPeriod: 2 * time.Millisecond, SuspectTimeout: 2 * time.Second,
				Metrics: obs.NewRegistry(),
			}, 400, func(k int, id model.ProcessID) model.Value { return model.Value((7*k + 3*int(id)) % 10) })
			if err != nil {
				t.Fatal(err)
			}
			split := 0
			for _, out := range outs {
				if _, v := out.Agreement(); v == AgreementViolated {
					split++
				}
			}
			t.Logf("%d of 400 instances undecided, %d wait timeouts, detector perfect %v",
				st.AgreementNone, st.WaitTimeouts, st.DetectorWasPerfect)
			if split != 0 || st.AgreementViolated != 0 {
				t.Errorf("%d of 400 instances disagree (engine tally %d; detector perfect %v)",
					split, st.AgreementViolated, st.DetectorWasPerfect)
			}
		})
	}
}

// TestEngineCrashOnMesh is the crash-fault acceptance run on the
// multiplexed mesh (heartbeat detector; internal/fdimpl runs the same table
// for bounded and ring): n=5, t=2, 200 instances in flight over two workers,
// node 2 crash-stopping at round 2 of instance 50 having reached one peer.
func TestEngineCrashOnMesh(t *testing.T) {
	const n, inFlight, after, victim = 5, 200, 50, model.ProcessID(2)
	goruntime.GC()
	before := goruntime.NumGoroutine()
	e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: n, T: 2, Groups: 2,
		HeartbeatPeriod: 5 * time.Millisecond, SuspectTimeout: 500 * time.Millisecond,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	proposal := func(inst int, id model.ProcessID) model.Value { return model.Value(inst*10 + int(id)) }
	open := func(inst int) *Instance {
		var opts OpenOptions
		if inst == 50 {
			opts.Crashes = map[model.ProcessID]CrashPlan{victim: {Round: 2, Reach: 1}}
		}
		h, err := e.OpenWith(func(id model.ProcessID) model.Value { return proposal(inst, id) }, opts)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	check := func(inst int, h *Instance, victimGone bool) {
		<-h.Done()
		out, _ := h.Outcome()
		v, st := out.Agreement()
		if st != AgreementReached || v < proposal(inst, 1) || v > proposal(inst, n) {
			t.Errorf("instance %d: agreement (%d,%v), want a proposed value", inst, int64(v), st)
		}
		if out.WaitTimeouts != 0 {
			t.Errorf("instance %d: %d WaitBound expiries; the crash must be absorbed by suspicion", inst, out.WaitTimeouts)
		}
		for id := model.ProcessID(1); id <= n; id++ {
			nd, decided := out.Nodes[id-1], out.Decided[id-1]
			switch {
			case id != victim && (nd.Crashed || !decided):
				t.Errorf("instance %d: survivor p%d outcome %+v decided=%v", inst, id, nd, decided)
			case id == victim && victimGone && (!nd.Crashed || decided):
				t.Errorf("instance %d: p%d outcome %+v decided=%v, want crashed and undecided", inst, id, nd, decided)
			case id == victim && nd.Crashed && nd.Rounds >= 4:
				t.Errorf("instance %d: p%d crashed yet completed all %d rounds", inst, id, nd.Rounds)
			}
		}
	}
	handles := make([]*Instance, inFlight)
	for inst := range handles {
		handles[inst] = open(inst)
	}
	for inst, h := range handles {
		check(inst, h, inst == 50)
	}
	for inst := inFlight; inst < inFlight+after; inst++ {
		check(inst, open(inst), true) // opened after the crash: the victim never runs
	}
	if st := e.Stats(); !st.DetectorWasPerfect || st.FalselySuspected != 0 || st.WaitTimeouts != 0 ||
		st.Completed != inFlight+after || st.AgreementReached != inFlight+after {
		t.Errorf("stats after the crash = %+v, want a perfect detector and %d agreeing instances", st, inFlight+after)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := goruntime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:goruntime.Stack(buf, true)])
	}
}

// TestEngineChaosEventsAndLogs: the engine's injector inherits the engine's
// event sink and flight recorder, and its logs outlive Close.
func TestEngineChaosEventsAndLogs(t *testing.T) {
	var events obs.Collector
	flight := netobs.NewRecorder(nil)
	e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1,
		WaitBound: 100 * time.Millisecond,
		Faults: &faults.Config{
			Seed:            3,
			Default:         faults.LinkFaults{Duplicate: 0.2},
			Partitions:      []faults.Partition{{Start: 0, End: 60 * time.Millisecond, Group: model.Singleton(3)}},
			RecordDecisions: true,
		},
		Metrics: obs.NewRegistry(), Events: &events, Flight: flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.OpenValue(7)
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	time.Sleep(80 * time.Millisecond) // let the partition heal on schedule
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[obs.EventType]int{}
	for _, ev := range events.Events() {
		seen[ev.Type]++
	}
	if seen[obs.EventPartition] == 0 || seen[obs.EventHeal] == 0 || seen[obs.EventCost] != 1 {
		t.Errorf("engine sink saw %v, want partition, heal and one cost event", seen)
	}
	if len(e.Injector().PartitionLog()) < 2 || len(e.Injector().Decisions()) == 0 {
		t.Errorf("injector logs after Close: %d transitions, %d decisions",
			len(e.Injector().PartitionLog()), len(e.Injector().Decisions()))
	}
	if len(flight.Records()) == 0 {
		t.Error("flight recorder saw nothing from the default network or the injector")
	}
}

// chattyAlg decides its own proposal at round 1 and broadcasts it in every
// round forever: an automaton that never goes quiet.
type chattyAlg struct{}

func (chattyAlg) Name() string { return "chatty" }
func (chattyAlg) New(cfg rounds.ProcConfig) rounds.Process {
	return &chattyProc{cfg: cfg}
}

type chattyProc struct {
	cfg     rounds.ProcConfig
	decided bool
}

func (p *chattyProc) Msgs(int) []rounds.Message {
	out := make([]rounds.Message, p.cfg.N+1)
	for i := 1; i <= p.cfg.N; i++ {
		out[i] = consensus.DMsg{V: p.cfg.Initial}
	}
	return out
}
func (p *chattyProc) Trans(int, []rounds.Message)   { p.decided = true }
func (p *chattyProc) Decision() (model.Value, bool) { return p.cfg.Initial, p.decided }

// TestEngineQuiescenceRule pins the halting rule's two sides on the RWS
// mesh: decided-but-relaying keeps running (C_OptFloodSetWS decides at round
// 1 on unanimous proposals and still floods through round T+1), and an
// automaton that never goes quiet ends at the MaxRounds cap.
func TestEngineQuiescenceRule(t *testing.T) {
	for _, tc := range []struct {
		name      string
		alg       rounds.Algorithm
		maxRounds int
		rounds    int32 // every case decides at round 1
	}{
		{"decided-but-relaying", consensus.COptFloodSetWS{}, 0, 3},
		{"never-quiet/default-cap", chattyAlg{}, 0, 4},
		{"never-quiet/explicit-cap", chattyAlg{}, 6, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := StartEngine(tc.alg, EngineConfig{
				N: 5, T: 2, MaxRounds: tc.maxRounds,
				HeartbeatPeriod: 5 * time.Millisecond, SuspectTimeout: 500 * time.Millisecond,
				Metrics: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			h, err := e.OpenValue(7)
			if err != nil {
				t.Fatal(err)
			}
			<-h.Done()
			out, _ := h.Outcome()
			if v, st := out.Agreement(); st != AgreementReached || v != 7 {
				t.Errorf("agreement (%d,%v), want (7,reached)", int64(v), st)
			}
			for i, nd := range out.Nodes {
				if nd.DecidedAt != 1 || nd.Rounds != tc.rounds || nd.WaitTimeouts != 0 {
					t.Errorf("p%d outcome %+v, want decision at round 1 and %d rounds run", i+1, nd, tc.rounds)
				}
			}
		})
	}
}

// TestEngineQuiescenceWithCrash: n=5, t=2, p4 crashing in round 1 having
// reached one peer. The survivors go quiet together at round T+1 — nobody
// waits on a halted peer — and the frames still in flight towards halted
// automata are dropped without being counted as stray traffic.
func TestEngineQuiescenceWithCrash(t *testing.T) {
	const n, tt, victim = 5, 2, model.ProcessID(4)
	reg := obs.NewRegistry()
	e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: n, T: tt,
		HeartbeatPeriod: 5 * time.Millisecond, SuspectTimeout: 500 * time.Millisecond,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.OpenWith(func(id model.ProcessID) model.Value { return model.Value(10 * id) },
		OpenOptions{Crashes: map[model.ProcessID]CrashPlan{victim: {Round: 1, Reach: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	out, _ := h.Outcome()
	if _, st := out.Agreement(); st != AgreementReached {
		t.Errorf("agreement verdict %v, want reached", st)
	}
	for id := model.ProcessID(1); id <= n; id++ {
		nd := out.Nodes[id-1]
		switch {
		case id == victim && (!nd.Crashed || nd.Rounds != 0 || out.Decided[id-1]):
			t.Errorf("victim p%d outcome %+v decided=%v, want crashed in round 1", id, nd, out.Decided[id-1])
		case id != victim && (nd.Crashed || !out.Decided[id-1] || nd.DecidedAt != tt+1 || nd.Rounds != tt+1):
			t.Errorf("survivor p%d outcome %+v decided=%v, want a decision at round %d and exactly %d rounds",
				id, nd, out.Decided[id-1], tt+1, tt+1)
		}
	}
	st := e.Stats()
	if unknown := reg.Counter(MetricEngineUnknownInstance).Value(); st.WaitTimeouts != 0 || unknown != 0 || !st.DetectorWasPerfect {
		t.Errorf("stats = %+v (%s = %d), want no WaitBound expiry, no unknown-instance drop, a perfect detector",
			st, MetricEngineUnknownInstance, unknown)
	}
}

// TestEngineQuiescenceRS: under RS a halted automaton does not sit out the
// barrier of a round it will never run. A1 decides at round 1, forwards at
// round 2 and is quiet from round 3: the instance resolves at the round-2
// barrier, a full RoundDuration before the T+2 cap would have let it. The
// epoch lies 10ms + 2ms·n after Open.
func TestEngineQuiescenceRS(t *testing.T) {
	const headroom, roundDur = 16 * time.Millisecond, 150 * time.Millisecond
	e, err := StartEngine(consensus.A1{}, EngineConfig{
		Kind: rounds.RS, N: 3, T: 1,
		RoundDuration: roundDur,
		Metrics:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	start := time.Now()
	h, err := e.Open(func(id model.ProcessID) model.Value { return model.Value(id + 8) })
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	took := time.Since(start)
	if took < headroom+2*roundDur || took >= headroom+3*roundDur {
		t.Errorf("resolved after %v, want within [%v, %v): two round durations, not three",
			took, headroom+2*roundDur, headroom+3*roundDur)
	}
	out, _ := h.Outcome()
	if v, st := out.Agreement(); st != AgreementReached || v != 9 {
		t.Errorf("agreement (%d,%v), want (9,reached)", int64(v), st)
	}
	for i, nd := range out.Nodes {
		if nd.DecidedAt != 1 || nd.Rounds != 2 {
			t.Errorf("p%d outcome %+v, want decision at round 1 and 2 rounds run", i+1, nd)
		}
	}
}

// ownerCheckNetwork is a ChanNetwork whose endpoints check every round
// packet on its way out: its frames must all belong to one worker, that is
// share one instance mod groups.
type ownerCheckNetwork struct {
	*ChanNetwork
	groups                  uint64
	packets, batched, mixed atomic.Int64
}

func (nw *ownerCheckNetwork) Endpoint(id model.ProcessID) Transport {
	return &ownerCheckEndpoint{Transport: nw.ChanNetwork.Endpoint(id), nw: nw}
}

type ownerCheckEndpoint struct {
	Transport
	nw *ownerCheckNetwork
}

func (e *ownerCheckEndpoint) Send(to model.ProcessID, data []byte) error {
	if !wire.PeekControl(data) {
		owner, frames, mixed := uint64(0), 0, false
		_ = wire.SplitBatch(data, func(frame []byte) error {
			env, err := wire.Decode(frame)
			if err != nil {
				mixed = true
				return nil
			}
			if w := env.Instance % e.nw.groups; frames == 0 {
				owner = w
			} else if w != owner {
				mixed = true
			}
			frames++
			return nil
		})
		e.nw.packets.Add(1)
		if frames > 1 {
			e.nw.batched.Add(1)
		}
		if mixed {
			e.nw.mixed.Add(1)
		}
	}
	return e.Transport.Send(to, data)
}

// TestEnginePacketsHaveOneOwner: a worker batches only its own instances,
// so every round packet on the mesh belongs to one worker and the worker it
// is routed to files all of it; a stray frame someone else batched in, or
// one naming its receiver as sender, is dropped and counted, and never
// reaches the instance it names.
func TestEnginePacketsHaveOneOwner(t *testing.T) {
	const n, groups, instances = 4, 3, 300
	reg := obs.NewRegistry()
	nw := &ownerCheckNetwork{ChanNetwork: NewChanNetwork(n, ChanConfig{MaxDelay: time.Millisecond, Metrics: reg}), groups: groups}
	outs, st, err := runInstances(consensus.FloodSetWS{}, EngineConfig{
		N: n, T: 1, Groups: groups,
		Network:         nw,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  2 * time.Second,
		Metrics:         reg,
	}, instances, func(inst int, id model.ProcessID) model.Value { return model.Value((inst + int(id)) % 7) })
	if err != nil {
		t.Fatal(err)
	}
	for inst, out := range outs {
		if _, verdict := out.Agreement(); verdict != AgreementReached {
			t.Errorf("instance %d: verdict %v", inst, verdict)
		}
	}
	if mixed, packets := nw.mixed.Load(), nw.packets.Load(); mixed != 0 || packets != dataPackets(reg) {
		t.Errorf("%d of %d round packets mix workers' instances (the links flushed %d): want none", mixed, packets, dataPackets(reg))
	}
	if nw.batched.Load() == 0 {
		t.Error("no packet carried more than one frame: the ownership check was vacuous")
	}
	if st.UnknownInstanceDrops != 0 || reg.Counter(MetricEngineUnknownInstance).Value() != 0 {
		t.Errorf("UnknownInstanceDrops = %d, want 0", st.UnknownInstanceDrops)
	}

	t.Run("stray frame in a batch", func(t *testing.T) {
		// Endpoint n+1 is the test's hand. Links between the nodes take 50ms,
		// so both instances are still in round 1 when the hand's batch, which
		// travels at once, reaches node 1.
		reg := obs.NewRegistry()
		nw := NewChanNetwork(n+1, ChanConfig{Metrics: reg, Delay: func(from, _ model.ProcessID, _ []byte) time.Duration {
			if from == n+1 {
				return 0
			}
			return 50 * time.Millisecond
		}})
		e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
			N: n, T: 1, Groups: groups,
			Network:         nw,
			HeartbeatPeriod: 5 * time.Millisecond,
			SuspectTimeout:  2 * time.Second,
			Metrics:         reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		initial := func(id model.ProcessID) model.Value { return model.Value(id) }
		var owned, other obs.Collector
		hOwned, err := e.OpenWith(initial, OpenOptions{Events: &owned}) // instance 0, worker 0
		if err != nil {
			t.Fatal(err)
		}
		hOther, err := e.OpenWith(initial, OpenOptions{Events: &other}) // instance 1, worker 1
		if err != nil {
			t.Fatal(err)
		}
		// Round T+2 = 3 is one FloodSetWS never sends in (it halts at
		// quiescence), so an arrival there can only be the hand's frame. The
		// last frame names node 1 as its own sender: a reception the round
		// model never records.
		var batch []byte
		for _, f := range []struct {
			from model.ProcessID
			inst uint64
		}{{2, 0}, {2, 1}, {1, 0}} {
			frame, err := wire.Encode(wire.Envelope{From: f.from, To: 1, Round: 3, Kind: wire.KindD,
				Instance: f.inst, Payload: consensus.DMsg{V: 9}})
			if err != nil {
				t.Fatal(err)
			}
			batch = wire.AppendToBatch(batch, frame)
		}
		if err := nw.Endpoint(n+1).Send(1, batch); err != nil {
			t.Fatal(err)
		}
		<-hOwned.Done()
		<-hOther.Done()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		arrivedAt3 := func(c *obs.Collector, from int) bool {
			for _, ev := range c.Events() {
				if ev.Type == obs.EventArrive && ev.Round == 3 && ev.Proc == 1 && ev.From == from {
					return true
				}
			}
			return false
		}
		if !arrivedAt3(&owned, 2) {
			t.Error("instance 0 never saw the first frame of the packet routed to its worker")
		}
		if arrivedAt3(&other, 2) {
			t.Error("instance 1 received the frame worker 0 was handed in instance 0's packet")
		}
		if arrivedAt3(&owned, 1) {
			t.Error("node 1 filed a frame naming itself as sender")
		}
		if got := e.Stats().UnknownInstanceDrops; got != 2 {
			t.Errorf("UnknownInstanceDrops = %d, want 2: the other worker's frame and the self-addressed one", got)
		}
		for _, h := range []*Instance{hOwned, hOther} {
			if out, _ := h.Outcome(); !out.Decided[0] || out.Decisions[0] != 1 {
				t.Errorf("instance %d: node 1 decided (%d,%v), want 1", h.ID(), int64(out.Decisions[0]), out.Decided[0])
			}
		}
	})
}

// TestEngineOwnershipUnderFaults: duplicated and reordered packets still
// carry one worker's frames. Every instance decides, value and round, what
// the round model decides from its proposals, and no frame is counted as
// stray.
func TestEngineOwnershipUnderFaults(t *testing.T) {
	const instances = 200
	want := make([]*rounds.Run, len(engineInitials))
	for i, initial := range engineInitials {
		run, err := rounds.RunAlgorithm(rounds.RWS, consensus.FloodSetWS{}, initial, 1, rounds.NoFailures)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = run
	}
	reg := obs.NewRegistry()
	outs, st, err := runInstances(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1, Groups: 2,
		Faults:          &faults.Config{Seed: 11, Default: faults.LinkFaults{Duplicate: 0.2, Reorder: 0.2}},
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  2 * time.Second,
		Metrics:         reg,
	}, instances, engineInitialFn)
	if err != nil {
		t.Fatal(err)
	}
	if !st.DetectorWasPerfect {
		t.Fatal("precondition: the detector was not perfect")
	}
	if reg.Counter(faults.MetricDuplicated).Value() == 0 || reg.Counter(faults.MetricReordered).Value() == 0 {
		t.Fatal("precondition: the injector neither duplicated nor reordered")
	}
	for inst, out := range outs {
		run := want[inst%len(want)]
		for id := 1; id <= 3; id++ {
			if !out.Decided[id-1] || out.Decisions[id-1] != run.DecisionOf[id] || int(out.Nodes[id-1].DecidedAt) != run.DecidedAt[id] {
				t.Errorf("instance %d node %d: decided (%d,%v) at round %d; the round model decides %d at round %d",
					inst, id, int64(out.Decisions[id-1]), out.Decided[id-1], out.Nodes[id-1].DecidedAt,
					int64(run.DecisionOf[id]), run.DecidedAt[id])
			}
		}
	}
	if st.UnknownInstanceDrops != 0 {
		t.Errorf("UnknownInstanceDrops = %d, want 0", st.UnknownInstanceDrops)
	}
}

// TestEngineGoroutineAccounting: StartEngine starts one goroutine per shard
// worker and whatever the detectors start — one heartbeat ticker per node —
// and nothing else: a node's receive function runs on the mesh's delivery
// goroutine and a worker's batchers run on the worker.
func TestEngineGoroutineAccounting(t *testing.T) {
	const n, groups = 4, 3
	nw := NewChanNetwork(n, ChanConfig{Metrics: obs.NewRegistry()})
	kinds := map[string]string{
		"worker":   "(*engWorker).loop",
		"detector": "(*DetectorCore).Every",
		"batcher":  "Batcher",
	}
	count := func() map[string]int {
		m := map[string]int{}
		for kind, fn := range kinds {
			m[kind] = goroutinesRunning(fn)
		}
		return m
	}
	// Earlier tests closed their engines, but a goroutine that has signalled
	// its WaitGroup may still be on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for left := count(); left["worker"]+left["detector"] > 0; left = count() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines of closed engines still running: %v", left)
		}
		time.Sleep(time.Millisecond)
	}
	total := goruntime.NumGoroutine()
	e, err := StartEngine(consensus.FloodSetWS{}, EngineConfig{
		N: n, T: 1, Groups: groups,
		Network: nw,
		// No heartbeat is due during the test, so the mesh starts no delivery
		// goroutine either.
		HeartbeatPeriod: time.Hour,
		SuspectTimeout:  2 * time.Hour,
		Metrics:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	// A goroutine shows in a stack dump once it has been scheduled.
	want := map[string]int{"worker": groups, "detector": n, "batcher": 0}
	deadline = time.Now().Add(5 * time.Second)
	after := count()
	for ; !maps.Equal(after, want) && time.Now().Before(deadline); after = count() {
		time.Sleep(time.Millisecond)
	}
	if !maps.Equal(after, want) {
		t.Errorf("goroutines started by kind: %v, want %v", after, want)
	}
	if started := goruntime.NumGoroutine() - total; started > n+groups {
		t.Errorf("StartEngine started %d goroutines, want %d", started, n+groups)
	}
}
