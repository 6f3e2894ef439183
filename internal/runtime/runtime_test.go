package runtime

import (
	goruntime "runtime"
	"sync"
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

func vals(vs ...int64) []model.Value {
	out := make([]model.Value, len(vs))
	for i, v := range vs {
		out[i] = model.Value(v)
	}
	return out
}

func TestChanNetworkDelivers(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{MaxDelay: time.Millisecond})
	defer func() { _ = nw.Close() }()
	a, b := nw.Endpoint(1), nw.Endpoint(2)
	if err := a.Send(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-b.Recv():
		if pkt.From != 1 || string(pkt.Data) != "hi" {
			t.Errorf("got %+v", pkt)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout")
	}
}

func TestChanNetworkDelayHookDrops(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{
		Delay: func(from, to model.ProcessID, data []byte) time.Duration { return -1 },
	})
	defer func() { _ = nw.Close() }()
	if err := nw.Endpoint(1).Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-nw.Endpoint(2).Recv():
		t.Fatalf("dropped message delivered: %+v", pkt)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestChanNetworkClosedSend(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{})
	_ = nw.Close()
	if err := nw.Endpoint(1).Send(2, []byte("x")); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestTCPNetworkDelivers(t *testing.T) {
	nw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nw.Close() }()
	if err := nw.Endpoint(1).Send(3, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	if err := nw.Endpoint(2).Send(3, []byte("too")); err != nil {
		t.Fatal(err)
	}
	got := map[string]model.ProcessID{}
	for i := 0; i < 2; i++ {
		select {
		case pkt := <-nw.Endpoint(3).Recv():
			got[string(pkt.Data)] = pkt.From
		case <-time.After(2 * time.Second):
			t.Fatal("timeout")
		}
	}
	if got["over tcp"] != 1 || got["too"] != 2 {
		t.Errorf("got %+v", got)
	}
}

func TestHeartbeatFDPerfectOverSynchronousNetwork(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{MaxDelay: time.Millisecond})
	defer func() { _ = nw.Close() }()
	cfg := DetectorConfig{N: 2, Period: 2 * time.Millisecond, Timeout: 40 * time.Millisecond}
	cfg.Transport = nw.Endpoint(1)
	fd1 := NewHeartbeatFD(cfg)
	cfg.Transport = nw.Endpoint(2)
	fd2 := NewHeartbeatFD(cfg)
	fd1.Start()
	fd2.Start()

	// Pump p1's inbox into its detector, as a node's receive function would.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case pkt := <-nw.Endpoint(1).Recv():
				env, err := wire.Decode(pkt.Data)
				if err == nil {
					fd1.Observe(env)
				}
			}
		}
	}()

	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		if s := fd1.Suspects(); !s.Empty() {
			t.Fatalf("false suspicion of a live peer: %v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// p2 "crashes": its heartbeats stop; p1 must suspect within the timeout.
	fd2.Stop()
	detected := false
	deadline = time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if fd1.Suspects().Has(2) {
			detected = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !detected {
		t.Error("crash never detected")
	}
	if fd1.FalseSuspicions() != 0 {
		t.Errorf("%d false suspicions over a synchronous network", fd1.FalseSuspicions())
	}
	close(stop)
	<-done
	fd1.Stop()
}

func requireAgreementValidity(t *testing.T, cr *ClusterResult, initial []model.Value, wantDecided int) {
	t.Helper()
	if _, st := cr.Agreement(); st != AgreementReached {
		t.Fatalf("agreement verdict %v: decisions %v", st, cr.Outcome.Decisions)
	}
	if decided := cr.Stats.DecidedNodes; decided < int64(wantDecided) {
		t.Fatalf("only %d nodes decided, want ≥ %d", decided, wantDecided)
	}
}

func TestLiveRSFloodSet(t *testing.T) {
	initial := vals(4, 2, 7, 5)
	cr, err := RunCluster(consensus.FloodSet{}, EngineConfig{
		Kind: rounds.RS, T: 1,
		RoundDuration: 15 * time.Millisecond,
	}, initial, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireAgreementValidity(t, cr, initial, 4)
	v, _ := cr.Agreement()
	if v != 2 {
		t.Errorf("decided %d, want 2", v)
	}
}

func TestLiveRSA1DecidesRoundOne(t *testing.T) {
	initial := vals(9, 1, 5)
	cr, err := RunCluster(consensus.A1{}, EngineConfig{
		Kind: rounds.RS, T: 1,
		RoundDuration: 15 * time.Millisecond,
	}, initial, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireAgreementValidity(t, cr, initial, 3)
	for i := 1; i <= 3; i++ {
		if cr.Outcome.Nodes[i-1].DecidedAt != 1 {
			t.Errorf("node %d decided at round %d, want 1 (Λ(A1)=1 live)", i, cr.Outcome.Nodes[i-1].DecidedAt)
		}
		if cr.Outcome.Nodes[i-1].Rounds != 2 {
			t.Errorf("node %d ran %d rounds, want 2 (quiet after the round-2 forward)", i, cr.Outcome.Nodes[i-1].Rounds)
		}
		if cr.Outcome.Decisions[i-1] != 9 {
			t.Errorf("node %d decided %d, want 9", i, cr.Outcome.Decisions[i-1])
		}
	}
}

func TestLiveRSWithCrash(t *testing.T) {
	initial := vals(0, 5, 9)
	cr, err := RunCluster(consensus.FloodSet{}, EngineConfig{
		Kind: rounds.RS, T: 1,
		RoundDuration: 15 * time.Millisecond,
	}, initial, OpenOptions{Crashes: map[model.ProcessID]CrashPlan{1: {Round: 1, Reach: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	requireAgreementValidity(t, cr, initial, 2)
	if !cr.Outcome.Nodes[0].Crashed {
		t.Error("node 1 did not crash")
	}
	// p1 reached p2 only; 0 floods through p2 to everyone.
	if v, _ := cr.Agreement(); v != 0 {
		t.Errorf("decided %d, want 0", v)
	}
}

func TestLiveRWSFloodSetWS(t *testing.T) {
	initial := vals(4, 2, 7)
	cr, err := RunCluster(consensus.FloodSetWS{}, EngineConfig{
		Kind: rounds.RWS, T: 1,
	}, initial, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireAgreementValidity(t, cr, initial, 3)
	if cr.Stats.FalseSuspicions != 0 {
		t.Errorf("%d false suspicions over a synchronous network", cr.Stats.FalseSuspicions)
	}
	if v, _ := cr.Agreement(); v != 2 {
		t.Errorf("decided %d, want 2", v)
	}
}

func TestLiveRWSWithCrash(t *testing.T) {
	initial := vals(0, 5, 9)
	cr, err := RunCluster(consensus.FloodSetWS{}, EngineConfig{
		Kind: rounds.RWS, T: 1,
	}, initial, OpenOptions{Crashes: map[model.ProcessID]CrashPlan{1: {Round: 1, Reach: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	requireAgreementValidity(t, cr, initial, 2)
	// p1's value 0 died with it: survivors decide 5.
	if v, _ := cr.Agreement(); v != 5 {
		t.Errorf("decided %d, want 5", v)
	}
}

// TestLiveA1DisagreesInRWS is the flagship live demonstration: A1 run over
// a real asynchronous network whose data messages from p1 are slow (150ms)
// while failure detection is fast (25ms). p1 broadcasts, decides v1 via
// self-delivery, and crashes; its A1Val messages are still in flight when
// the survivors' detectors fire, so they fall back to p2's value — the
// §5.3 disagreement, live.
func TestLiveA1DisagreesInRWS(t *testing.T) {
	slowP1Data := func(from, to model.ProcessID, data []byte) time.Duration {
		env, err := wire.Decode(data)
		if err == nil && from == 1 && env.Kind == wire.KindA1Val {
			return 300 * time.Millisecond
		}
		return 500 * time.Microsecond
	}
	nw := NewChanNetwork(3, ChanConfig{Delay: slowP1Data})
	cr, err := RunCluster(consensus.A1{}, EngineConfig{
		Kind: rounds.RWS, T: 1,
		Network: nw,
		// A host stall long enough for p3 to suspect p2 leaves p3 undecided
		// after round 2, waiting on a p2 that decided and halted: bound that
		// wait so the stall fails the assertions below instead of hanging.
		WaitBound: 2 * time.Second,
	}, vals(3, 1, 2), OpenOptions{Crashes: map[model.ProcessID]CrashPlan{1: {Round: 2, Reach: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Outcome.Decided[0] || cr.Outcome.Decisions[0] != 3 || cr.Outcome.Nodes[0].DecidedAt != 1 {
		t.Fatalf("p1 in %+v, want decision 3 at round 1", cr.Outcome)
	}
	for i := 2; i <= 3; i++ {
		if !cr.Outcome.Decided[i-1] || cr.Outcome.Decisions[i-1] != 1 {
			t.Fatalf("p%d in %+v, want decision 1 (p2's value)", i, cr.Outcome)
		}
	}
	if _, st := cr.Agreement(); st != AgreementViolated {
		t.Errorf("agreement verdict %v, want violated (the paper's §5.3 scenario)", st)
	}
}

func TestLiveOverTCP(t *testing.T) {
	nw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	initial := vals(4, 2, 7)
	cr, err := RunCluster(consensus.FloodSet{}, EngineConfig{
		Kind: rounds.RS, T: 1,
		RoundDuration: 30 * time.Millisecond,
		Network:       nw,
	}, initial, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireAgreementValidity(t, cr, initial, 3)
	if v, _ := cr.Agreement(); v != 2 {
		t.Errorf("decided %d over TCP, want 2", v)
	}
}

// TestEngineRWSOverTCP: FloodSetWS under the heartbeat detector over real
// TCP connections, many instances at once. TCPNetwork reads each peer
// connection on its own goroutine, so a node's receive function runs
// concurrently here (run with -race): every instance must still agree, every
// node decide, and no detector suspect a live peer.
func TestEngineRWSOverTCP(t *testing.T) {
	const instances = 240
	reg := obs.NewRegistry()
	nw, err := NewTCPNetwork(3, WithTCPMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	outs, st, err := runInstances(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1,
		Network:         nw,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  time.Second,
		Metrics:         reg,
	}, instances, engineInitialFn)
	if err != nil {
		t.Fatal(err)
	}
	for inst, out := range outs {
		if _, verdict := out.Agreement(); verdict != AgreementReached {
			t.Errorf("instance %d: verdict %v", inst, verdict)
		}
		for id, decided := range out.Decided {
			if !decided {
				t.Errorf("instance %d: node %d undecided", inst, id+1)
			}
		}
	}
	if !st.DetectorWasPerfect {
		t.Errorf("detector not perfect over TCP: %d false suspicions, %d falsely suspected", st.FalseSuspicions, st.FalselySuspected)
	}
	if st.Completed != instances || st.WaitTimeouts != 0 || st.UnknownInstanceDrops != 0 {
		t.Errorf("completed %d of %d, %d wait timeouts, %d stray frames", st.Completed, instances, st.WaitTimeouts, st.UnknownInstanceDrops)
	}
}

// TestEngineConfigValidation: a config the engine cannot run is rejected
// before any goroutine starts, through StartEngine and RunCluster alike.
func TestEngineConfigValidation(t *testing.T) {
	before := goruntime.NumGoroutine()
	for name, cfg := range map[string]EngineConfig{
		"empty cluster":       {N: 0},
		"n past the 63 bound": {N: 64, T: 1},
		"unknown model kind":  {N: 2, T: 1, Kind: rounds.ModelKind(9)},
	} {
		cfg.Metrics = obs.NewRegistry()
		if _, err := StartEngine(consensus.FloodSet{}, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := RunCluster(consensus.FloodSet{}, EngineConfig{Kind: rounds.RS}, nil, OpenOptions{}); err == nil {
		t.Error("RunCluster accepted an empty cluster")
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Errorf("rejected configs left goroutines behind: %d before, %d after", before, after)
	}
}

func TestChanNetworkInboxOverflowDropsInsteadOfWedging(t *testing.T) {
	reg := obs.NewRegistry()
	// Buffer 1 and nobody receiving: the excess deliveries must land in the
	// dropped counter, not block the delivery goroutines (which would wedge
	// Close forever — the original bug).
	nw := NewChanNetwork(2, ChanConfig{MaxDelay: time.Millisecond, Buffer: 1, Metrics: reg})
	for i := 0; i < 50; i++ {
		if err := nw.Endpoint(1).Send(2, []byte("burst")); err != nil {
			t.Fatal(err)
		}
	}
	// Let the in-flight deliveries hit the full inbox before teardown
	// (Close aborts deliveries still waiting out their delay).
	droppedCounter := reg.Counter(obs.Label(netobs.MetricTransportMessagesDropped, "transport", "chan"))
	for deadline := time.Now().Add(5 * time.Second); droppedCounter.Value() == 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { _ = nw.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a full inbox")
	}
	dropped := reg.Counter(obs.Label(netobs.MetricTransportMessagesDropped, "transport", "chan")).Value()
	if dropped == 0 {
		t.Error("overflow left no trace in the dropped counter")
	}
}

func TestChanNetworkDelayHookDropCounted(t *testing.T) {
	reg := obs.NewRegistry()
	nw := NewChanNetwork(2, ChanConfig{
		Delay:   func(from, to model.ProcessID, data []byte) time.Duration { return -1 },
		Metrics: reg,
	})
	defer func() { _ = nw.Close() }()
	if err := nw.Endpoint(1).Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.Label(netobs.MetricTransportMessagesDropped, "transport", "chan")).Value(); got != 1 {
		t.Errorf("dropped counter = %d, want 1", got)
	}
}

func TestTCPReconnectAfterBreak(t *testing.T) {
	reg := obs.NewRegistry()
	nw, err := NewTCPNetwork(2, WithTCPMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nw.Close() }()

	recv := func(want string) {
		t.Helper()
		for {
			select {
			case pkt := <-nw.Endpoint(2).Recv():
				if string(pkt.Data) == want {
					return
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("timeout waiting for %q", want)
			}
		}
	}
	if err := nw.Endpoint(1).Send(2, []byte("before")); err != nil {
		t.Fatal(err)
	}
	recv("before")

	// Abruptly sever every established connection mid-conversation; the
	// writer must re-dial with backoff and the next frame must get through.
	nw.BreakConnections()
	if err := nw.Endpoint(1).Send(2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	recv("after")

	if rc := reg.Counter(obs.Label(netobs.MetricTransportReconnects, "transport", "tcp")).Value(); rc < 2 {
		t.Errorf("reconnects = %d, want >= 2 (initial dial + re-dial)", rc)
	}
}

func TestTCPPeerCloseMidStream(t *testing.T) {
	// The receiving side dying mid-round must not poison the sender: frames
	// to the dead peer queue behind a backing-off writer, and Send keeps
	// returning nil (never blocks, never errors a healthy caller).
	nw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nw.Close() }()
	if err := nw.Endpoint(1).Send(2, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-nw.Endpoint(2).Recv():
	case <-time.After(5 * time.Second):
		t.Fatal("timeout on warmup frame")
	}
	// Kill p2's listener so re-dials fail outright, then sever the link.
	_ = nw.listeners[2].Close()
	nw.BreakConnections()
	for i := 0; i < 20; i++ {
		if err := nw.Endpoint(1).Send(2, []byte("into the void")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Close must join the retrying writer goroutines promptly.
	done := make(chan struct{})
	go func() { _ = nw.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a retrying link")
	}
}

// TestTCPSendAfter: a frame sent with extra delay is delivered no sooner
// than that, and holds no goroutine while it waits; Close with a frame still
// held returns, and the held frame is never sent.
func TestTCPSendAfter(t *testing.T) {
	const extra = 20 * time.Millisecond
	nw, err := NewTCPNetwork(2, WithTCPMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	src := nw.Endpoint(1).(faults.Transport)
	sent := time.Now()
	if err := src.SendAfter(2, []byte("held"), extra); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-nw.Endpoint(2).Recv():
		if waited := time.Since(sent); string(pkt.Data) != "held" || waited < extra {
			t.Errorf("got %q after %v, want %q after ≥ %v", pkt.Data, waited, "held", extra)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held frame never arrived")
	}

	before := goruntime.NumGoroutine()
	if err := src.SendAfter(2, []byte("late"), 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Errorf("a held frame started %d goroutines", after-before)
	}
	closed := make(chan struct{})
	go func() { _ = nw.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a held frame")
	}
	if tot := nw.Telemetry().Totals(); tot.MsgsSent != 1 {
		t.Errorf("%d frames sent, want 1: the frame held past Close must be refused", tot.MsgsSent)
	}
	if err := src.SendAfter(2, []byte("x"), extra); err != ErrClosed {
		t.Errorf("SendAfter after Close = %v, want ErrClosed", err)
	}
}

func TestTCPConcurrentCloseAndSend(t *testing.T) {
	// Race exercise: senders hammering the mesh while Close tears it down.
	// Run with -race; correctness here is "no panic, no deadlock, everything
	// joins".
	nw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 1; s <= 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				to := model.ProcessID(i%3 + 1)
				if to == model.ProcessID(s) {
					continue
				}
				if err := nw.Endpoint(model.ProcessID(s)).Send(to, []byte("spray")); err != nil && err != ErrClosed {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	time.Sleep(2 * time.Millisecond)
	_ = nw.Close()
	wg.Wait()
	_ = nw.Close() // idempotent
}

// TestHeartbeatFDAdaptiveTimeoutGrowsAndCaps: in adaptive mode every
// retraction doubles the retracted peer's suspicion window, up to 64× its
// initial value. An 800µs window reaches its 51.2ms cap at the sixth
// retraction and stays there at the seventh.
func TestHeartbeatFDAdaptiveTimeoutGrowsAndCaps(t *testing.T) {
	const initial = 800 * time.Microsecond
	nw := NewChanNetwork(2, ChanConfig{})
	defer func() { _ = nw.Close() }()
	fd := NewHeartbeatFD(DetectorConfig{
		Transport: nw.Endpoint(1), N: 2, Period: time.Millisecond, Timeout: initial, Adaptive: true,
	})
	// Never started: we drive liveness evidence by hand.
	alive := wire.Envelope{From: 2, Kind: wire.KindHeartbeat}
	const retractions = 7
	want := initial
	for k := 1; k <= retractions; k++ {
		fd.Observe(alive)
		time.Sleep(want + time.Millisecond)
		if s := fd.Suspects(); !s.Has(2) {
			t.Fatalf("retraction %d: p2 not suspected after silence: %v", k, s)
		}
		fd.Observe(alive) // p2 shows life: the suspicion was false
		if s := fd.Suspects(); s.Has(2) {
			t.Fatalf("retraction %d: suspicion not retracted: %v", k, s)
		}
		want = min(2*want, 64*initial)
		if got := fd.Window(2); got != want {
			t.Fatalf("timeout after retraction %d = %v, want %v", k, got, want)
		}
	}
	if got := fd.FalseSuspicions(); got != retractions {
		t.Errorf("FalseSuspicions = %d, want %d", got, retractions)
	}
	if ever := fd.EverSuspected(); !ever.Has(2) {
		t.Errorf("sticky audit lost the suspicion: %v", ever)
	}
}

// TestHeartbeatFDStopIdempotent pins the lifecycle contract every zoo
// detector inherits from DetectorCore: Stop before Start is a no-op,
// repeated Stops don't panic or hang, and a stopped detector cannot be
// restarted (its broadcaster would outlive a "crashed" node otherwise).
func TestHeartbeatFDStopIdempotent(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{})
	defer func() { _ = nw.Close() }()

	// Stop without Start: must return immediately, twice.
	cfg := DetectorConfig{N: 2, Period: time.Millisecond, Timeout: 5 * time.Millisecond}
	cfg.Transport = nw.Endpoint(1)
	cold := NewHeartbeatFD(cfg)
	cold.Stop()
	cold.Stop()
	// Start after Stop must not revive the broadcaster.
	cold.Start()
	cold.Stop() // joins nothing; would hang if a goroutine had leaked past the guard

	// The normal path: Start, then double Stop.
	cfg.Transport = nw.Endpoint(2)
	fd := NewHeartbeatFD(cfg)
	fd.Start()
	time.Sleep(3 * time.Millisecond)
	fd.Stop()
	fd.Stop()
}

func TestRunClusterFaultsVerdict(t *testing.T) {
	// A partition longer than the run: the detector falsely suspects p3 (it
	// never crashed), the sticky audit catches it, and the verdict flips —
	// while consensus still terminates on every node.
	cr, err := RunCluster(consensus.FloodSetWS{}, EngineConfig{
		Kind: rounds.RWS, T: 1,
		Faults: &faults.Config{
			Seed:       3,
			Partitions: []faults.Partition{{Start: 0, End: time.Second, Group: model.Singleton(3)}},
			Metrics:    obs.NewRegistry(),
		},
		WaitBound: 100 * time.Millisecond,
	}, vals(4, 2, 7), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Stats.DetectorWasPerfect {
		t.Error("verdict claims perfection across a partition longer than the timeout")
	}
	if cr.Stats.FalselySuspected == 0 {
		t.Error("sticky audit counted no false suspicions")
	}
	for i, decided := range cr.Outcome.Decided {
		if !decided {
			t.Errorf("p%d did not terminate", i+1)
		}
	}
	if len(cr.PartitionLog) == 0 {
		t.Error("partition log empty")
	}

	// And the control: no faults, the verdict stays perfect.
	cr, err = RunCluster(consensus.FloodSetWS{}, EngineConfig{
		Kind: rounds.RWS, T: 1,
	}, vals(4, 2, 7), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Stats.DetectorWasPerfect || cr.Stats.FalseSuspicions != 0 || cr.Stats.FalselySuspected != 0 {
		t.Errorf("clean run not perfect: %+v", cr)
	}
}
