package fdimpl

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// TestCrashOnMultiplexedMesh is the zoo half of the runtime's crash-on-mesh
// acceptance run (the heartbeat half lives in internal/runtime, which this
// package imports): n=5, t=2, FloodSetWS, 200 instances in flight over two
// workers, node 2 crash-stopping at round 2 of instance 50 having reached
// one peer. Every instance must complete on suspicion alone (no WaitBound
// expiry), decided nodes agree on a proposed value, node 2 decides nothing
// once crashed, 50 later instances still decide, and the shared detectors
// stay perfect. For the bounded ◇P the per-link send bound — the
// construction's claim about behaviour under crashes — is then checked on
// the quiet mesh through the network's per-link counters.
func TestCrashOnMultiplexedMesh(t *testing.T) {
	const (
		n, inFlight, after = 5, 200, 50
		victim             = model.ProcessID(2)
		timeout            = 500 * time.Millisecond
	)
	for _, spec := range []*runtime.DetectorSpec{BoundedDetector(), RingDetector()} {
		t.Run(spec.Name, func(t *testing.T) {
			goruntime.GC()
			before := goruntime.NumGoroutine()
			reg := obs.NewRegistry()
			nw := runtime.NewChanNetwork(n, runtime.ChanConfig{MaxDelay: time.Millisecond, Buffer: 1 << 15, Metrics: reg})
			e, err := runtime.StartEngine(consensus.FloodSetWS{}, runtime.EngineConfig{
				N: n, T: 2, Groups: 2, Network: nw, Detector: spec,
				HeartbeatPeriod: 5 * time.Millisecond, SuspectTimeout: timeout,
				Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			proposal := func(inst int, id model.ProcessID) model.Value { return model.Value(inst*10 + int(id)) }
			open := func(inst int) *runtime.Instance {
				var opts runtime.OpenOptions
				if inst == 50 {
					opts.Crashes = map[model.ProcessID]runtime.CrashPlan{victim: {Round: 2, Reach: 1}}
				}
				h, err := e.OpenWith(func(id model.ProcessID) model.Value { return proposal(inst, id) }, opts)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			check := func(inst int, h *runtime.Instance, victimGone bool) {
				<-h.Done()
				out, _ := h.Outcome()
				v, st := out.Agreement()
				if st != runtime.AgreementReached || v < proposal(inst, 1) || v > proposal(inst, n) {
					t.Errorf("instance %d: agreement (%d,%v), want a proposed value", inst, int64(v), st)
				}
				if out.WaitTimeouts != 0 {
					t.Errorf("instance %d: %d WaitBound expiries", inst, out.WaitTimeouts)
				}
				for id := model.ProcessID(1); id <= n; id++ {
					nd, decided := out.Nodes[id-1], out.Decided[id-1]
					switch {
					case id != victim && (nd.Crashed || !decided):
						t.Errorf("instance %d: survivor p%d outcome %+v decided=%v", inst, id, nd, decided)
					case id == victim && victimGone && (!nd.Crashed || decided):
						t.Errorf("instance %d: p%d outcome %+v decided=%v, want crashed and undecided", inst, id, nd, decided)
					}
				}
			}
			handles := make([]*runtime.Instance, inFlight)
			for inst := range handles {
				handles[inst] = open(inst)
			}
			for inst, h := range handles {
				check(inst, h, inst == 50)
			}
			for inst := inFlight; inst < inFlight+after; inst++ {
				check(inst, open(inst), true)
			}
			if st := e.Stats(); !st.DetectorWasPerfect || st.WaitTimeouts != 0 || st.AgreementReached != inFlight+after {
				t.Errorf("stats after the crash = %+v, want a perfect %s detector and %d agreeing instances",
					st, spec.Name, inFlight+after)
			}

			if spec.Name == "bounded" {
				// Quiet mesh, one crashed peer: a link into the victim carries
				// one ping per suspicion bound (resend only on expiry), where a
				// heartbeat would spend window/period = 60; the victim's own
				// links carry nothing at all.
				const window = 300 * time.Millisecond
				sent := func() map[netobs.Link]netobs.LinkTotals { return nw.Telemetry().PerLink() }
				time.Sleep(20 * time.Millisecond) // let the last round's frames drain
				t0 := sent()
				time.Sleep(window)
				t1 := sent()
				for id := model.ProcessID(1); id <= n; id++ {
					if id == victim {
						continue
					}
					in, out := netobs.Link{From: id, To: victim}, netobs.Link{From: victim, To: id}
					if d := t1[in].MsgsSent - t0[in].MsgsSent; d > int64(window/timeout)+2 {
						t.Errorf("link %v: %d sends to the crashed peer in %v, bound %d", in, d, window, int64(window/timeout)+2)
					}
					if d := t1[out].MsgsSent - t0[out].MsgsSent; d != 0 {
						t.Errorf("link %v: crash-stopped node sent %d messages", out, d)
					}
				}
			}

			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if now := goruntime.NumGoroutine(); now > before {
				t.Errorf("goroutines leaked: %d before, %d after Close", before, now)
			}
		})
	}
}
