package fdimpl

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// TestBoundedMessagesStayBoundedUnderSustainedLoss is the acceptance
// check for the ADD-channel claim: with EVERY message lost, the bounded
// detector's send rate per link must collapse to ~1 per suspicion bound
// (resend-only-on-timeout), not the heartbeat's 1 per period — verified
// through the network's per-link counters, which count sends before the
// loss hook eats them.
func TestBoundedMessagesStayBoundedUnderSustainedLoss(t *testing.T) {
	const (
		period = 2 * time.Millisecond
		bound  = 16 * time.Millisecond
		window = 400 * time.Millisecond
	)
	nw := runtime.NewChanNetwork(2, runtime.ChanConfig{
		// Total sustained loss: everything is sent, nothing is delivered.
		Delay: func(from, to model.ProcessID, data []byte) time.Duration { return -1 },
	})
	defer func() { _ = nw.Close() }()
	spec := BoundedDetector()
	dets := make([]runtime.Detector, 3)
	for i := 1; i <= 2; i++ {
		d, err := spec.New(runtime.DetectorConfig{
			Transport: nw.Endpoint(model.ProcessID(i)), N: 2, Period: period, Timeout: bound,
		})
		if err != nil {
			t.Fatal(err)
		}
		dets[i] = d
	}
	dets[1].Start()
	dets[2].Start()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		dets[1].Suspects()
		time.Sleep(period)
	}
	dets[1].Stop()
	dets[2].Stop()

	// Completeness first: total loss is indistinguishable from a crash.
	if !dets[1].Suspects().Has(2) {
		t.Error("peer not suspected under total loss")
	}

	// The bound: one ping at bound/2 silence, then one resend per bound.
	// The heartbeat construction would have sent ~window/period ≈ 200.
	budget := int64(window/bound) + 5
	for _, l := range []netobs.Link{{From: 1, To: 2}, {From: 2, To: 1}} {
		sent := nw.Telemetry().PerLink()[l].MsgsSent
		if sent == 0 {
			t.Errorf("link %v: no probes at all", l)
		}
		if sent > budget {
			t.Errorf("link %v: %d sends under sustained loss, budget %d (unbounded resending?)", l, sent, budget)
		}
	}
}

// TestBoundedRetractionGrowsLinkBound is the adaptive-retraction contract
// (run under -race in CI): a falsely suspected peer whose evidence resumes
// must leave Suspects, count one retraction, and double that link's bound,
// up to 64× the initial one — an 800µs bound caps at 51.2ms at the sixth
// retraction and stays there at the seventh.
func TestBoundedRetractionGrowsLinkBound(t *testing.T) {
	const initial = 800 * time.Microsecond
	nw := runtime.NewChanNetwork(2, runtime.ChanConfig{})
	defer func() { _ = nw.Close() }()
	d, err := BoundedDetector().New(runtime.DetectorConfig{
		Transport: nw.Endpoint(1), N: 2, Period: time.Millisecond, Timeout: initial,
	})
	if err != nil {
		t.Fatal(err)
	}
	fd := d.(*BoundedFD)
	// Never started: liveness evidence is driven by hand.
	alive := wire.Envelope{From: 2, Kind: wire.KindHeartbeat}
	const retractions = 7
	want := initial
	for k := 1; k <= retractions; k++ {
		fd.Observe(alive)
		time.Sleep(want + time.Millisecond)
		if s := fd.Suspects(); !s.Has(2) {
			t.Fatalf("retraction %d: p2 not suspected after silence: %v", k, s)
		}
		fd.Observe(alive) // late evidence: the suspicion was false
		if s := fd.Suspects(); s.Has(2) {
			t.Fatalf("retraction %d: suspicion not retracted: %v", k, s)
		}
		want = min(2*want, 64*initial)
		if got := fd.Window(2); got != want {
			t.Fatalf("link bound after retraction %d = %v, want %v", k, got, want)
		}
	}
	if got := fd.FalseSuspicions(); got != retractions {
		t.Errorf("FalseSuspicions = %d, want %d", got, retractions)
	}
	if ever := fd.EverSuspected(); !ever.Has(2) {
		t.Errorf("sticky audit lost the suspicion: %v", ever)
	}
	fd.Stop() // never started: must still be a safe no-op
}

// TestBoundedPingAckConversation: with no data traffic at all, liveness is
// sustained purely by the ping/ack conversation — and stays cheaper than a
// heartbeat stream. The 5 ms / 500 ms timing is the engine tests': the bound
// has to outlast a stall of the (shared, bursty) test host, or the stall
// itself is a suspicion.
func TestBoundedPingAckConversation(t *testing.T) {
	const (
		period = 5 * time.Millisecond
		bound  = 500 * time.Millisecond
		window = 3 * bound
	)
	z := startZoo(t, BoundedDetector(), 2, 5, nil, period, bound)
	defer z.Close()
	soak := time.Now().Add(window)
	for time.Now().Before(soak) {
		for i := 1; i <= 2; i++ {
			if s := z.Detectors[i].Suspects(); !s.Empty() {
				t.Fatalf("observer %d falsely suspects %v on a healthy network", i, s)
			}
		}
		time.Sleep(period)
	}
	fd := z.Detectors[1].(*BoundedFD)
	if fd.LinkPings(2) == 0 {
		t.Error("no pings on a silent link: liveness evidence came from nowhere")
	}
	if fd.Window(2) != bound {
		t.Errorf("bound moved to %v without any retraction", fd.Window(2))
	}
	cost := z.Stats().Cost
	msgs, bytes := cost.ControlMessages, cost.ControlBytes
	if msgs == 0 || bytes == 0 {
		t.Errorf("control accounting empty: msgs=%d bytes=%d", msgs, bytes)
	}
	// Ping at bound/2 silence ⇒ at most ~2 conversations (4 messages) per
	// bound per direction, 24 over the window; a heartbeat pair would have
	// sent window/period × 2 = 600.
	if budget := int64(window/bound)*8 + 8; msgs > budget {
		t.Errorf("%d control messages in %v (budget %d): not meaningfully cheaper than heartbeats", msgs, window, budget)
	}
}
