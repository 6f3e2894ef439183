package fdimpl

import (
	"testing"
	"time"

	"repro/internal/model"
)

// TestRingMessageRateIsLinear pins the construction's reason to exist:
// cluster-wide control traffic is one digest per member per period — O(n)
// — where the all-to-all heartbeat pays n(n−1).
func TestRingMessageRateIsLinear(t *testing.T) {
	const (
		n      = 4
		period = 2 * time.Millisecond
		window = 200 * time.Millisecond
	)
	z := startZoo(t, RingDetector(), n, 3, nil, period, 30*time.Millisecond)
	defer z.Close()
	time.Sleep(window)
	z.Close() // stop the forwarders before reading the accounting

	msgs := z.Stats().Cost.ControlMessages
	periods := int64(window / period)
	// One digest per member per period, with scheduling slack; the
	// heartbeat construction would be n(n−1) = 12 per period.
	budget := periods * (n + 1)
	if msgs == 0 {
		t.Fatal("ring sent nothing")
	}
	if msgs > budget {
		t.Errorf("ring sent %d control messages in %d periods (budget %d): not O(n)", msgs, periods, budget)
	}
}

// TestRingReroutesAroundCrashedSuccessor: p1's successor p2 crash-stops.
// p1 must (a) suspect p2, (b) reroute its digest to p3 so that p3 keeps
// seeing p1 fresh — p3's suspicion set must converge to exactly {p2}. The
// 5 ms / 500 ms timing is the engine tests': the stall window has to outlast
// a stall of the (shared, bursty) test host, or the stall itself is a
// suspicion.
func TestRingReroutesAroundCrashedSuccessor(t *testing.T) {
	const (
		period = 5 * time.Millisecond
		stall  = 500 * time.Millisecond
	)
	z := startZoo(t, RingDetector(), 3, 9, nil, period, stall)
	defer z.Close()

	// Healthy soak: freshness circulates, nobody suspected.
	soak := time.Now().Add(2 * stall)
	for time.Now().Before(soak) {
		for i := 1; i <= 3; i++ {
			if s := z.Detectors[i].Suspects(); !s.Empty() {
				t.Fatalf("observer %d falsely suspects %v on a healthy ring", i, s)
			}
		}
		time.Sleep(period)
	}

	z.Detectors[2].Stop() // p2, p1's ring successor, crash-stops
	if !awaitSuspicion(z.Detectors[1], 2, 10*stall) {
		t.Fatal("p1 never suspected its crashed successor")
	}
	if !awaitSuspicion(z.Detectors[3], 2, 10*stall) {
		t.Fatal("p3 never suspected p2")
	}

	// With the ring healed (p1 → p3 directly), p1's freshness must keep
	// flowing: p3 may not accumulate a false suspicion of p1. Until the crash
	// p3 heard of p1 through p2, so without the reroute that suspicion would
	// fall due about now; watch for longer than one more stall window.
	heal := time.Now().Add(stall + stall/2)
	for time.Now().Before(heal) {
		if s := z.Detectors[3].Suspects(); s.Has(1) {
			t.Fatalf("p3 falsely suspects live p1 after reroute: %v", s)
		}
		z.Detectors[1].Suspects() // keep p1's edge accounting moving too
		time.Sleep(period)
	}
	fd1 := z.Detectors[1].(*RingFD)
	if fd1.Reroutes() == 0 {
		t.Error("p1 never rerouted past its crashed successor")
	}
	if fd1.Forwards() == 0 {
		t.Error("p1 forwarded nothing")
	}
	for j := 2; j <= 3; j++ {
		if w := fd1.Window(model.ProcessID(j)); w < stall {
			t.Errorf("p%d's stall window shrank to %v", j, w)
		}
	}
}
