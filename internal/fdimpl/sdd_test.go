package fdimpl

import (
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/wire"
)

// TestSDDRequiresTwoProcesses: the harness is definitionally two-process.
func TestSDDRequiresTwoProcesses(t *testing.T) {
	nw := runtime.NewChanNetwork(3, runtime.ChanConfig{})
	defer func() { _ = nw.Close() }()
	_, err := SDDDetector().New(runtime.DetectorConfig{
		Transport: nw.Endpoint(1), N: 3, Period: time.Millisecond, Timeout: 10 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "2 processes") {
		t.Fatalf("n=3 accepted (err = %v)", err)
	}
}

// TestSDDBoundaryWindow drives the peer's silence into the SS/SP gap by
// hand and checks the harness's measurement: the SS window fires (an SS
// system would act), the operational SP set stays empty (SP cannot tell
// slow from crashed yet), and every poll in the gap is counted.
func TestSDDBoundaryWindow(t *testing.T) {
	nw := runtime.NewChanNetwork(2, runtime.ChanConfig{})
	defer func() { _ = nw.Close() }()
	d, err := SDDDetector().New(runtime.DetectorConfig{
		Transport: nw.Endpoint(1), N: 2, Period: time.Millisecond, Timeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fd := d.(*SDDFD)
	if ss, sp := fd.Windows(); ss != 10*time.Millisecond || sp != 40*time.Millisecond {
		t.Fatalf("windows = (%v, %v), want (10ms, 40ms)", ss, sp)
	}

	// Fresh evidence: neither window fires.
	fd.Observe(wire.Envelope{From: 2, Kind: wire.KindHeartbeat})
	if s := fd.Suspects(); !s.Empty() {
		t.Fatalf("suspected %v with fresh evidence", s)
	}
	if fd.BoundaryPolls() != 0 {
		t.Fatalf("boundary polls = %d before any silence", fd.BoundaryPolls())
	}

	// Silence into the gap: past SS (10ms), short of SP (40ms).
	time.Sleep(15 * time.Millisecond)
	if s := fd.Suspects(); !s.Empty() {
		t.Fatalf("SP suspected %v inside the gap", s)
	}
	if fd.BoundaryPolls() == 0 {
		t.Error("gap poll not counted")
	}
	if fd.SSRaises() != 1 {
		t.Errorf("SS raises = %d, want 1", fd.SSRaises())
	}

	// Silence past SP: the operational detector finally suspects.
	time.Sleep(30 * time.Millisecond)
	if s := fd.Suspects(); !s.Has(2) {
		t.Fatalf("peer not suspected past the SP window: %v", s)
	}

	// Late evidence: retraction, and the gap accounting resets with it.
	fd.Observe(wire.Envelope{From: 2, Kind: wire.KindHeartbeat})
	if s := fd.Suspects(); !s.Empty() {
		t.Fatalf("suspicion not retracted: %v", s)
	}
	if fd.FalseSuspicions() != 1 {
		t.Errorf("FalseSuspicions = %d, want 1", fd.FalseSuspicions())
	}
	// Irrelevant senders are ignored.
	before := fd.BoundaryPolls()
	fd.Observe(wire.Envelope{From: 9, Kind: wire.KindHeartbeat})
	if got := fd.BoundaryPolls(); got != before {
		t.Errorf("foreign envelope moved the accounting: %d → %d", before, got)
	}
	fd.Stop() // never started: safe no-op
}

// TestSDDLiveBoundary runs the harness live over a fault-free network: the
// windows must agree (no boundary polls at all) until the peer crashes,
// after which both fire and the gap is traversed exactly once.
func TestSDDLiveBoundary(t *testing.T) {
	// An SS window of 200 ms (SP window 800 ms) sits above the 60–130 ms
	// stalls this host shows: a shorter one counts a stall as a boundary poll.
	// The soak spans three SS windows, so a peer that sent no heartbeats
	// would be caught by it.
	z := startZoo(t, SDDDetector(), 2, 17, nil, 2*time.Millisecond, 200*time.Millisecond)
	defer z.Close()
	soak := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(soak) {
		for i := 1; i <= 2; i++ {
			if s := z.Detectors[i].Suspects(); !s.Empty() {
				t.Fatalf("observer %d suspects %v on a healthy network", i, s)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	fd1 := z.Detectors[1].(*SDDFD)
	if got := fd1.BoundaryPolls(); got != 0 {
		t.Errorf("%d boundary polls over a network honoring its bounds", got)
	}

	z.Detectors[2].Stop()
	if !awaitSuspicion(z.Detectors[1], 2, 2*time.Second) {
		t.Fatal("crashed peer never suspected")
	}
	// The silence grew through the gap on its way to the SP window, so the
	// boundary counter must have seen it.
	if fd1.BoundaryPolls() == 0 {
		t.Error("the SS/SP gap was never observed on the way to detection")
	}
	if fd1.FalseSuspicions() != 0 {
		t.Errorf("%d false suspicions for a real crash", fd1.FalseSuspicions())
	}
}
