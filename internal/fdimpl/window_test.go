package fdimpl

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// windowed is what every construction inherits from runtime.DetectorCore
// beyond the Detector interface: the peer's current suspicion window.
type windowed interface {
	runtime.Detector
	Window(j model.ProcessID) time.Duration
}

// newUnstarted builds observer p1's detector of spec over a fresh n-node
// mesh; liveness evidence is then driven by hand through Observe.
func newUnstarted(t *testing.T, spec *runtime.DetectorSpec, n int, period, timeout time.Duration) windowed {
	t.Helper()
	nw := runtime.NewChanNetwork(n, runtime.ChanConfig{})
	t.Cleanup(func() { _ = nw.Close() })
	d, err := spec.New(runtime.DetectorConfig{
		Transport: nw.Endpoint(1), N: n, Period: period, Timeout: timeout,
		Adaptive: true, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.(windowed)
}

// TestSilentPeerStaysSuspectedAcrossRetraction: adaptive windows grow per
// peer. p2 and p3 fall silent and are both suspected; then p2 shows life.
// Its retraction doubles p2's window only, so the still-silent p3 stays
// suspected on every later poll, only p2's suspicion counts as false, and
// p3's window is the initial one. A window shared by all peers would retract
// p3 on the next poll with no evidence at all.
func TestSilentPeerStaysSuspectedAcrossRetraction(t *testing.T) {
	const initial = 50 * time.Millisecond
	for _, spec := range []*runtime.DetectorSpec{runtime.HeartbeatDetector(), BoundedDetector(), RingDetector()} {
		t.Run(spec.Name, func(t *testing.T) {
			fd := newUnstarted(t, spec, 3, time.Millisecond, initial)
			fd.Observe(wire.Envelope{From: 2, Kind: wire.KindHeartbeat})
			fd.Observe(wire.Envelope{From: 3, Kind: wire.KindHeartbeat})
			time.Sleep(initial + 10*time.Millisecond)
			if s := fd.Suspects(); !s.Has(2) || !s.Has(3) {
				t.Fatalf("suspects %v after both peers fell silent, want {2, 3}", s)
			}
			fd.Observe(wire.Envelope{From: 2, Kind: wire.KindHeartbeat}) // p2 shows life
			for k := 1; k <= 3; k++ {
				s := fd.Suspects()
				if s.Has(2) {
					t.Fatalf("poll %d: p2's suspicion not retracted: %v", k, s)
				}
				if !s.Has(3) {
					t.Fatalf("poll %d: silent p3 no longer suspected after p2's retraction: %v", k, s)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if got := fd.FalseSuspicions(); got != 1 {
				t.Errorf("FalseSuspicions = %d, want 1 (p2 only)", got)
			}
			if got := fd.Window(2); got != 2*initial {
				t.Errorf("p2's window = %v, want %v", got, 2*initial)
			}
			if got := fd.Window(3); got != initial {
				t.Errorf("silent p3's window = %v, want the initial %v", got, initial)
			}
		})
	}
}

// TestConcurrentPollsGrowOncePerRetraction: several goroutines poll
// Suspects while others Observe and the construction's own ticker runs;
// bursts of evidence alternate with silences longer than the peer's current
// window. However the pollers interleave, each retraction edge doubles the
// window exactly once (sdd's SP window never grows), so the final window is
// the initial one doubled once per false suspicion, up to the 64× cap. Run
// it under -race.
func TestConcurrentPollsGrowOncePerRetraction(t *testing.T) {
	const (
		period  = 100 * time.Microsecond
		initial = 500 * time.Microsecond
		bursts  = 5
	)
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			fd := newUnstarted(t, spec, 2, period, initial)
			w0 := fd.Window(2)
			fd.Start()
			stop := make(chan struct{})
			var pollers sync.WaitGroup
			for i := 0; i < 4; i++ {
				pollers.Add(1)
				go func() {
					defer pollers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						fd.Suspects()
						time.Sleep(20 * time.Microsecond)
					}
				}()
			}
			alive := wire.Envelope{From: 2, Kind: wire.KindHeartbeat}
			for b := 0; b < bursts; b++ {
				var observers sync.WaitGroup
				for i := 0; i < 2; i++ {
					observers.Add(1)
					go func() {
						defer observers.Done()
						for k := 0; k < 10; k++ {
							fd.Observe(alive)
							time.Sleep(50 * time.Microsecond)
						}
					}()
				}
				observers.Wait()
				time.Sleep(fd.Window(2) + time.Millisecond) // silence past the window
			}
			fd.Observe(alive)
			time.Sleep(time.Millisecond) // let the pollers retract the last silence
			close(stop)
			pollers.Wait()
			fd.Stop()

			fs := fd.FalseSuspicions()
			if fs == 0 {
				t.Fatal("no retraction at all: the silences were never suspected")
			}
			want := w0
			if spec.Name != "sdd" {
				for k := int64(0); k < fs; k++ {
					want = min(2*want, 64*w0)
				}
			}
			if got := fd.Window(2); got != want {
				t.Errorf("window after %d retractions = %v, want %v (initial %v)", fs, got, want, w0)
			}
		})
	}
}
