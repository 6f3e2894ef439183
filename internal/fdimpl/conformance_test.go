package fdimpl

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// confN is the cluster size each construction is conformance-checked at:
// the sdd harness is definitionally two-process, the rest race at 3.
func confN(spec *runtime.DetectorSpec) int {
	if spec.Name == "sdd" {
		return 3 - 1
	}
	return 3
}

// TestConformanceFaultFree is the zoo's shared perfection suite: over a
// synchronous fault-free network every construction must behave as a
// perfect detector — no false suspicions while everyone is alive (strong
// accuracy), and a crash-stopped member suspected by every live observer
// (strong completeness) with zero retractions afterwards.
func TestConformanceFaultFree(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			n := confN(spec)
			z := startZoo(t, spec, n, 11, nil, 2*time.Millisecond, 30*time.Millisecond)
			defer z.Close()

			// Accuracy phase: nobody crashed, nobody may be suspected.
			soak := time.Now().Add(120 * time.Millisecond)
			for time.Now().Before(soak) {
				for i := 1; i <= n; i++ {
					if s := z.Detectors[i].Suspects(); !s.Empty() {
						t.Fatalf("observer %d falsely suspects %v with everyone alive", i, s)
					}
				}
				time.Sleep(2 * time.Millisecond)
			}

			// Completeness phase: the highest id crash-stops.
			victim := model.ProcessID(n)
			z.Detectors[victim].Stop()
			for i := 1; i < n; i++ {
				if !awaitSuspicion(z.Detectors[i], victim, 2*time.Second) {
					t.Errorf("observer %d never suspected crashed %d", i, victim)
				}
			}
			for i := 1; i < n; i++ {
				if got := z.Detectors[i].FalseSuspicions(); got != 0 {
					t.Errorf("observer %d: %d false suspicions over a fault-free synchronous network", i, got)
				}
				if ever := z.Detectors[i].EverSuspected(); !ever.Has(victim) || ever.Count() != 1 {
					t.Errorf("observer %d sticky audit = %v, want exactly {%d}", i, ever, victim)
				}
			}
		})
	}
}

// TestConformanceUnderChaos drives the E14-grade adversary — loss,
// duplication and delay spikes on every link — and checks the half of
// perfection the zoo must NOT lose: strong completeness. A crash-stopped
// member is eventually suspected by every live observer no matter the
// chaos; accuracy (false suspicions, retractions) is allowed to degrade
// and is what E15 scores.
func TestConformanceUnderChaos(t *testing.T) {
	chaos := &faults.Config{
		Default: faults.LinkFaults{
			Drop:      0.25,
			Duplicate: 0.10,
			Spike:     0.30,
			SpikeMin:  2 * time.Millisecond,
			SpikeMax:  5 * time.Millisecond,
		},
	}
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			n := confN(spec)
			z := startZoo(t, spec, n, 23, chaos, 2*time.Millisecond, 25*time.Millisecond)
			defer z.Close()

			// Let the adversary and the adaptive bounds fight for a while;
			// polling drives edge accounting (and adaptive growth).
			soak := time.Now().Add(100 * time.Millisecond)
			for time.Now().Before(soak) {
				for i := 1; i <= n; i++ {
					z.Detectors[i].Suspects()
				}
				time.Sleep(2 * time.Millisecond)
			}

			victim := model.ProcessID(n)
			z.Detectors[victim].Stop()
			for i := 1; i < n; i++ {
				if !awaitSuspicion(z.Detectors[i], victim, 5*time.Second) {
					t.Errorf("completeness lost under chaos: observer %d never suspected crashed %d", i, victim)
				}
			}
		})
	}
}

// TestCrashStopSilence: a stopped detector is a crash-stopped process, for
// every construction alike — the rule lives in DetectorCore.Send. Once Stop
// returns the victim's outgoing links carry nothing more, neither on its own
// tick nor in reply to the peers that keep talking to it (a ping is also fed
// in by hand, for the construction that answers), and Start cannot revive it.
func TestCrashStopSilence(t *testing.T) {
	const period = 2 * time.Millisecond
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			goruntime.GC()
			before := goruntime.NumGoroutine()
			n := confN(spec)
			z := startZoo(t, spec, n, 31, nil, period, 30*time.Millisecond)
			defer z.Close()
			victim := model.ProcessID(n)
			outgoing := func() (sent int64) {
				for l, tot := range z.Network.Telemetry().PerLink() {
					if l.From == victim {
						sent += tot.MsgsSent
					}
				}
				return sent
			}
			for deadline := time.Now().Add(2 * time.Second); outgoing() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("precondition: the victim never sent anything while alive")
				}
				time.Sleep(period)
			}

			z.Detectors[victim].Stop()
			silent := outgoing()
			for end := time.Now().Add(25 * period); time.Now().Before(end); time.Sleep(period) {
				z.Detectors[victim].Observe(wire.Envelope{From: 1, To: victim, Kind: wire.KindFDPing})
			}
			if got := outgoing(); got != silent {
				t.Errorf("crash-stopped p%d sent %d messages after Stop returned", victim, got-silent)
			}

			// With every peer stopped too the shared counter is the victim's
			// alone: Start after Stop spawns nothing and sends nothing.
			z.Close()
			sent := z.Metrics.Counter(obs.Label(runtime.MetricHeartbeatsSent, "detector", spec.Name))
			quiet := sent.Value()
			z.Detectors[victim].Start()
			z.Detectors[victim].Observe(wire.Envelope{From: 1, To: victim, Kind: wire.KindFDPing})
			time.Sleep(5 * period)
			if got := sent.Value(); got != quiet {
				t.Errorf("%s moved by %d after every detector stopped", runtime.MetricHeartbeatsSent, got-quiet)
			}
			if got := outgoing(); got != silent {
				t.Errorf("p%d sent %d messages after Start-after-Stop", victim, got-silent)
			}
			deadline := time.Now().Add(2 * time.Second)
			for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if now := goruntime.NumGoroutine(); now > before {
				t.Errorf("goroutines: %d before the mesh, %d after Close and a late Start", before, now)
			}
		})
	}
}
