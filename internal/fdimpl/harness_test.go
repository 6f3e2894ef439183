package fdimpl

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// zoo is n detectors of one construction on an engine that never opens an
// instance: the nodes' receive functions feed them and nothing runs on top.
type zoo struct {
	*runtime.Engine
	Detectors []runtime.Detector // by process id; [0] is nil
	Network   *runtime.ChanNetwork
	Metrics   *obs.Registry
}

// startZoo starts a zoo of n detectors built by spec over a seeded network,
// optionally behind a fault injector. Callers must defer z.Close().
func startZoo(t *testing.T, spec *runtime.DetectorSpec, n int, seed int64, chaos *faults.Config,
	period, timeout time.Duration) *zoo {
	t.Helper()
	z := &zoo{Detectors: make([]runtime.Detector, n+1), Metrics: obs.NewRegistry()}
	z.Network = runtime.NewChanNetwork(n, runtime.ChanConfig{Seed: seed, Metrics: z.Metrics})
	cfg := runtime.EngineConfig{
		N: n, Groups: 1, Network: z.Network,
		HeartbeatPeriod: period, SuspectTimeout: timeout,
		Detector: Filed(spec, z.Detectors), AdaptiveTimeout: true,
		Metrics: z.Metrics,
	}
	if chaos != nil {
		fc := *chaos
		fc.Seed = seed
		cfg.Faults = &fc
	}
	e, err := runtime.StartEngine(consensus.FloodSetWS{}, cfg)
	if err != nil {
		t.Fatalf("spec %q: %v", spec.Name, err)
	}
	z.Engine = e
	return z
}

// awaitSuspicion polls observer's Suspects until it contains target or the
// deadline passes; reports whether it ever did.
func awaitSuspicion(obsDet runtime.Detector, target model.ProcessID, deadline time.Duration) bool {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if obsDet.Suspects().Has(target) {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
