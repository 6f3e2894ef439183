package fdimpl

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/runtime"
)

// startZoo starts a Mesh of n instances of spec, optionally behind a fault
// injector. Callers must defer z.Close().
func startZoo(t *testing.T, spec *runtime.DetectorSpec, n int, seed int64, chaos *faults.Config,
	period, timeout time.Duration) *Mesh {
	t.Helper()
	z, err := StartMesh(spec, MeshConfig{N: n, Seed: seed, Chaos: chaos, Period: period, Timeout: timeout})
	if err != nil {
		t.Fatalf("spec %q: %v", spec.Name, err)
	}
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
