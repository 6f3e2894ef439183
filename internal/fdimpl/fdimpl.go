// Package fdimpl is the failure-detector zoo: the live constructions of
// the oracle the paper's SP model postulates, all implementing
// runtime.Detector and raced against each other by experiment E15.
//
// The paper's §3/§5 message is that the detector's *construction* — not
// just its axioms — decides what a deployment pays and what it can solve.
// The zoo spans that spectrum:
//
//   - "heartbeat" (runtime.HeartbeatFD): the classic all-to-all broadcast,
//     perfect over a synchronous network, O(n²) messages per period.
//   - "bounded" (BoundedFD): a bounded-message ◇P in the spirit of
//     Kumar/Welch's ADD-channel construction — silent while data flows,
//     pings only silent links, resends only on per-link timeout, and every
//     retraction grows that link's bound.
//   - "ring" (RingFD): logical-ring forwarding — each process tells only
//     its successor what it knows, O(n) messages per period cluster-wide,
//     paying for it with O(n·Period) detection latency; reroutes around a
//     crashed successor.
//   - "sdd" (SDDFD): a two-process harness instrumenting the §SDD
//     hardness boundary — the window where a synchronous system would
//     already act while SP provably cannot tell slow from crashed.
//
// Names registered here are what the CLIs' -detector flags resolve.
package fdimpl

import (
	"fmt"
	"strings"

	"repro/internal/runtime"
)

// Specs returns the full zoo in registration order; the first entry
// ("heartbeat") is the runtime's default construction.
func Specs() []*runtime.DetectorSpec {
	return []*runtime.DetectorSpec{
		runtime.HeartbeatDetector(),
		BoundedDetector(),
		RingDetector(),
		SDDDetector(),
	}
}

// Names lists the registered detector names in registration order.
func Names() []string {
	specs := Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// New resolves a detector name to its spec; unknown names error with the
// registered list (the CLIs print this verbatim).
func New(name string) (*runtime.DetectorSpec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown detector %q (registered: %s)", name, strings.Join(Names(), ", "))
}

// Filed wraps spec so that every detector it builds is also filed in dets
// under its node's id (dets needs n+1 entries). An engine over the wrapped
// spec that never opens an instance is a standalone detector mesh: the
// nodes' receive functions feed the detectors, its Stats().Cost counts their
// control traffic, and the caller polls, crash-stops (Stop) and audits them
// by id. The engine builds its detectors one at a time, so dets needs no
// lock.
func Filed(spec *runtime.DetectorSpec, dets []runtime.Detector) *runtime.DetectorSpec {
	return &runtime.DetectorSpec{
		Name: spec.Name,
		New: func(cfg runtime.DetectorConfig) (runtime.Detector, error) {
			d, err := spec.New(cfg)
			if err == nil {
				dets[cfg.Transport.LocalID()] = d
			}
			return d, err
		},
	}
}
