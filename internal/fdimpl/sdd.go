package fdimpl

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// SDDFD is the two-process harness for the paper's §3 hardness boundary.
// The Strongly Dependent Decision problem separates SS from SP because a
// synchronous system can act on a *calibrated* silence — after Φ+1+Δ the
// peer is provably crashed — while SP's perfect detector only promises
// that a crash is eventually reported, never when.
//
// The harness runs one heartbeat stream between exactly two processes and
// times silence against two windows at once:
//
//   - the SS window (the configured Timeout): the bound a synchronous
//     deployment would be entitled to act on;
//   - the SP window (4× that): the conservative bound the operational
//     Suspects() actually uses, so the detector stays safe where the
//     network is merely slow.
//
// Every Suspects poll that lands between the windows — SS would have
// decided, SP cannot yet distinguish slow from crashed — increments
// BoundaryPolls. That counter is the experiment's measurement of §SDD:
// over a network honoring its bounds it stays 0 and both windows agree;
// under chaos it counts exactly the polls where an SDD algorithm built on
// this detector would have diverged from its SS twin.
type SDDFD struct {
	*runtime.DetectorCore
	peer     model.ProcessID
	period   time.Duration
	ssWindow time.Duration
	seq      int // heartbeat sequence; the ticker goroutine's own

	boundaryPolls atomic.Int64 // polls with SS-suspected but not SP-suspected
	ssRaises      atomic.Int64 // SS-window suspicion edges
	ssSuspected   atomic.Bool
}

var _ runtime.Detector = (*SDDFD)(nil)

// SDDDetector registers the two-process SDD boundary harness. Its factory
// rejects any cluster size but 2 — the hardness argument is specifically
// about one observer timing one peer. The core's window is the SP window
// and never grows.
func SDDDetector() *runtime.DetectorSpec {
	return &runtime.DetectorSpec{
		Name: "sdd",
		New: func(cfg runtime.DetectorConfig) (runtime.Detector, error) {
			if cfg.N != 2 {
				return nil, fmt.Errorf("sdd detector requires exactly 2 processes, got %d", cfg.N)
			}
			ss := cfg.Timeout
			cfg.Timeout, cfg.Adaptive = 4*ss, false
			return &SDDFD{
				DetectorCore: runtime.NewDetectorCore("sdd", cfg),
				peer:         model.ProcessID(3 - int(cfg.Transport.LocalID())),
				period:       cfg.Period,
				ssWindow:     ss,
			}, nil
		},
	}
}

// Start launches the heartbeat stream to the single peer.
func (fd *SDDFD) Start() { fd.Every(fd.period, fd.beat) }

func (fd *SDDFD) beat() {
	fd.seq++
	fd.Send(wire.Envelope{To: fd.peer, Round: fd.seq, Kind: wire.KindHeartbeat})
}

// Suspects times the peer's silence against both windows: the core's SP
// window drives the returned set (and the edge accounting), the SS window
// drives the boundary instrumentation.
func (fd *SDDFD) Suspects() model.ProcSet {
	s := fd.DetectorCore.Suspects()
	ss := fd.Silence(fd.peer, time.Now()) > fd.ssWindow
	if ss && !fd.ssSuspected.Swap(true) {
		fd.ssRaises.Add(1)
	} else if !ss {
		fd.ssSuspected.Store(false)
	}
	if ss && !s.Has(fd.peer) {
		fd.boundaryPolls.Add(1)
	}
	return s
}

// BoundaryPolls counts polls inside the SS/SP gap — where a synchronous
// system would already have acted while SP provably must keep waiting.
func (fd *SDDFD) BoundaryPolls() int64 { return fd.boundaryPolls.Load() }

// SSRaises counts SS-window suspicion edges (how often the tight bound
// fired at all, retracted or not).
func (fd *SDDFD) SSRaises() int64 { return fd.ssRaises.Load() }

// Windows reports the harness's two silence bounds (SS, SP).
func (fd *SDDFD) Windows() (ss, sp time.Duration) { return fd.ssWindow, fd.Window(fd.peer) }
