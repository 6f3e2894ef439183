package runtime

import (
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

// HeartbeatFD is the timeout-based failure detector the paper's Section 3
// alludes to ("a simple time-out mechanism with time-out periods that
// depend on the Δ and Φ bounds [implements] a perfect failure detector" in
// a synchronous system): every process broadcasts a heartbeat each Period,
// and an observer suspects a peer once no traffic has arrived from it for
// Timeout.
//
// Over a network with bounded delay D the detector is perfect when
//
//	Timeout > Period + D + scheduling jitter,
//
// because a live peer's next heartbeat always lands inside the window. Over
// an unbounded network the same code is merely eventually perfect — the
// experiments use exactly this to show which model a deployment actually
// lives in. The optional adaptive mode (DetectorConfig.Adaptive) completes
// the degradation gracefully: growing a peer's timeout on every retraction
// of it is the classic ◇P construction, converging to accuracy once the
// timeout overtakes the network's actual (unbounded-model) delays.
//
// The construction is only the broadcaster: any inbound traffic is the
// evidence, and the embedded DetectorCore times the silence. It is the
// "heartbeat" entry of the detector zoo (see HeartbeatDetector and
// internal/fdimpl); its cost is O(n²) messages per period cluster-wide.
type HeartbeatFD struct {
	*DetectorCore
	period time.Duration
	seq    int // heartbeat sequence; the ticker goroutine's own
}

// NewHeartbeatFD builds (but does not start) a detector for cfg's endpoint.
// With cfg.Adaptive it is the ◇P construction instead of P-over-a-
// synchronous-network: every retraction doubles that peer's timeout,
// capped at 64× the initial one, so over a network that violates its Δ
// bound the detector is eventually accurate instead of permanently
// suspecting live peers.
func NewHeartbeatFD(cfg DetectorConfig) *HeartbeatFD {
	return &HeartbeatFD{DetectorCore: NewDetectorCore("heartbeat", cfg), period: cfg.Period}
}

// Start launches the heartbeat broadcaster.
func (fd *HeartbeatFD) Start() { fd.Every(fd.period, fd.broadcast) }

func (fd *HeartbeatFD) broadcast() {
	fd.seq++
	for j := 1; j <= fd.N(); j++ {
		if dest := model.ProcessID(j); dest != fd.ID() {
			fd.Send(wire.Envelope{To: dest, Round: fd.seq, Kind: wire.KindHeartbeat})
		}
	}
}
