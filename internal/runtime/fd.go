package runtime

import (
	"sync/atomic"
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
// the degradation gracefully: growing the timeout on every retraction is
// the classic ◇P construction, converging to accuracy once the timeout
// overtakes the network's actual (unbounded-model) delays.
//
// It is the "heartbeat" entry of the detector zoo (see HeartbeatDetector
// and internal/fdimpl); its cost is O(n²) messages per period cluster-wide.
type HeartbeatFD struct {
	*DetectorCore
	period  time.Duration
	timeout atomic.Int64 // current suspicion window, nanoseconds

	adaptive   bool
	maxTimeout time.Duration

	lastHeard []atomic.Int64 // unix nanos of last traffic per peer
	seq       int            // heartbeat sequence; the ticker goroutine's own
}

// NewHeartbeatFD builds (but does not start) a detector for cfg's endpoint.
// With cfg.Adaptive it is the ◇P construction instead of P-over-a-
// synchronous-network: every retraction doubles the suspicion timeout,
// capped at 64× the initial one, so over a network that violates its Δ
// bound the detector is eventually accurate instead of permanently
// suspecting live peers.
func NewHeartbeatFD(cfg DetectorConfig) *HeartbeatFD {
	fd := &HeartbeatFD{
		DetectorCore: NewDetectorCore("heartbeat", cfg),
		period:       cfg.Period,
		adaptive:     cfg.Adaptive,
		maxTimeout:   cfg.Timeout * 64,
		lastHeard:    make([]atomic.Int64, cfg.N+1),
	}
	fd.timeout.Store(int64(cfg.Timeout))
	now := time.Now().UnixNano()
	for i := 1; i <= cfg.N; i++ {
		fd.lastHeard[i].Store(now)
	}
	return fd
}

// CurrentTimeout returns the active suspicion window — grown past its
// configured value only by adaptive retractions.
func (fd *HeartbeatFD) CurrentTimeout() time.Duration {
	return time.Duration(fd.timeout.Load())
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

// Observe records liveness evidence from a peer: any traffic, control or
// data, proves the sender was recently alive (see Detector.Observe for how
// often the demultiplexer calls it).
func (fd *HeartbeatFD) Observe(env wire.Envelope) {
	if !env.From.Valid(fd.N()) {
		return
	}
	fd.lastHeard[env.From].Store(time.Now().UnixNano())
}

// Suspects returns the current suspicion set. It also tracks retractions:
// if a previously suspected peer shows life again, the detector was not
// perfect in this run (FalseSuspicions counts those events), and in
// adaptive mode each retraction doubles the timeout.
func (fd *HeartbeatFD) Suspects() model.ProcSet {
	var s model.ProcSet
	now := time.Now().UnixNano()
	timeout := fd.timeout.Load()
	for j := 1; j <= fd.N(); j++ {
		if model.ProcessID(j) == fd.ID() {
			continue
		}
		if now-fd.lastHeard[j].Load() > timeout {
			s = s.Add(model.ProcessID(j))
			fd.Raise(model.ProcessID(j))
		} else if fd.Retract(model.ProcessID(j)) && fd.adaptive {
			grown := timeout * 2
			if grown > int64(fd.maxTimeout) {
				grown = int64(fd.maxTimeout)
			}
			// CompareAndSwap: concurrent pollers double once, not twice.
			fd.timeout.CompareAndSwap(timeout, grown)
		}
	}
	return s
}
