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
// lives in. The optional adaptive mode (EnableAdaptiveTimeout) completes
// the degradation gracefully: growing the timeout on every retraction is
// the classic ◇P construction, converging to accuracy once the timeout
// overtakes the network's actual (unbounded-model) delays.
//
// It is the "heartbeat" entry of the detector zoo (see HeartbeatDetector
// and internal/fdimpl); its cost is O(n²) messages per period cluster-wide.
type HeartbeatFD struct {
	*DetectorCore
	period    time.Duration
	timeout   atomic.Int64 // current suspicion window, nanoseconds
	transport Transport

	adaptive   bool
	maxTimeout time.Duration

	lastHeard []atomic.Int64 // unix nanos of last traffic per peer

	life  Lifecycle
	codec wire.Codec
}

// NewHeartbeatFD builds (but does not start) a detector for the endpoint.
func NewHeartbeatFD(t Transport, n int, period, timeout time.Duration) *HeartbeatFD {
	fd := &HeartbeatFD{
		DetectorCore: NewDetectorCore("heartbeat", t.LocalID(), n),
		period:       period,
		transport:    t,
		lastHeard:    make([]atomic.Int64, n+1),
	}
	fd.timeout.Store(int64(timeout))
	now := time.Now().UnixNano()
	for i := 1; i <= n; i++ {
		fd.lastHeard[i].Store(now)
	}
	return fd
}

// UseCodec routes the broadcaster's heartbeat encodes through c, so a wire
// tap sees detector traffic alongside the nodes' round messages. Call
// before Start.
func (fd *HeartbeatFD) UseCodec(c wire.Codec) {
	fd.codec = c
}

// EnableAdaptiveTimeout switches the detector from P-over-a-synchronous-
// network to the ◇P construction: every retraction doubles the suspicion
// timeout (capped at max; 0 means 64× the initial timeout), so over a
// network that violates its Δ bound the detector is eventually accurate
// instead of permanently suspecting live peers. Call before Start.
func (fd *HeartbeatFD) EnableAdaptiveTimeout(max time.Duration) {
	fd.adaptive = true
	if max <= 0 {
		max = time.Duration(fd.timeout.Load()) * 64
	}
	fd.maxTimeout = max
}

// CurrentTimeout returns the active suspicion window — grown past its
// configured value only by adaptive retractions.
func (fd *HeartbeatFD) CurrentTimeout() time.Duration {
	return time.Duration(fd.timeout.Load())
}

// Start launches the heartbeat broadcaster.
func (fd *HeartbeatFD) Start() {
	fd.life.Go(fd.broadcastLoop)
}

// Stop halts the broadcaster (the process "crashes" from the peers'
// viewpoint once its last heartbeat ages out). Idempotent, and safe to
// call before Start.
func (fd *HeartbeatFD) Stop() {
	fd.life.Stop()
}

func (fd *HeartbeatFD) broadcastLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(fd.period)
	defer ticker.Stop()
	seq := 0
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			seq++
			env := wire.Envelope{From: fd.ID(), Round: seq, Kind: wire.KindHeartbeat}
			for j := 1; j <= fd.N(); j++ {
				dest := model.ProcessID(j)
				if dest == fd.ID() {
					continue
				}
				e := env
				e.To = dest
				data, err := fd.codec.Encode(e)
				if err != nil {
					// A liveness beacon that fails to encode is a silent
					// partial crash; count it so the run verdict can see it.
					fd.NoteEncodeError()
					continue
				}
				if fd.transport.Send(dest, data) == nil { // best effort; closure races are benign
					fd.NoteSent()
				}
			}
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
