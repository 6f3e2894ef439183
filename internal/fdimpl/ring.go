package fdimpl

import (
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// RingFD is the logical-ring/forwarding construction: each period a
// process bumps its own sequence number and sends ONE KindFDRing digest —
// the freshest sequence it knows for every member — to its ring successor.
// Freshness information circulates hop by hop, so the cluster spends O(n)
// messages per period where the all-to-all heartbeat spends O(n²), and
// pays with detection latency: evidence of p's liveness reaches p's
// farthest predecessor only after up to n−1 hops, so the stall window must
// cover ~n·Period plus delivery slack.
//
// A member j is suspected once j's sequence has not advanced (nor any
// direct traffic from j arrived) for the stall window: the construction
// calls the embedded DetectorCore's Heard on direct traffic and on every
// origin a digest advances, and the core times the silence (forced adaptive,
// since the ring's latency depends on load, not just the network). A
// crashed member's sequence stops advancing everywhere, so strong
// completeness survives any chaos; a slow hop can stall a live member's
// sequence past the window, which is the accuracy degradation the E15
// scorecard prices.
//
// Rerouting: the digest goes to the first ring successor not currently
// suspected, so a crashed successor only delays propagation until it is
// detected, after which the ring heals around it.
type RingFD struct {
	*runtime.DetectorCore
	period time.Duration

	mu       sync.Mutex
	seq      uint64   // own sequence, bumped per period
	maxSeq   []uint64 // freshest known sequence per member
	forwards int64    // digests sent
	reroutes int64    // digests sent past a suspected successor
}

var _ runtime.Detector = (*RingFD)(nil)

// RingDetector registers the logical-ring forwarding construction.
func RingDetector() *runtime.DetectorSpec {
	return &runtime.DetectorSpec{
		Name: "ring",
		New: func(cfg runtime.DetectorConfig) (runtime.Detector, error) {
			return newRingFD(cfg), nil
		},
	}
}

// newRingFD sizes the initial stall window; retractions double a member's
// window, up to 64× that, whatever cfg.Adaptive says.
func newRingFD(cfg runtime.DetectorConfig) *RingFD {
	// The stall window must cover a full circulation: n−1 forwarding hops,
	// each waiting up to one period, plus delivery slack. The configured
	// timeout is honored when it is already generous enough.
	cfg.Timeout = max(cfg.Timeout, time.Duration(4*cfg.N)*cfg.Period)
	cfg.Adaptive = true
	return &RingFD{
		DetectorCore: runtime.NewDetectorCore("ring", cfg),
		period:       cfg.Period,
		maxSeq:       make([]uint64, cfg.N+1),
	}
}

// Start launches the ring forwarder.
func (fd *RingFD) Start() { fd.Every(fd.period, fd.forward) }

// forward bumps the own sequence and ships the digest to the successor.
func (fd *RingFD) forward() {
	fd.mu.Lock()
	fd.seq++
	seq := fd.seq
	fd.maxSeq[fd.ID()] = fd.seq
	info := wire.RingInfo{Origins: make([]wire.RingOrigin, 0, fd.N())}
	for j := 1; j <= fd.N(); j++ {
		if fd.maxSeq[j] > 0 {
			info.Origins = append(info.Origins, wire.RingOrigin{Proc: model.ProcessID(j), Seq: fd.maxSeq[j]})
		}
	}
	succ, rerouted := fd.successor(time.Now())
	if rerouted {
		fd.reroutes++
	}
	fd.forwards++
	fd.mu.Unlock()
	fd.Send(wire.Envelope{To: succ, Round: int(seq), Kind: wire.KindFDRing, Payload: info})
}

// successor picks the first member after the local id in ring order
// whose freshness is younger than HALF its stall window; rerouted reports
// whether a nearer (stale) successor was skipped. Rerouting at window/2 —
// before the successor is formally suspected — matters for accuracy: while
// a digest goes to a dead successor, everything this process knows stops
// propagating, so waiting for full suspicion would let third parties stall
// past their own windows and falsely suspect live members.
func (fd *RingFD) successor(now time.Time) (succ model.ProcessID, rerouted bool) {
	n := fd.N()
	for k := 1; k < n; k++ {
		j := model.ProcessID((int(fd.ID())-1+k)%n + 1)
		if fd.Silence(j, now) <= fd.Window(j)/2 {
			return j, k > 1
		}
	}
	// Everyone looks stale: fall back to the immediate successor rather
	// than going silent (staleness may be our inbound problem, not theirs).
	return model.ProcessID(int(fd.ID())%n + 1), false
}

// Observe folds a digest (or any direct traffic) into the freshness table.
func (fd *RingFD) Observe(env wire.Envelope) {
	if !env.From.Valid(fd.N()) || env.From == fd.ID() {
		return
	}
	fd.Heard(env.From) // direct traffic is firsthand evidence
	info, ok := env.Payload.(wire.RingInfo)
	if !ok {
		return
	}
	fd.mu.Lock()
	defer fd.mu.Unlock()
	for _, o := range info.Origins {
		if !o.Proc.Valid(fd.N()) || o.Proc == fd.ID() {
			continue
		}
		if o.Seq > fd.maxSeq[o.Proc] {
			fd.maxSeq[o.Proc] = o.Seq
			fd.Heard(o.Proc)
		}
	}
}
