package fdimpl

import (
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// BoundedFD is a bounded-message eventually-perfect detector in the spirit
// of Kumar/Welch's construction over ADD channels (channels that may lose
// and delay messages but guarantee *some* message gets through within an
// unknown bound). Where HeartbeatFD broadcasts unconditionally — O(n²)
// messages per period forever — BoundedFD spends messages only where
// silence demands them:
//
//   - any inbound traffic from a peer (data or control) is liveness
//     evidence, so links carrying round messages cost nothing;
//   - a link silent for half its suspicion bound gets one KindFDPing, and
//     the ping is re-sent only when the per-link bound expires unanswered —
//     under sustained loss the send rate per link decays geometrically as
//     the bound doubles, instead of staying at the heartbeat's fixed rate;
//   - a peer answers a ping with one KindFDAck (reactive, so ack traffic is
//     bounded by ping traffic);
//   - a retraction (late evidence after a suspicion) doubles that link's
//     bound, the ADD move: the construction converges on any channel whose
//     loss/delay has *some* bound, which is exactly ◇P.
//
// Suspicion of peer j holds while j's link has been silent longer than its
// current bound. Completeness is strong: a crashed peer never answers, its
// silence outgrows any bound. Accuracy is eventual: each false suspicion
// costs one retraction and buys a doubled bound.
type BoundedFD struct {
	*runtime.DetectorCore
	period   time.Duration
	maxBound time.Duration

	mu    sync.Mutex
	links []boundedLink // indexed by peer id; [0] and [id] unused
}

type boundedLink struct {
	lastHeard time.Time
	bound     time.Duration // per-link adaptive suspicion bound
	pingAt    time.Time     // zero: no outstanding ping
	pings     int64         // pings sent on this link (resends included)
}

var _ runtime.Detector = (*BoundedFD)(nil)

// BoundedDetector registers the bounded-message ◇P construction.
func BoundedDetector() *runtime.DetectorSpec {
	return &runtime.DetectorSpec{
		Name: "bounded",
		New: func(cfg runtime.DetectorConfig) (runtime.Detector, error) {
			return newBoundedFD(cfg), nil
		},
	}
}

// newBoundedFD starts every link's bound at cfg.Timeout; retractions
// double it, up to 64× that.
func newBoundedFD(cfg runtime.DetectorConfig) *BoundedFD {
	fd := &BoundedFD{
		DetectorCore: runtime.NewDetectorCore("bounded", cfg),
		period:       cfg.Period,
		maxBound:     cfg.Timeout * 64,
		links:        make([]boundedLink, cfg.N+1),
	}
	now := time.Now()
	for j := 1; j <= cfg.N; j++ {
		fd.links[j] = boundedLink{lastHeard: now, bound: cfg.Timeout}
	}
	return fd
}

// Start launches the silence prober.
func (fd *BoundedFD) Start() { fd.Every(fd.period, fd.probe) }

// probe sends pings where silence warrants them. Sends happen outside the
// lock (a fault injector's wrapped Send may do real work).
func (fd *BoundedFD) probe() {
	now := time.Now()
	var pings []model.ProcessID
	fd.mu.Lock()
	for j := 1; j <= fd.N(); j++ {
		if model.ProcessID(j) == fd.ID() {
			continue
		}
		l := &fd.links[j]
		silent := now.Sub(l.lastHeard)
		switch {
		case l.pingAt.IsZero():
			// Quiet link: probe once silence passes half the bound — late
			// enough that data-bearing links never pay, early enough that
			// the ack can land before the bound expires.
			if silent > l.bound/2 {
				l.pingAt = now
				l.pings++
				pings = append(pings, model.ProcessID(j))
			}
		case now.Sub(l.pingAt) > l.bound:
			// Outstanding ping aged out: this is the ONLY resend trigger,
			// so under sustained loss the per-link rate is 1/bound — and
			// each retraction doubles the bound.
			l.pingAt = now
			l.pings++
			pings = append(pings, model.ProcessID(j))
		}
	}
	fd.mu.Unlock()
	for _, j := range pings {
		fd.Send(wire.Envelope{To: j, Kind: wire.KindFDPing})
	}
}

// Observe records liveness evidence and answers pings.
func (fd *BoundedFD) Observe(env wire.Envelope) {
	if !env.From.Valid(fd.N()) || env.From == fd.ID() {
		return
	}
	fd.mu.Lock()
	l := &fd.links[env.From]
	l.lastHeard = time.Now()
	l.pingAt = time.Time{} // evidence answers any outstanding probe
	fd.mu.Unlock()
	if env.Kind == wire.KindFDPing {
		fd.Send(wire.Envelope{To: env.From, Kind: wire.KindFDAck}) // refused once stopped
	}
}

// Suspects returns the peers whose links have outlived their bounds. A
// retraction — late evidence after a raise — doubles the link's bound
// (capped), which is what makes the construction ◇P over ADD channels.
func (fd *BoundedFD) Suspects() model.ProcSet {
	var s model.ProcSet
	now := time.Now()
	fd.mu.Lock()
	defer fd.mu.Unlock()
	for j := 1; j <= fd.N(); j++ {
		if model.ProcessID(j) == fd.ID() {
			continue
		}
		l := &fd.links[j]
		if now.Sub(l.lastHeard) > l.bound {
			s = s.Add(model.ProcessID(j))
			fd.Raise(model.ProcessID(j))
		} else if fd.Retract(model.ProcessID(j)) {
			if l.bound *= 2; l.bound > fd.maxBound {
				l.bound = fd.maxBound
			}
		}
	}
	return s
}

// LinkBound reports peer j's current suspicion bound (grown only by
// retractions); LinkPings the pings spent on that link.
func (fd *BoundedFD) LinkBound(j model.ProcessID) time.Duration {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.links[j].bound
}

// LinkPings reports how many pings (resends included) went to peer j.
func (fd *BoundedFD) LinkPings(j model.ProcessID) int64 {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.links[j].pings
}
