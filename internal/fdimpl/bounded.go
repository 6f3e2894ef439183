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
// The embedded DetectorCore times each link's silence against that link's
// own window (forced adaptive), so the construction keeps only its ping
// state. Completeness is strong: a crashed peer never answers, its silence
// outgrows any bound. Accuracy is eventual: each false suspicion costs one
// retraction and buys a doubled bound.
type BoundedFD struct {
	*runtime.DetectorCore
	period time.Duration

	mu    sync.Mutex
	links []boundedLink // indexed by peer id; [0] and [id] unused
}

type boundedLink struct {
	pingAt time.Time // zero: no outstanding ping
	pings  int64     // pings sent on this link (resends included)
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
// double it, up to 64× that, whatever cfg.Adaptive says.
func newBoundedFD(cfg runtime.DetectorConfig) *BoundedFD {
	cfg.Adaptive = true
	return &BoundedFD{
		DetectorCore: runtime.NewDetectorCore("bounded", cfg),
		period:       cfg.Period,
		links:        make([]boundedLink, cfg.N+1),
	}
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
		p := model.ProcessID(j)
		if p == fd.ID() {
			continue
		}
		l := &fd.links[j]
		bound := fd.Window(p)
		switch {
		case l.pingAt.IsZero():
			// Quiet link: probe once silence passes half the bound — late
			// enough that data-bearing links never pay, early enough that
			// the ack can land before the bound expires.
			if fd.Silence(p, now) > bound/2 {
				l.pingAt = now
				l.pings++
				pings = append(pings, p)
			}
		case now.Sub(l.pingAt) > bound:
			// Outstanding ping aged out: this is the ONLY resend trigger,
			// so under sustained loss the per-link rate is 1/bound — and
			// each retraction doubles the bound.
			l.pingAt = now
			l.pings++
			pings = append(pings, p)
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
	fd.Heard(env.From)
	fd.mu.Lock()
	fd.links[env.From].pingAt = time.Time{} // evidence answers any outstanding probe
	fd.mu.Unlock()
	if env.Kind == wire.KindFDPing {
		fd.Send(wire.Envelope{To: env.From, Kind: wire.KindFDAck}) // refused once stopped
	}
}

// LinkPings reports how many pings (resends included) went to peer j.
func (fd *BoundedFD) LinkPings(j model.ProcessID) int64 {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.links[j].pings
}
