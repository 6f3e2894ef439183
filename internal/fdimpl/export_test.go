package fdimpl

import (
	"time"

	"repro/internal/model"
)

// LinkPings reports how many pings (resends included) went to peer j.
func (fd *BoundedFD) LinkPings(j model.ProcessID) int64 {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.links[j].pings
}

// Forwards reports digests sent; Reroutes how many skipped a suspected
// successor (the ring healing around a crash).
func (fd *RingFD) Forwards() int64 {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.forwards
}

// Reroutes reports digests routed past a stalled successor.
func (fd *RingFD) Reroutes() int64 {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.reroutes
}

// BoundaryPolls counts polls inside the SS/SP gap — where a synchronous
// system would already have acted while SP provably must keep waiting.
func (fd *SDDFD) BoundaryPolls() int64 { return fd.boundaryPolls.Load() }

// SSRaises counts SS-window suspicion edges (how often the tight bound
// fired at all, retracted or not).
func (fd *SDDFD) SSRaises() int64 { return fd.ssRaises.Load() }

// Windows reports the harness's two silence bounds (SS, SP).
func (fd *SDDFD) Windows() (ss, sp time.Duration) { return fd.ssWindow, fd.Window(fd.peer) }
