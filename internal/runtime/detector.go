package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Detector is the failure-detector contract the RWS runtime programs
// against. The paper treats the detector as an oracle with axioms
// (completeness, accuracy); this interface is the oracle's operational
// surface, so the detector *construction* — all-to-all heartbeats,
// bounded-message ◇P, ring forwarding, ... — is a pluggable choice raced by
// experiment E15. Every construction embeds a DetectorCore, which owns the
// one suspicion rule; a construction only supplies evidence and traffic.
//
// Lifecycle: construct → Start → (Observe/Suspects/NoteRound from the node,
// concurrently) → Stop. A detector is built complete from its
// DetectorConfig; there is no wiring phase, and Observe may precede Start.
// Stop is idempotent and safe before Start; Start and Stop must not be called
// concurrently with each other. All other methods are safe for concurrent use.
type Detector interface {
	// Start launches the detector's background senders.
	Start()
	// Stop halts them and joins their goroutines. From the peers'
	// viewpoint the process crash-stops once its last message ages out.
	Stop()
	// Observe feeds the detector one decoded inbound envelope, from the
	// owning node's receive function, concurrently. The contract: every control
	// envelope; round traffic at least once per packet per sender. Any
	// traffic proves the sender was recently alive, and the frames batched
	// into one packet left the sender together, so the second one is no
	// newer evidence than the first — a detector must not count round frames
	// or expect to see each. Reactive constructions (ping/ack, ring
	// forwarding) also answer from here.
	Observe(env wire.Envelope)
	// Suspects returns the current suspicion set. Polling it is what
	// advances suspicion/retraction edge accounting.
	Suspects() model.ProcSet
	// NoteRound tags subsequent suspect/retract events with the protocol
	// round the owning node is executing (attribution only).
	NoteRound(r int)
	// Name reports the implementation's registered name (metric label).
	Name() string

	// Audit hooks, read after the run.
	EverSuspected() model.ProcSet
	FalseSuspicions() int64
	EncodeErrors() int64
}

// DetectorConfig is everything a cluster hands a detector factory: the
// node's wrapped transport (fault injection included), the cluster's timing
// knobs and where the detector's telemetry goes. Implementations are free to
// reinterpret Period/Timeout for their own message discipline but must honor
// the intent: Period paces proactive traffic, Timeout is the initial
// suspicion window.
type DetectorConfig struct {
	Transport Transport
	N         int
	Period    time.Duration
	Timeout   time.Duration
	// Metrics receives the ssfd_fd_*{detector="..."} families (nil means
	// obs.Default), Events the suspect/retract stream (nil disables it) and
	// Wire the per-kind accounting of every control message sent (nil
	// disables it).
	Metrics *obs.Registry
	Events  obs.Sink
	Wire    *netobs.WireStats
	// Adaptive selects the ◇P variant: each retraction doubles the
	// retracted peer's window, up to 64× its initial value. The bounded
	// and ring constructions always adapt; sdd never does.
	Adaptive bool
}

// DetectorSpec names a detector construction and knows how to build one
// endpoint's instance. The name labels the implementation's metric
// families ({detector="..."}) and is what CLI -detector flags resolve; the
// registry of specs lives in internal/fdimpl so this package stays free of
// implementation imports.
type DetectorSpec struct {
	Name string
	New  func(DetectorConfig) (Detector, error)
}

// HeartbeatDetector is the default construction: the all-to-all heartbeat
// broadcaster HeartbeatFD.
func HeartbeatDetector() *DetectorSpec {
	return &DetectorSpec{
		Name: "heartbeat",
		New:  func(cfg DetectorConfig) (Detector, error) { return NewHeartbeatFD(cfg), nil },
	}
}

// maxGrowth caps an adaptive window at this multiple of its initial value.
const maxGrowth = 64

// DetectorCore is everything a detector construction does not decide for
// itself: the endpoint and the one way to send on it (Send), the stop
// discipline and the one ticker loop (Every, Stop), and the one suspicion
// rule — per peer a last-evidence time and a window; a peer silent for
// longer than its window is suspected, and an adaptive core doubles a peer's
// window each time that peer's suspicion is retracted (Suspects). It also
// keeps suspicion-edge accounting with the sticky strong-accuracy audit, the
// false-suspicion/encode-error counters, per-detector-labelled metrics and
// the suspect/retract event stream. A construction embeds a *DetectorCore
// and supplies its evidence (Heard, from Observe) and its traffic (a tick
// handed to Every from Start); the promoted methods are the rest of the
// Detector interface.
type DetectorCore struct {
	name     string
	id       model.ProcessID
	n        int
	endpoint Transport
	wire     *netobs.WireStats

	round   atomic.Int64 // current protocol round, for event attribution
	metrics fdMetrics
	sink    obs.Sink

	// mu orders Send against Stop: a Send in flight finishes before Stop
	// returns, and none starts after.
	mu      sync.RWMutex
	stopped bool
	stop    chan struct{}
	wg      sync.WaitGroup

	peers     []peerState // indexed by process id; [0] and [id] unused
	maxWindow int64
	adaptive  bool
}

// peerState is the suspicion rule's state for one peer.
type peerState struct {
	heard     atomic.Int64 // unix nanos of the last evidence
	window    atomic.Int64 // current suspicion window, nanoseconds
	suspected atomic.Bool  // current suspicion edge state
	sticky    atomic.Bool  // ever raised, never cleared (accuracy audit)
}

// NewDetectorCore builds the shared half of one observer endpoint's
// detector, named name in its metric labels. Every peer's window starts at
// cfg.Timeout and grows only when cfg.Adaptive; every peer counts as heard
// at construction.
func NewDetectorCore(name string, cfg DetectorConfig) *DetectorCore {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	c := &DetectorCore{
		name:      name,
		id:        cfg.Transport.LocalID(),
		n:         cfg.N,
		endpoint:  cfg.Transport,
		wire:      cfg.Wire,
		metrics:   newFDMetrics(reg, name),
		sink:      cfg.Events,
		stop:      make(chan struct{}),
		peers:     make([]peerState, cfg.N+1),
		maxWindow: int64(cfg.Timeout) * maxGrowth,
		adaptive:  cfg.Adaptive,
	}
	now := time.Now().UnixNano()
	for j := 1; j <= cfg.N; j++ {
		c.peers[j].heard.Store(now)
		c.peers[j].window.Store(int64(cfg.Timeout))
	}
	return c
}

// ID is the owning process; N the cluster size.
func (c *DetectorCore) ID() model.ProcessID { return c.id }

// N reports the cluster size the detector observes.
func (c *DetectorCore) N() int { return c.n }

// Name reports the construction's registered name.
func (c *DetectorCore) Name() string { return c.name }

// Every runs tick once per period on an owned goroutine until Stop — the
// body of a construction's Start. After Stop it is a no-op, so a crashed
// node's detector cannot be resurrected.
func (c *DetectorCore) Every(period time.Duration, tick func()) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.stopped {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				tick()
			}
		}
	}()
}

// Stop silences the detector and joins its tickers. Idempotent and safe
// before Start. From the peers' viewpoint the process crash-stops once its
// last message ages out.
func (c *DetectorCore) Stop() {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		close(c.stop)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Send is the one way a detector puts a control message on the wire: env
// goes to env.To stamped with the local id. A stopped detector is a
// crash-stopped process — it may still Observe (the mesh keeps delivering)
// but it must not send, proactively or in reply. The encoding is a fresh
// slice surrendered to the transport. A message that fails to encode is a
// silent partial crash, counted so the run verdict can see it; one that
// encodes is counted per kind whether or not the transport then takes it
// (best effort; closure races are benign).
func (c *DetectorCore) Send(env wire.Envelope) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.stopped {
		return
	}
	env.From = c.id
	data, err := wire.Encode(env)
	if err != nil {
		c.metrics.encodeErrors.Inc()
		return
	}
	c.wire.AddEncoded(env.Kind, 1, int64(len(data)))
	if c.endpoint.Send(env.To, data) == nil {
		c.metrics.heartbeatsSent.Inc()
	}
}

// NoteRound tags subsequent suspect/retract events with the protocol round
// the owning node is executing. Detectors are round-free (they time out on
// wall-clock silence); the tag only gives event consumers — the
// conformance projector in particular — the round attribution that a raw
// suspicion edge lacks.
func (c *DetectorCore) NoteRound(r int) { c.round.Store(int64(r)) }

// Round reads the last noted round.
func (c *DetectorCore) Round() int { return int(c.round.Load()) }

// Heard records evidence that peer j was alive just now. Evidence about an
// id outside the cluster, or about the observer itself, is ignored.
func (c *DetectorCore) Heard(j model.ProcessID) {
	if j.Valid(c.n) && j != c.id {
		c.peers[j].heard.Store(time.Now().UnixNano())
	}
}

// Observe is the default evidence rule: any envelope proves its sender was
// recently alive (see Detector.Observe for how often the receive function
// calls it). Constructions that answer traffic override it and call Heard.
func (c *DetectorCore) Observe(env wire.Envelope) { c.Heard(env.From) }

// Silence reports how long peer j has been silent at now.
func (c *DetectorCore) Silence(j model.ProcessID, now time.Time) time.Duration {
	return time.Duration(now.UnixNano() - c.peers[j].heard.Load())
}

// Window reports peer j's current suspicion window: the configured timeout,
// grown past it only by retractions of j in an adaptive core.
func (c *DetectorCore) Window(j model.ProcessID) time.Duration {
	return time.Duration(c.peers[j].window.Load())
}

// Suspects is the one suspicion rule: a peer silent for longer than its
// window is suspected (raise), any other peer is not (retract). A
// retraction means that peer's window undershot its actual delays, so an
// adaptive core doubles that peer's window, capped at 64× the initial one —
// the ◇P move. Only the poller that wins the retraction edge grows the
// window, once per edge; the CompareAndSwap keeps it exact against other
// pollers.
func (c *DetectorCore) Suspects() model.ProcSet {
	var s model.ProcSet
	now := time.Now()
	for j := 1; j <= c.n; j++ {
		p := model.ProcessID(j)
		if p == c.id {
			continue
		}
		if c.Silence(p, now) > c.Window(p) {
			s = s.Add(p)
			c.raise(p)
		} else if c.retract(p) && c.adaptive {
			w := &c.peers[j].window
			for old := w.Load(); !w.CompareAndSwap(old, min(2*old, c.maxWindow)); {
				old = w.Load()
			}
		}
	}
	return s
}

// raise records that peer j is currently suspected. Swap counts each raise
// exactly once per transition, so the raised/retracted counters track
// suspicion *edges*, not polls.
func (c *DetectorCore) raise(j model.ProcessID) {
	if c.peers[j].suspected.Swap(true) {
		return
	}
	c.peers[j].sticky.Store(true)
	c.metrics.raised.Inc()
	if c.sink != nil {
		c.sink.Emit(obs.Event{Type: obs.EventSuspect, Round: c.Round(), Proc: int(j), By: int(c.id)})
	}
}

// retract records that peer j is no longer suspected. A retraction is by
// definition a false suspicion under crash-stop (a crashed process never
// shows life again), so it is counted as one. Returns true on the
// retracting poll.
func (c *DetectorCore) retract(j model.ProcessID) bool {
	if !c.peers[j].suspected.Swap(false) {
		return false
	}
	c.metrics.retracted.Inc()
	if c.sink != nil {
		c.sink.Emit(obs.Event{Type: obs.EventRetract, Round: c.Round(), Proc: int(j), By: int(c.id)})
	}
	return true
}

// FalseSuspicions reports how many suspicion retractions this observer went
// through — zero in a run where the detector behaved perfectly.
func (c *DetectorCore) FalseSuspicions() int64 { return c.metrics.retracted.Value() }

// EncodeErrors reports control messages lost to envelope encoding failures.
func (c *DetectorCore) EncodeErrors() int64 { return c.metrics.encodeErrors.Value() }

// EverSuspected returns every peer this observer suspected at any point,
// retracted or not. Compared against which processes actually crashed it
// yields the run's strong-accuracy audit: a member that never crashed is a
// false suspicion even if the run ended before the retraction was polled.
func (c *DetectorCore) EverSuspected() model.ProcSet {
	var s model.ProcSet
	for j := 1; j <= c.n; j++ {
		if c.peers[j].sticky.Load() {
			s = s.Add(model.ProcessID(j))
		}
	}
	return s
}
