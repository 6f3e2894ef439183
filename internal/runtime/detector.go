package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Detector is the failure-detector contract the RWS runtime programs
// against. The paper treats the detector as an oracle with axioms
// (completeness, accuracy); this interface is the oracle's operational
// surface, extracted from HeartbeatFD so the detector *construction* —
// all-to-all heartbeats, bounded-message ◇P, ring forwarding, ... — is a
// pluggable choice raced by experiment E15.
//
// Lifecycle: construct → Instrument/UseCodec → Start → (Observe/Suspects/
// NoteRound from the node, concurrently) → Stop. Stop is idempotent and
// safe before Start; Start and Stop must not be called concurrently with
// each other. All other methods are safe for concurrent use after Start.
type Detector interface {
	// Start launches the detector's background senders.
	Start()
	// Stop halts them and joins their goroutines. From the peers'
	// viewpoint the process crash-stops once its last message ages out.
	Stop()
	// Observe feeds the detector one decoded inbound envelope, from the
	// owning node's demultiplexer goroutine only. The contract: every control
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
	// Instrument redirects counters to reg (nil disables) and streams
	// suspect/retract events to sink (nil disables). Call before Start.
	Instrument(reg *obs.Registry, sink obs.Sink)
	// UseCodec routes control-message encodes through c so a wire tap
	// sees detector traffic alongside round messages. Call before Start.
	UseCodec(c wire.Codec)
	// Name reports the implementation's registered name (metric label).
	Name() string

	// Audit hooks, read after the run.
	EverSuspected() model.ProcSet
	FalseSuspicions() int64
	Retractions() int64
	EncodeErrors() int64
}

// DetectorConfig is what a cluster hands a detector factory: the node's
// wrapped transport (fault injection included) and the cluster's timing
// knobs. Implementations are free to reinterpret Period/Timeout for their
// own message discipline but must honor the intent: Period paces proactive
// traffic, Timeout is the initial suspicion window.
type DetectorConfig struct {
	Transport Transport
	N         int
	Period    time.Duration
	Timeout   time.Duration
	// Adaptive selects the ◇P variant where retractions grow the window
	// (up to AdaptiveMax; 0 means 64× Timeout) for constructions that
	// support it.
	Adaptive    bool
	AdaptiveMax time.Duration
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
		New: func(cfg DetectorConfig) (Detector, error) {
			fd := NewHeartbeatFD(cfg.Transport, cfg.N, cfg.Period, cfg.Timeout)
			if cfg.Adaptive {
				fd.EnableAdaptiveTimeout(cfg.AdaptiveMax)
			}
			return fd, nil
		},
	}
}

// Lifecycle owns a detector's background goroutines and gives every
// implementation the same Stop discipline: idempotent, safe before the
// first Go, and joining all spawned goroutines before returning. The zero
// value is ready to use. Go/Stop must not race each other (the node calls
// them sequentially); everything else is safe concurrently.
type Lifecycle struct {
	initOnce sync.Once
	stopOnce sync.Once
	stopped  atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

func (l *Lifecycle) init() {
	l.initOnce.Do(func() { l.stop = make(chan struct{}) })
}

// Go spawns fn as an owned goroutine; fn must return when stop closes.
// After Stop it is a no-op returning false, so a crashed node's detector
// cannot be resurrected.
func (l *Lifecycle) Go(fn func(stop <-chan struct{})) bool {
	l.init()
	if l.stopped.Load() {
		return false
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		fn(l.stop)
	}()
	return true
}

// Stopping exposes the stop channel for goroutines with their own selects.
func (l *Lifecycle) Stopping() <-chan struct{} {
	l.init()
	return l.stop
}

// Stopped reports whether Stop has been called. Reactive detectors check
// it before answering probes: a crash-stopped process must not send, even
// though its demultiplexer may still be draining inbound packets.
func (l *Lifecycle) Stopped() bool {
	return l.stopped.Load()
}

// Stop closes the stop channel (once) and joins every spawned goroutine.
// Safe to call repeatedly and before any Go.
func (l *Lifecycle) Stop() {
	l.init()
	l.stopped.Store(true)
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
}

// DetectorCore is the bookkeeping every detector construction shares:
// suspicion-edge accounting with the sticky strong-accuracy audit, the
// retraction/false-suspicion/encode-error counters, per-detector-labelled
// metrics and the suspect/retract event stream. Implementations embed a
// *DetectorCore and call Raise/Retract from their Suspects poll; the
// promoted methods satisfy most of the Detector interface.
type DetectorCore struct {
	name string
	id   model.ProcessID
	n    int

	round   atomic.Int64 // current protocol round, for event attribution
	metrics fdMetrics
	sink    obs.Sink

	falseSuspicions atomic.Int64 // retraction edges (perfection counterexamples)
	retractions     atomic.Int64
	encodeErrors    atomic.Int64
	suspected       []atomic.Bool // current suspicion edge state
	sticky          []atomic.Bool // ever raised, never cleared (accuracy audit)
}

// NewDetectorCore builds the shared bookkeeping for one observer endpoint.
func NewDetectorCore(name string, id model.ProcessID, n int) *DetectorCore {
	return &DetectorCore{
		name:      name,
		id:        id,
		n:         n,
		metrics:   newFDMetrics(obs.Default, name),
		suspected: make([]atomic.Bool, n+1),
		sticky:    make([]atomic.Bool, n+1),
	}
}

// ID is the owning process; N the cluster size.
func (c *DetectorCore) ID() model.ProcessID { return c.id }

// N reports the cluster size the detector observes.
func (c *DetectorCore) N() int { return c.n }

// Name reports the construction's registered name.
func (c *DetectorCore) Name() string { return c.name }

// Instrument redirects the counters to reg (nil disables them) and streams
// suspect/retract events to sink (nil disables the stream). Call before
// Start.
func (c *DetectorCore) Instrument(reg *obs.Registry, sink obs.Sink) {
	c.metrics = newFDMetrics(reg, c.name)
	c.sink = sink
}

// NoteRound tags subsequent suspect/retract events with the protocol round
// the owning node is executing. Detectors are round-free (they time out on
// wall-clock silence); the tag only gives event consumers — the
// conformance projector in particular — the round attribution that a raw
// suspicion edge lacks.
func (c *DetectorCore) NoteRound(r int) { c.round.Store(int64(r)) }

// Round reads the last noted round.
func (c *DetectorCore) Round() int { return int(c.round.Load()) }

// Raise records that peer j is currently suspected. Swap counts each raise
// exactly once per transition, so the raised/retracted counters track
// suspicion *edges*, not polls. Returns true on the raising poll.
func (c *DetectorCore) Raise(j model.ProcessID) bool {
	if c.suspected[j].Swap(true) {
		return false
	}
	c.sticky[j].Store(true)
	c.metrics.raised.Inc()
	if c.sink != nil {
		c.sink.Emit(obs.Event{Type: obs.EventSuspect, Round: c.Round(), Proc: int(j), By: int(c.id)})
	}
	return true
}

// Retract records that peer j is no longer suspected. A retraction is by
// definition a false suspicion under crash-stop (a crashed process never
// shows life again), so both counters advance on the edge. Returns true on
// the retracting poll.
func (c *DetectorCore) Retract(j model.ProcessID) bool {
	if !c.suspected[j].Swap(false) {
		return false
	}
	c.falseSuspicions.Add(1)
	c.retractions.Add(1)
	c.metrics.retracted.Inc()
	if c.sink != nil {
		c.sink.Emit(obs.Event{Type: obs.EventRetract, Round: c.Round(), Proc: int(j), By: int(c.id)})
	}
	return true
}

// NoteSent counts one control message successfully handed to the transport.
func (c *DetectorCore) NoteSent() { c.metrics.heartbeatsSent.Inc() }

// NoteEncodeError counts a control message lost to envelope encoding — a
// silent partial crash the run verdict should see.
func (c *DetectorCore) NoteEncodeError() {
	c.encodeErrors.Add(1)
	c.metrics.encodeErrors.Inc()
}

// FalseSuspicions reports how many suspicion retractions this observer went
// through — zero in a run where the detector behaved perfectly.
func (c *DetectorCore) FalseSuspicions() int64 { return c.falseSuspicions.Load() }

// Retractions reports the retraction edges this observer polled through.
// Under the crash-stop model it equals FalseSuspicions; it is kept as its
// own counter because the adaptive constructions treat it as their control
// signal (every retraction grows a timeout) rather than as a verdict.
func (c *DetectorCore) Retractions() int64 { return c.retractions.Load() }

// EncodeErrors reports control messages lost to envelope encoding failures.
func (c *DetectorCore) EncodeErrors() int64 { return c.encodeErrors.Load() }

// EverSuspected returns every peer this observer suspected at any point,
// retracted or not. Compared against which processes actually crashed it
// yields the run's strong-accuracy audit: a member that never crashed is a
// false suspicion even if the run ended before the retraction was polled.
func (c *DetectorCore) EverSuspected() model.ProcSet {
	var s model.ProcSet
	for j := 1; j <= c.n; j++ {
		if c.sticky[j].Load() {
			s = s.Add(model.ProcessID(j))
		}
	}
	return s
}
