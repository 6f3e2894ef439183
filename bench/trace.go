package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// span is one timed call at a layer boundary. Spans of one instance (or one
// request) share Inst; Parent names the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Inst   uint64 `json:"inst"`
	Name   string `json:"name"`
	Node   int    `json:"node,omitempty"`
	Round  int    `json:"round,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	// maxSpans bounds the span file; instances opened past it are counted
	// but no longer sampled.
	maxSpans = 300000
	// maxCapture bounds the packets kept for the standalone layer replays.
	maxCapture = 4096
)

// instTrace is what the wrappers record for one consensus instance. After
// New (on the opener's goroutine) every automaton of an instance runs on the
// one worker that owns it, so the fields need no lock; the engine's mailbox
// and completion callback order them with the opener.
type instTrace struct {
	key         uint64
	sampled     bool
	first, last int64 // the consensus window: first Msgs start, last Trans end
	spans       []span
}

// traceCounters are the busy-time and call totals of every wrapped seam.
type traceCounters struct {
	newNS, newCalls           int64
	msgsNS, msgsCalls         int64
	transNS, transCalls       int64
	observeNS, observeCalls   int64
	suspectsNS, suspectsCalls int64
	sendNS, sendCalls         int64
	sendBytes                 int64
}

func (a traceCounters) sub(b traceCounters) traceCounters {
	return traceCounters{
		a.newNS - b.newNS, a.newCalls - b.newCalls,
		a.msgsNS - b.msgsNS, a.msgsCalls - b.msgsCalls,
		a.transNS - b.transNS, a.transCalls - b.transCalls,
		a.observeNS - b.observeNS, a.observeCalls - b.observeCalls,
		a.suspectsNS - b.suspectsNS, a.suspectsCalls - b.suspectsCalls,
		a.sendNS - b.sendNS, a.sendCalls - b.sendCalls,
		a.sendBytes - b.sendBytes,
	}
}

// busyNS is the wall time spent inside wrapped calls.
func (c traceCounters) busyNS() int64 {
	return c.newNS + c.msgsNS + c.transNS + c.observeNS + c.suspectsNS + c.sendNS
}

// tracer owns the three wrappers a traced pass installs — around the
// rounds.Algorithm, the DetectorSpec and the Network handed to the engine —
// and what they record: totals for every instance, spans for sampled ones.
type tracer struct {
	// sampleEvery keeps spans for instances whose key is a multiple of it.
	sampleEvery uint64
	// keyOf names the instance a New call belongs to. The engine calls
	// Algorithm.New synchronously inside Open, so an engine workload's single
	// issuer sets cur before Open; a kv workload keys by the proposal value,
	// which the generator makes unique per operation.
	keyOf func(cfg rounds.ProcConfig) uint64
	cur   uint64

	newNS, newCalls           atomic.Int64
	msgsNS, msgsCalls         atomic.Int64
	transNS, transCalls       atomic.Int64
	observeNS, observeCalls   atomic.Int64
	suspectsNS, suspectsCalls atomic.Int64
	sendNS, sendCalls         atomic.Int64
	sendBytes                 atomic.Int64
	decideRound, roundsRun    atomic.Int64
	spanID                    atomic.Int64

	// inWindow gates what is sampled rather than totalled: heartbeat gaps
	// and captured packets come from the measured window only.
	inWindow atomic.Bool
	captured atomic.Int64

	mu        sync.Mutex
	insts     map[uint64]*instTrace
	spans     []span
	packets   [][]byte
	detectors []*tracedDetector
}

func newTracer(sampleEvery uint64) *tracer {
	t := &tracer{sampleEvery: sampleEvery, insts: make(map[uint64]*instTrace)}
	t.keyOf = func(rounds.ProcConfig) uint64 { return t.cur }
	return t
}

func (t *tracer) counters() traceCounters {
	return traceCounters{
		t.newNS.Load(), t.newCalls.Load(),
		t.msgsNS.Load(), t.msgsCalls.Load(),
		t.transNS.Load(), t.transCalls.Load(),
		t.observeNS.Load(), t.observeCalls.Load(),
		t.suspectsNS.Load(), t.suspectsCalls.Load(),
		t.sendNS.Load(), t.sendCalls.Load(),
		t.sendBytes.Load(),
	}
}

// inst returns the record of the instance with this key, creating it.
func (t *tracer) inst(key uint64) *instTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	it := t.insts[key]
	if it == nil {
		it = &instTrace{key: key, sampled: key%t.sampleEvery == 0 && len(t.spans) < maxSpans}
		t.insts[key] = it
	}
	return it
}

// finish closes an instance's record and returns it (nil if no automaton was
// ever built for the key). A sampled instance's spans nest as root
// [start, end] — the Open-to-done or request span the caller timed — over the
// consensus window, over the wrapped calls.
func (t *tracer) finish(key uint64, root string, start, end int64) *instTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	it := t.insts[key]
	if it == nil {
		return nil
	}
	delete(t.insts, key)
	if it.sampled {
		rootID, windowID := t.spanID.Add(1), t.spanID.Add(1)
		t.spans = append(t.spans,
			span{ID: rootID, Inst: key, Name: root, Start: start, End: end},
			span{ID: windowID, Parent: rootID, Inst: key, Name: "consensus.window", Start: it.first, End: it.last})
		for _, s := range it.spans {
			s.Parent = windowID
			t.spans = append(t.spans, s)
		}
	}
	return it
}

// record appends one wrapped call to a sampled instance.
func (t *tracer) record(it *instTrace, name string, node model.ProcessID, round int, start, end int64) {
	if !it.sampled {
		return
	}
	it.spans = append(it.spans, span{ID: t.spanID.Add(1), Inst: it.key, Name: name,
		Node: int(node), Round: round, Start: start, End: end})
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// writeSpans stores the kept spans as one JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- rounds.Algorithm seam ---

type tracedAlgorithm struct {
	inner rounds.Algorithm
	tr    *tracer
}

func (a tracedAlgorithm) Name() string { return a.inner.Name() }

func (a tracedAlgorithm) New(cfg rounds.ProcConfig) rounds.Process {
	it := a.tr.inst(a.tr.keyOf(cfg))
	t0 := now()
	p := a.inner.New(cfg)
	t1 := now()
	a.tr.newNS.Add(t1 - t0)
	a.tr.newCalls.Add(1)
	a.tr.record(it, "consensus.new", cfg.ID, 0, t0, t1)
	return &tracedProcess{inner: p, tr: a.tr, it: it, id: cfg.ID}
}

type tracedProcess struct {
	inner   rounds.Process
	tr      *tracer
	it      *instTrace
	id      model.ProcessID
	decided bool
}

func (p *tracedProcess) Msgs(round int) []rounds.Message {
	t0 := now()
	out := p.inner.Msgs(round)
	t1 := now()
	p.tr.msgsNS.Add(t1 - t0)
	p.tr.msgsCalls.Add(1)
	if p.it.first == 0 {
		p.it.first = t0
	}
	p.tr.record(p.it, "consensus.msgs", p.id, round, t0, t1)
	return out
}

func (p *tracedProcess) Trans(round int, received []rounds.Message) {
	t0 := now()
	p.inner.Trans(round, received)
	t1 := now()
	p.tr.transNS.Add(t1 - t0)
	p.tr.transCalls.Add(1)
	p.it.last = t1
	p.tr.record(p.it, "consensus.trans", p.id, round, t0, t1)
	atomicMax(&p.tr.roundsRun, int64(round))
	if !p.decided {
		if _, ok := p.inner.Decision(); ok {
			p.decided = true
			atomicMax(&p.tr.decideRound, int64(round))
		}
	}
}

func (p *tracedProcess) Decision() (model.Value, bool) { return p.inner.Decision() }

// --- DetectorSpec seam ---

// tracedDetector times Observe and Suspects and samples the gap between
// successive control envelopes per sender — the figure to read against the
// suspect timeout. Observe is called only by the owning node's demultiplexer,
// so lastCtl and gaps need no lock; they are read after the engine closed.
type tracedDetector struct {
	runtime.Detector
	tr      *tracer
	lastCtl []int64
	gaps    []int64
}

func (t *tracer) detectorSpec(inner *runtime.DetectorSpec) *runtime.DetectorSpec {
	return &runtime.DetectorSpec{
		Name: inner.Name,
		New: func(cfg runtime.DetectorConfig) (runtime.Detector, error) {
			d, err := inner.New(cfg)
			if err != nil {
				return nil, err
			}
			td := &tracedDetector{Detector: d, tr: t, lastCtl: make([]int64, cfg.N+1)}
			t.mu.Lock()
			t.detectors = append(t.detectors, td)
			t.mu.Unlock()
			return td, nil
		},
	}
}

func (d *tracedDetector) Observe(env wire.Envelope) {
	t0 := now()
	d.Detector.Observe(env)
	t1 := now()
	d.tr.observeNS.Add(t1 - t0)
	d.tr.observeCalls.Add(1)
	if env.Kind.Control() && env.From >= 1 && int(env.From) < len(d.lastCtl) {
		if last := d.lastCtl[env.From]; last != 0 && d.tr.inWindow.Load() {
			d.gaps = append(d.gaps, t0-last)
		}
		d.lastCtl[env.From] = t0
	}
}

func (d *tracedDetector) Suspects() model.ProcSet {
	t0 := now()
	s := d.Detector.Suspects()
	d.tr.suspectsNS.Add(now() - t0)
	d.tr.suspectsCalls.Add(1)
	return s
}

// heartbeatGaps merges every detector's sampled gaps. Call after the engine
// closed.
func (t *tracer) heartbeatGaps() *sample {
	var s sample
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.detectors {
		s.v = append(s.v, d.gaps...)
	}
	return &s
}

// --- EngineConfig.Network seam ---

// tracedNetwork wraps the engine's default in-process mesh. It forwards
// Telemetry so Engine.Stats().Cost keeps its per-link accounting.
type tracedNetwork struct {
	inner *runtime.ChanNetwork
	tr    *tracer
}

// network builds the mesh the engine would build for itself (ChanNetwork,
// delay uniform in [0, 1ms), seed 0, 2^15-deep inboxes), wrapped.
func (t *tracer) network(n int) *tracedNetwork {
	return &tracedNetwork{tr: t, inner: runtime.NewChanNetwork(n, defaultMesh)}
}

func (nw *tracedNetwork) Endpoint(id model.ProcessID) runtime.Transport {
	return &tracedEndpoint{Transport: nw.inner.Endpoint(id), tr: nw.tr}
}

func (nw *tracedNetwork) Close() error { return nw.inner.Close() }

func (nw *tracedNetwork) Telemetry() *netobs.LinkTap { return nw.inner.Telemetry() }

type tracedEndpoint struct {
	runtime.Transport
	tr *tracer
}

func (e *tracedEndpoint) Send(to model.ProcessID, data []byte) error {
	t0 := now()
	err := e.Transport.Send(to, data)
	e.tr.sendNS.Add(now() - t0)
	e.tr.sendCalls.Add(1)
	e.tr.sendBytes.Add(int64(len(data)))
	// Both senders (the batcher and the detector) surrender the slice they
	// pass to Send, so a packet is kept for the replays without a copy.
	if e.tr.inWindow.Load() && e.tr.captured.Add(1) <= maxCapture {
		e.tr.mu.Lock()
		e.tr.packets = append(e.tr.packets, data)
		e.tr.mu.Unlock()
	}
	return err
}
