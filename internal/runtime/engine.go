package runtime

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// Engine metric names.
const (
	// MetricEngineUnknownInstance counts inbound round messages carrying an
	// instance id outside the engine's opened range — dropped at the
	// demultiplexer (stray traffic from a misconfigured peer, or corruption
	// that survived decoding).
	MetricEngineUnknownInstance = "ssfd_engine_unknown_instance_total"
	// MetricEngineInstancesDecided counts (instance, node) decisions.
	MetricEngineInstancesDecided = "ssfd_engine_decisions_total"
	// MetricEngineInstancesOpened counts instances admitted by Open.
	MetricEngineInstancesOpened = "ssfd_engine_instances_opened_total"
	// MetricEngineInstancesDone counts instances that ran to completion.
	MetricEngineInstancesDone = "ssfd_engine_instances_done_total"
)

// Engine lifecycle errors.
var (
	// ErrEngineDraining is returned by Open once Drain or Close has been
	// called: the engine finishes its in-flight instances but admits no new
	// ones (a serving daemon maps this to HTTP 503).
	ErrEngineDraining = errors.New("runtime: engine draining, not admitting instances")
	// ErrEngineClosed resolves an instance that was still in flight when the
	// engine tore down before it could complete (only possible after an
	// engine abort — a clean Close waits in-flight instances out).
	ErrEngineClosed = errors.New("runtime: engine closed before the instance completed")
)

// CrashPlan injects a crash into a live node: during round Round the node
// sends its messages to only the first Reach destinations (in increasing
// id order, skipping itself) and then halts without applying the round's
// transition — the live counterpart of the round engines' crash semantics.
// A plan with Round 0 means "never crash".
type CrashPlan struct {
	Round int
	Reach int
}

// EngineConfig assembles a shared-mesh multi-instance execution: N nodes,
// ONE physical mesh, ONE failure detector per node, and any number of
// concurrent consensus instances multiplexed over them.
//
// This is the repository's only live runtime; RunCluster is a one-instance
// run of it. Both round models execute on the same send → receive →
// transition loop and differ in one rule, when a round may close (Kind).
type EngineConfig struct {
	// Kind selects the close rule; zero means rounds.RWS. RWS closes a round
	// once every peer was heard from or is suspected by the node's detector
	// (weak round synchrony, Lemma 4.1). RS closes round r of an instance at
	// epoch + r·RoundDuration, the epoch being anchored EpochHeadroom after
	// the instance's Open (round synchrony: requires a network whose delay
	// stays below RoundDuration); no failure detector is built.
	Kind rounds.ModelKind
	// RoundDuration paces RS rounds (default 25ms: comfortably above the
	// default network's 1ms delay bound).
	RoundDuration time.Duration
	// EpochHeadroom is the slack between an RS instance's Open and its
	// round-1 barrier. Zero scales with the cluster size (10ms + 2ms·n).
	EpochHeadroom time.Duration

	// N is the cluster size, T the resilience bound.
	N, T int

	// Groups is the number of shard workers instances are distributed
	// across (instance k belongs to worker k mod Groups). Default:
	// min(8, GOMAXPROCS). Sharding is a throughput knob, not a semantic
	// one — results are independent of it (the equivalence tests pin this).
	Groups int

	// Network supplies the shared mesh; nil builds the default in-process
	// synchronous network with Buffer-deep inboxes.
	Network interface {
		Endpoint(model.ProcessID) Transport
		Close() error
	}
	// Buffer sizes the default network's per-endpoint inbox (default 2^15:
	// the multiplexed mesh carries every instance's traffic through n
	// inboxes, so the single-instance default of 1024 would overflow).
	Buffer int

	// HeartbeatPeriod and SuspectTimeout configure the per-node failure
	// detectors (defaults 2ms / 30ms: perfect over the default network).
	HeartbeatPeriod time.Duration
	SuspectTimeout  time.Duration
	// Detector selects the construction (nil: all-to-all heartbeat). ONE
	// detector is built per node — not per instance — over the node's raw
	// (fault-wrapped, unbatched) endpoint; its control traffic is what the
	// engine amortizes across instances.
	Detector *DetectorSpec
	// AdaptiveTimeout switches the detectors to the ◇P construction: each
	// retraction doubles the suspicion timeout, up to 64× the initial one.
	// Without it a network beyond its Δ bound makes them permanently
	// inaccurate.
	AdaptiveTimeout bool

	// MaxRounds is a safety cap (default T+2), not the length of a run:
	// instances halt at quiescence — an automaton that has decided and whose
	// Msgs for its next round is nil stops there (see rounds.Process), which
	// for every algorithm in this repository is after round T+1. Only an
	// algorithm that never goes quiet runs to the cap.
	MaxRounds int
	// WaitBound bounds an RWS round's receive-or-suspect wait in wall-clock
	// time. The RWS model itself never needs it — a missing sender is
	// eventually suspected — but a network that *loses* data messages while
	// heartbeats still flow starves the wait forever (the peer is provably
	// alive, its message provably never coming). On expiry the automaton
	// proceeds with what it has and the expiry is counted
	// (ssfd_node_wait_timeouts_total, InstanceOutcome.WaitTimeouts). Zero
	// defaults to 30s: with 100k instances in flight a single starved wait
	// must degrade one instance, not hang the process. Negative keeps the
	// model-faithful unbounded wait.
	WaitBound time.Duration

	// Batch tunes the per-link send batching of round traffic. Detector
	// control traffic is never batched — a queued heartbeat is a false
	// suspicion waiting to happen.
	Batch BatcherConfig

	// Faults, when non-nil, interposes the seeded per-link injector between
	// every node and the mesh — beneath the batcher and the detector, so
	// faults stay per-link: a dropped packet takes a whole batch, a delayed
	// packet delays every instance riding in it, exactly like a real link.
	Faults *faults.Config

	// OnInstanceDone, when non-nil, is invoked once per instance when its
	// last automaton halts, from the owning worker goroutine — it must not
	// block (a slow callback stalls every instance sharded to that worker).
	// A serving layer uses it to resolve waiters and feed its conformance
	// monitor without a goroutine per instance.
	OnInstanceDone func(inst uint64, out InstanceOutcome)

	// Metrics receives the engine's instruments; nil uses obs.Default.
	Metrics *obs.Registry
	// Events, when non-nil, receives what is not per instance: the shared
	// detectors' suspect/retract edges, the fault injector's partition/
	// heal/crash/recover transitions and the closing cost event. Round
	// events are per instance (OpenOptions.Events), so 100k unobserved
	// instances emit nothing. The sink must be safe for concurrent use.
	Events obs.Sink
	// Flight, when non-nil, receives the default network's and the fault
	// injector's transport flight records (see netobs.Recorder).
	Flight *netobs.Recorder
}

// OpenOptions attaches observation and faults to one instance.
type OpenOptions struct {
	// Events, when non-nil, receives the instance's round events from its
	// owning worker: round_start, send (before the first frame leaves),
	// arrive (once per sender and round), recv (the peers a round closed
	// with), decide and crash — what tracing.Tracer and conform.Project
	// consume. An unobserved instance pays one nil check per hook.
	Events obs.Sink
	// Crashes schedules crash plans per node. Crash-stop is a property of
	// the node, not of the instance: when a plan fires the node's shared
	// detector is stopped and every automaton of the node in every
	// instance halts, without sending or transitioning, at its next advance.
	Crashes map[model.ProcessID]CrashPlan
}

// NodeOutcome is one node's share of an instance beyond its decision.
type NodeOutcome struct {
	DecidedAt    int32 // round of the decision; 0 if undecided
	Rounds       int32 // rounds completed (transitions applied)
	WaitTimeouts int32 // rounds cut short under WaitBound
	Crashed      bool  // the node crash-stopped before the instance ended
}

// InstanceOutcome is one completed instance's result across the n nodes.
type InstanceOutcome struct {
	N int
	// Decided and Decisions are indexed id-1.
	Decided   []bool
	Decisions []model.Value
	// WaitTimeouts counts rounds this instance cut short under WaitBound.
	WaitTimeouts int
	// Nodes is indexed id-1 (nil when Err is set).
	Nodes []NodeOutcome
	// Err is non-nil only when the engine tore down (abort or Close) before
	// the instance completed; the decision slices are then all-undecided.
	Err error
}

// Agreement folds the instance's decisions into the three-way verdict.
func (o InstanceOutcome) Agreement() (model.Value, AgreementStatus) {
	return agreementOf(o.Decisions, o.Decided)
}

// Instance is the handle returned by Engine.Open: a future resolved when
// the instance's last automaton halts.
type Instance struct {
	id   uint64
	done chan struct{}

	mu  sync.Mutex
	out InstanceOutcome
	ok  bool
}

// ID returns the instance's wire id.
func (h *Instance) ID() uint64 { return h.id }

// Done is closed when the outcome is available.
func (h *Instance) Done() <-chan struct{} { return h.done }

// Outcome returns the result; ok is false while the instance is in flight.
func (h *Instance) Outcome() (InstanceOutcome, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.out, h.ok
}

func (h *Instance) resolve(out InstanceOutcome) {
	h.mu.Lock()
	h.out = out
	h.ok = true
	h.mu.Unlock()
	close(h.done)
}

// EngineStats is a point-in-time snapshot of a live engine — the numbers a
// serving daemon's status endpoint reports.
type EngineStats struct {
	N, Groups int
	Algorithm string
	Detector  string

	Opened    int64 // instances admitted
	Completed int64 // instances whose every automaton halted
	InFlight  int64 // Opened - Completed

	DecidedNodes int64 // (instance, node) decisions

	// Agreement verdict tally over completed instances.
	AgreementNone     int64
	AgreementReached  int64
	AgreementViolated int64

	WaitTimeouts         int64
	UnknownInstanceDrops int64

	// Backlog is the number of events (round messages, registrations)
	// queued in the shard workers' mailboxes at snapshot time — the
	// at-a-glance congestion figure a drain decision reads.
	Backlog int64

	// Detector audit, summed over the n shared detectors: FalselySuspected
	// counts (observer, target) pairs whose target never crash-stopped.
	FalseSuspicions    int64
	Retractions        int64
	FalselySuspected   int64
	EncodeErrors       int64
	DetectorWasPerfect bool

	Uptime time.Duration

	// Cost is the engine's transport accounting so far (per decided node).
	Cost *obs.CostSummary
}

// engEvent is one worker mailbox entry: either a routed round message (a
// decoded envelope plus the node it was delivered to) or — when slab is
// non-nil — an instance registration from Open.
type engEvent struct {
	node model.ProcessID
	env  wire.Envelope
	slab *instSlab
}

// mailbox is a worker's unbounded inbox. Unbounded by design: the demux
// goroutines must never block on a busy worker (a blocked demux stops
// feeding the failure detector, manufacturing false suspicions), so
// backpressure is traded for memory that is bounded in practice by
// instances × rounds.
type mailbox struct {
	mu     sync.Mutex
	q      []engEvent
	notify chan struct{}
}

func (mb *mailbox) push(ev engEvent) {
	mb.mu.Lock()
	mb.q = append(mb.q, ev)
	mb.mu.Unlock()
	mb.wake()
}

// pushAll queues one packet's worth of events under one lock and one wake.
func (mb *mailbox) pushAll(evs []engEvent) {
	mb.mu.Lock()
	mb.q = append(mb.q, evs...)
	mb.mu.Unlock()
	mb.wake()
}

// wake nudges the worker without queueing anything.
func (mb *mailbox) wake() {
	select {
	case mb.notify <- struct{}{}:
	default:
	}
}

// empty reports whether the queue is drained (used by the shutdown check:
// a closing worker may not exit with a registration still queued).
func (mb *mailbox) empty() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.q) == 0
}

// drain swaps the queue against the (emptied) spare buffer.
func (mb *mailbox) drain(spare []engEvent) []engEvent {
	mb.mu.Lock()
	q := mb.q
	mb.q = spare[:0]
	mb.mu.Unlock()
	return q
}

// instRow buffers one round's inbound messages for one (instance, node)
// automaton: presence bits (a null message is a present message with a nil
// payload) plus the lazily allocated payload row, freed after Trans.
type instRow struct {
	got  model.ProcSet
	msgs []rounds.Message
}

// instState is one (instance, node) automaton multiplexed on the mesh.
type instState struct {
	proc rounds.Process
	slab *instSlab
	id   model.ProcessID

	round   int32 // round currently executing; 0 = halted
	sent    bool  // this round's messages already transmitted
	queued  bool  // sitting in the worker's dirty list
	selfMsg rounds.Message
	started time.Time // when the current round began
	rows    []instRow // index 1..MaxRounds

	decided  bool
	decision model.Value
	out      NodeOutcome
}

// instSlab is one instance's n automata, allocated as a unit when the
// instance is opened and released as a unit when the last automaton halts.
// Keeping each instance in its own slab gives the worker stable automaton
// pointers across dynamic registration (a single growing states slice
// would invalidate pointers on every append).
type instSlab struct {
	inst      uint64
	states    []instState // index id-1
	remaining int         // automata not yet halted
	epoch     time.Time   // RS: round r closes at epoch + r·RoundDuration
	events    obs.Sink    // nil for unobserved instances (the common case)
	crashes   map[model.ProcessID]CrashPlan
}

// engWorker owns the instances k with k mod Groups == idx and advances
// their n automata from its mailbox.
type engWorker struct {
	run *engineRun
	idx int

	mb     mailbox
	spare  []engEvent
	slabs  []*instSlab // index inst/Groups - base; nil once the instance completed
	base   int         // local index of slabs[0]: the completed prefix is trimmed
	active int
	dirty  []*instState

	suspects     []model.ProcSet // cached per node, 1..n
	crashed      model.ProcSet   // cached engineRun.crashed
	now          time.Time       // the sweep's clock, read once per sweep
	nextDeadline time.Time       // earliest round deadline among blocked automata
	scratch      []rounds.Message
}

// engineRun is the shared state of one engine's lifetime.
type engineRun struct {
	cfg       EngineConfig
	alg       rounds.Algorithm
	n         int
	maxRounds int

	codec    wire.Codec
	batchers []*Batcher // 1..n, round traffic only
	fds      []Detector // 1..n, shared per node; nil entries under RS
	workers  []*engWorker
	// crashed is the set of crash-stopped nodes (a model.ProcSet). A bit is
	// set before the node's detector stops, and workers read it before they
	// poll suspicions, so whoever sees the suspicion also sees the crash.
	crashed atomic.Uint64

	metrics      nodeMetrics
	unknown      *obs.Counter
	decidedCtr   *obs.Counter
	openedCtr    *obs.Counter
	doneCtr      *obs.Counter
	unknownCount atomic.Int64
	waitTimeouts atomic.Int64
	decidedNodes atomic.Int64

	opened    atomic.Uint64 // next instance id; demux drops ids at or past it
	closing   atomic.Bool   // workers exit once idle
	completed atomic.Int64
	tally     [3]atomic.Int64 // AgreementStatus tallies over completed instances

	handleMu sync.Mutex
	handles  map[uint64]*Instance // in-flight only

	abortOnce sync.Once
	abortCh   chan struct{}
	abortMu   sync.Mutex
	abortErr  error
}

// crashNode crash-stops node id for the whole engine.
func (er *engineRun) crashNode(id model.ProcessID) {
	bit := uint64(model.Singleton(id))
	for {
		old := er.crashed.Load()
		if old&bit != 0 {
			return
		}
		if er.crashed.CompareAndSwap(old, old|bit) {
			break
		}
	}
	if fd := er.fds[id]; fd != nil {
		fd.Stop()
	}
	for _, w := range er.workers {
		w.mb.wake()
	}
}

// abort records the first fatal error and releases every worker.
func (er *engineRun) abort(err error) {
	er.abortMu.Lock()
	if er.abortErr == nil {
		er.abortErr = err
	}
	er.abortMu.Unlock()
	er.abortOnce.Do(func() { close(er.abortCh) })
}

// finish resolves one completed instance: verdict tally, handle, callback.
// Called from the owning worker (or from Close for aborted leftovers).
func (er *engineRun) finish(inst uint64, out InstanceOutcome) {
	_, status := agreementOf(out.Decisions, out.Decided)
	er.tally[status].Add(1)
	er.completed.Add(1)
	er.doneCtr.Inc()
	er.handleMu.Lock()
	h := er.handles[inst]
	delete(er.handles, inst)
	er.handleMu.Unlock()
	if h != nil {
		h.resolve(out)
	}
	if er.cfg.OnInstanceDone != nil {
		er.cfg.OnInstanceDone(inst, out)
	}
}

// Engine is the long-lived form of the shared-mesh runtime: one mesh, one
// failure detector per node, and consensus instances admitted dynamically
// through Open — the backing of a consensus-serving daemon.
//
// Lifecycle: StartEngine brings up detectors, demultiplexers and shard
// workers; Open admits instances until Drain or Close; Close finishes the
// in-flight instances, joins every goroutine and tears the mesh down.
type Engine struct {
	er  *engineRun
	reg *obs.Registry
	ws  *netobs.WireStats

	network interface {
		Endpoint(model.ProcessID) Transport
		Close() error
	}
	inj *faults.Injector

	stopDemux chan struct{}
	demuxWG   sync.WaitGroup
	workerWG  sync.WaitGroup

	start time.Time

	drainMu  sync.Mutex
	draining bool

	closeOnce sync.Once
	closeErr  error
	closedCh  chan struct{}
}

// StartEngine brings up a live shared-mesh engine and returns once every
// detector, demultiplexer and shard worker is running; a rejected config
// fails before any goroutine starts.
func StartEngine(alg rounds.Algorithm, cfg EngineConfig) (*Engine, error) {
	n := cfg.N
	if n < 1 {
		return nil, fmt.Errorf("runtime: engine: empty cluster")
	}
	if n > 63 {
		return nil, fmt.Errorf("runtime: engine: n=%d exceeds the 63-process bound", n)
	}
	switch cfg.Kind {
	case 0:
		cfg.Kind = rounds.RWS
	case rounds.RWS, rounds.RS:
	default:
		return nil, fmt.Errorf("runtime: engine: unknown model kind %v", cfg.Kind)
	}
	if cfg.RoundDuration <= 0 {
		cfg.RoundDuration = 25 * time.Millisecond
	}
	if cfg.EpochHeadroom <= 0 {
		cfg.EpochHeadroom = 10*time.Millisecond + time.Duration(n)*2*time.Millisecond
	}
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = 2 * time.Millisecond
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 30 * time.Millisecond
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = cfg.T + 2
	}
	if cfg.WaitBound == 0 {
		cfg.WaitBound = 30 * time.Second
	}
	if cfg.Groups <= 0 {
		cfg.Groups = stdruntime.GOMAXPROCS(0)
		if cfg.Groups > 8 {
			cfg.Groups = 8
		}
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1 << 15
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	spec := cfg.Detector
	if spec == nil {
		spec = HeartbeatDetector()
	}

	ws := netobs.NewWireStats(reg)
	er := &engineRun{
		cfg:        cfg,
		alg:        alg,
		n:          n,
		maxRounds:  cfg.MaxRounds,
		codec:      wire.Codec{Tap: ws},
		batchers:   make([]*Batcher, n+1),
		fds:        make([]Detector, n+1),
		metrics:    newNodeMetrics(reg, alg.Name(), cfg.Kind),
		unknown:    reg.Counter(MetricEngineUnknownInstance),
		decidedCtr: reg.Counter(MetricEngineInstancesDecided),
		openedCtr:  reg.Counter(MetricEngineInstancesOpened),
		doneCtr:    reg.Counter(MetricEngineInstancesDone),
		handles:    make(map[uint64]*Instance),
		abortCh:    make(chan struct{}),
	}

	network := cfg.Network
	if network == nil {
		network = NewChanNetwork(n, ChanConfig{
			MaxDelay: time.Millisecond, Metrics: reg, Buffer: cfg.Buffer, Flight: cfg.Flight,
		})
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		fcfg := *cfg.Faults
		if fcfg.Metrics == nil {
			fcfg.Metrics = reg
		}
		if fcfg.Events == nil {
			fcfg.Events = cfg.Events
		}
		if fcfg.Flight == nil {
			fcfg.Flight = cfg.Flight
		}
		inj = faults.NewInjector(fcfg)
	}

	// Per-node plumbing: endpoint → (injector) → {detector, batcher, demux}.
	endpoints := make([]Transport, n+1)
	bcfg := cfg.Batch
	if bcfg.Metrics == nil {
		bcfg.Metrics = reg
	}
	for i := 1; i <= n; i++ {
		var tr Transport = network.Endpoint(model.ProcessID(i))
		if inj != nil {
			tr = inj.Wrap(tr)
		}
		endpoints[i] = tr
		// Under RS er.fds[i] stays an untyped nil: the fd != nil guards rely
		// on it.
		if cfg.Kind == rounds.RWS {
			d, err := spec.New(DetectorConfig{
				Transport: tr, N: n,
				Period: cfg.HeartbeatPeriod, Timeout: cfg.SuspectTimeout,
				Adaptive: cfg.AdaptiveTimeout,
			})
			if err != nil {
				// Already-built detectors hold no goroutines before Start,
				// but Stop anyway: the contract says it is safe, and
				// constructions with eager resources rely on it.
				for j := 1; j < i; j++ {
					er.fds[j].Stop()
					_ = er.batchers[j].Close()
				}
				if inj != nil {
					_ = inj.Close()
				}
				_ = network.Close()
				return nil, fmt.Errorf("runtime: engine node %d: detector %q: %w", i, spec.Name, err)
			}
			d.Instrument(reg, cfg.Events)
			d.UseCodec(er.codec)
			er.fds[i] = d
		}
		er.batchers[i] = NewBatcher(tr, bcfg)
	}

	// Shard workers: worker w owns instances {k : k mod Groups == w}.
	er.workers = make([]*engWorker, cfg.Groups)
	for w := range er.workers {
		ew := &engWorker{
			run:      er,
			idx:      w,
			suspects: make([]model.ProcSet, n+1),
			scratch:  make([]rounds.Message, n+1),
		}
		ew.mb.notify = make(chan struct{}, 1)
		er.workers[w] = ew
	}

	e := &Engine{
		er:        er,
		reg:       reg,
		ws:        ws,
		network:   network,
		inj:       inj,
		stopDemux: make(chan struct{}),
		start:     time.Now(),
		closedCh:  make(chan struct{}),
	}
	for i := 1; i <= n; i++ {
		if er.fds[i] != nil {
			er.fds[i].Start()
		}
	}
	// One demux goroutine per node feeds the detector and routes round
	// traffic to the owning worker.
	for i := 1; i <= n; i++ {
		e.demuxWG.Add(1)
		go er.demuxLoop(&e.demuxWG, model.ProcessID(i), endpoints[i], e.stopDemux)
	}
	for _, w := range er.workers {
		e.workerWG.Add(1)
		go w.loop(&e.workerWG)
	}
	return e, nil
}

// Open admits one consensus instance: node id proposes initial(id) (nil
// proposes 0 everywhere). The returned handle resolves when every automaton
// has halted. Open fails with ErrEngineDraining after Drain or Close, and
// with the engine's abort error once a transport failure has aborted it.
func (e *Engine) Open(initial func(model.ProcessID) model.Value) (*Instance, error) {
	return e.OpenWith(initial, OpenOptions{})
}

// OpenWith is Open with an event sink and/or crash plans attached to the
// instance; the zero OpenOptions is exactly Open.
func (e *Engine) OpenWith(initial func(model.ProcessID) model.Value, opts OpenOptions) (*Instance, error) {
	er := e.er
	n := er.n
	// The drain lock orders Open against Close: once Close flips draining,
	// every admitted instance's registration is already in its worker's
	// mailbox, so the workers' exit check (closing && idle && empty
	// mailbox) cannot strand a registration.
	e.drainMu.Lock()
	defer e.drainMu.Unlock()
	if e.draining {
		return nil, ErrEngineDraining
	}
	select {
	case <-er.abortCh:
		// The workers are gone: a registration would sit in a mailbox nobody
		// drains and the handle could resolve only at Close.
		return nil, fmt.Errorf("runtime: engine aborted: %w", e.Err())
	default:
	}
	id := er.opened.Add(1) - 1
	h := &Instance{id: id, done: make(chan struct{})}
	er.handleMu.Lock()
	er.handles[id] = h
	er.handleMu.Unlock()

	sl := &instSlab{inst: id, states: make([]instState, n), remaining: n,
		events: opts.Events, crashes: opts.Crashes}
	if er.cfg.Kind == rounds.RS {
		sl.epoch = time.Now().Add(er.cfg.EpochHeadroom)
	}
	rows := make([]instRow, n*(er.maxRounds+1)) // one allocation for the n automata
	for i := 1; i <= n; i++ {
		var v model.Value
		if initial != nil {
			v = initial(model.ProcessID(i))
		}
		st := &sl.states[i-1]
		st.proc = er.alg.New(rounds.ProcConfig{ID: model.ProcessID(i), N: n, T: er.cfg.T, Initial: v})
		st.slab = sl
		st.id = model.ProcessID(i)
		st.round = 1
		st.rows, rows = rows[:er.maxRounds+1:er.maxRounds+1], rows[er.maxRounds+1:]
	}
	er.openedCtr.Inc()
	er.workers[int(id%uint64(len(er.workers)))].mb.push(engEvent{slab: sl})
	return h, nil
}

// OpenValue admits an instance where every node proposes the same value —
// the state-machine-replication case (one client command per slot).
func (e *Engine) OpenValue(v model.Value) (*Instance, error) {
	return e.Open(func(model.ProcessID) model.Value { return v })
}

// Drain stops admitting new instances; in-flight ones keep running.
func (e *Engine) Drain() {
	e.drainMu.Lock()
	e.draining = true
	e.drainMu.Unlock()
}

// Closed is closed once Close has fully torn the engine down.
func (e *Engine) Closed() <-chan struct{} { return e.closedCh }

// N returns the cluster size.
func (e *Engine) N() int { return e.er.n }

// Algorithm returns the algorithm the engine runs.
func (e *Engine) Algorithm() rounds.Algorithm { return e.er.alg }

// Err returns the engine's first fatal error, if any.
func (e *Engine) Err() error {
	e.er.abortMu.Lock()
	defer e.er.abortMu.Unlock()
	return e.er.abortErr
}

// Stats snapshots the engine. Safe to call concurrently with everything,
// including after Close.
func (e *Engine) Stats() EngineStats {
	er := e.er
	s := EngineStats{
		N:                    er.n,
		Groups:               len(er.workers),
		Algorithm:            er.alg.Name(),
		Opened:               int64(er.opened.Load()),
		Completed:            er.completed.Load(),
		DecidedNodes:         er.decidedNodes.Load(),
		AgreementNone:        er.tally[AgreementNone].Load(),
		AgreementReached:     er.tally[AgreementReached].Load(),
		AgreementViolated:    er.tally[AgreementViolated].Load(),
		WaitTimeouts:         er.waitTimeouts.Load(),
		UnknownInstanceDrops: er.unknownCount.Load(),
		Uptime:               time.Since(e.start),
	}
	s.InFlight = s.Opened - s.Completed
	for _, w := range er.workers {
		w.mb.mu.Lock()
		s.Backlog += int64(len(w.mb.q))
		w.mb.mu.Unlock()
	}
	crashed := model.ProcSet(er.crashed.Load())
	for i := 1; i <= er.n; i++ {
		fd := er.fds[i]
		if fd == nil {
			continue
		}
		s.Detector = fd.Name()
		s.FalseSuspicions += fd.FalseSuspicions()
		s.Retractions += fd.Retractions()
		s.EncodeErrors += fd.EncodeErrors()
		// Strong-accuracy audit: a sticky suspicion of a process that never
		// crash-stopped is a perfection violation even when it was never
		// retracted. Injector-crashed nodes count too — crash/recovery is
		// outside the crash-stop model.
		s.FalselySuspected += int64(fd.EverSuspected().Minus(crashed).Count())
	}
	s.DetectorWasPerfect = s.FalseSuspicions == 0 && s.FalselySuspected == 0
	s.Cost = netobs.ComputeCost(int(s.DecidedNodes), e.ws, e.links())
	return s
}

// Close drains the engine, waits the in-flight instances out, joins every
// goroutine and tears the mesh down. Idempotent; returns the engine's first
// fatal error, if any. Instances still unresolved after the workers exit
// (possible only on abort) are failed with ErrEngineClosed or the abort
// error.
func (e *Engine) Close() error {
	e.Drain()
	e.closeOnce.Do(func() {
		er := e.er
		er.closing.Store(true)
		for _, w := range er.workers {
			w.mb.wake()
		}
		e.workerWG.Wait()
		for i := 1; i <= er.n; i++ {
			if er.fds[i] != nil {
				er.fds[i].Stop()
			}
		}
		close(e.stopDemux)
		e.demuxWG.Wait()
		for i := 1; i <= er.n; i++ {
			_ = er.batchers[i].Close()
		}
		if e.inj != nil {
			_ = e.inj.Close()
		}
		_ = e.network.Close()

		er.abortMu.Lock()
		err := er.abortErr
		er.abortMu.Unlock()
		// Fail whatever is still pending (aborted workers leave instances
		// behind); finish() keeps the tallies and callbacks consistent.
		er.handleMu.Lock()
		var stranded []uint64
		for id := range er.handles {
			stranded = append(stranded, id)
		}
		er.handleMu.Unlock()
		for _, id := range stranded {
			ferr := err
			if ferr == nil {
				ferr = ErrEngineClosed
			}
			er.finish(id, InstanceOutcome{
				N:         er.n,
				Decided:   make([]bool, er.n),
				Decisions: make([]model.Value, er.n),
				Err:       ferr,
			})
		}
		cost := netobs.ComputeCost(int(er.decidedNodes.Load()), e.ws, e.links())
		netobs.PublishCost(e.reg, cost)
		if er.cfg.Events != nil {
			er.cfg.Events.Emit(obs.Event{Type: obs.EventCost, Cost: cost})
		}
		e.closeErr = err
		close(e.closedCh)
	})
	return e.closeErr
}

// Injector returns the engine's fault injector (nil without
// EngineConfig.Faults); its PartitionLog and Decisions stay readable after
// Close.
func (e *Engine) Injector() *faults.Injector { return e.inj }

func (e *Engine) links() *netobs.LinkTap {
	if ts, ok := e.network.(TelemetrySource); ok {
		return ts.Telemetry()
	}
	return nil
}

// demuxLoop decodes one node's inbound packets (splitting batches), feeds
// the shared detector and routes round messages to the owning worker.
func (er *engineRun) demuxLoop(wg *sync.WaitGroup, id model.ProcessID, tr Transport, stop <-chan struct{}) {
	defer wg.Done()
	fd := er.fds[id]
	// A packet's frames reach each owning worker in one push: a batch of 32
	// frames takes the mailbox lock once per worker, not 32 times.
	routed := make([][]engEvent, len(er.workers))
	for {
		select {
		case <-stop:
			return
		case pkt, ok := <-tr.Recv():
			if !ok {
				return
			}
			_ = wire.SplitBatch(pkt.Data, func(frame []byte) error {
				env, err := er.codec.Decode(frame)
				if err != nil {
					return nil // corrupt frame: drop, keep the batch
				}
				if fd != nil {
					fd.Observe(env)
				}
				if env.Kind.Control() {
					er.metrics.heartbeats.Inc()
					return nil
				}
				if env.Instance >= er.opened.Load() ||
					env.From < 1 || int(env.From) > er.n {
					er.unknown.Inc()
					er.unknownCount.Add(1)
					return nil
				}
				w := int(env.Instance % uint64(len(er.workers)))
				routed[w] = append(routed[w], engEvent{node: id, env: env})
				return nil
			})
			for w, evs := range routed {
				if len(evs) == 0 {
					continue
				}
				er.workers[w].mb.pushAll(evs)
				clear(evs) // drop the payload references
				routed[w] = evs[:0]
			}
		}
	}
}

// slabFor maps an instance id to its slab, or nil once it completed (late
// duplicates for a finished instance are dropped).
func (w *engWorker) slabFor(inst uint64) *instSlab {
	local := int(inst)/len(w.run.workers) - w.base
	if local < 0 || local >= len(w.slabs) {
		return nil
	}
	return w.slabs[local]
}

// register files a newly opened instance with its owning worker.
func (w *engWorker) register(sl *instSlab) {
	local := int(sl.inst)/len(w.run.workers) - w.base
	for len(w.slabs) <= local {
		w.slabs = append(w.slabs, nil)
	}
	w.slabs[local] = sl
	w.active += len(sl.states)
	for i := range sl.states {
		w.enqueue(&sl.states[i])
	}
}

// enqueue marks st for advancement in the current sweep.
func (w *engWorker) enqueue(st *instState) {
	if st.queued || st.round == 0 {
		return
	}
	st.queued = true
	w.dirty = append(w.dirty, st)
}

// enqueueAll schedules a full rescan — a suspicion changed, a round
// deadline passed or a node crash-stopped, any of which can release (or
// halt) any blocked automaton. The walk is O(in-flight): completed
// instances are trimmed from w.slabs.
func (w *engWorker) enqueueAll() {
	for _, sl := range w.slabs {
		if sl == nil {
			continue
		}
		for i := range sl.states {
			w.enqueue(&sl.states[i])
		}
	}
}

// refreshCrashed re-reads the engine's crash-stopped set and reports
// whether it grew.
func (w *engWorker) refreshCrashed() bool {
	c := model.ProcSet(w.run.crashed.Load())
	if c == w.crashed {
		return false
	}
	w.crashed = c
	return true
}

// refreshSuspects snapshots each live node's suspicion set once per sweep
// and reports whether any changed. Polling here (not per automaton) keeps
// the detector cost independent of the instance count — the whole point. A
// crash-stopped node no longer consults its detector.
func (w *engWorker) refreshSuspects() bool {
	changed := false
	for i := 1; i <= w.run.n; i++ {
		fd := w.run.fds[i]
		if fd == nil || w.crashed.Has(model.ProcessID(i)) {
			continue
		}
		if s := fd.Suspects(); s != w.suspects[i] {
			w.suspects[i] = s
			changed = true
		}
	}
	return changed
}

// loop is the worker body: drain events, advance dirty automata, flush the
// batched sends, sleep until traffic, the tick or the next round deadline.
func (w *engWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	tick := w.run.cfg.SuspectTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	// One timer serves both wake-up reasons: it is armed to the tick (the
	// suspicion poll) or to the earliest round deadline, whichever is first,
	// and re-armed only after it fired or when a deadline precedes it.
	timer := time.NewTimer(tick)
	defer timer.Stop()
	armed := time.Now().Add(tick)
	fired := false

	for {
		// Crashes before suspicions: see engineRun.crashed.
		rescan := w.refreshCrashed()
		if w.refreshSuspects() || rescan {
			w.enqueueAll()
		}
		events := w.mb.drain(w.spare)
		for i := range events {
			w.deliver(&events[i])
			events[i] = engEvent{} // drop slab/payload references for reuse
		}
		w.spare = events
		// Round stamps and deadline checks share one clock reading per sweep:
		// an automaton is advanced on every delivery, and a clock read per
		// advance is measurable at 10^5 deliveries a second.
		w.now = time.Now()
		if !w.nextDeadline.IsZero() && !w.now.Before(w.nextDeadline) {
			w.nextDeadline = time.Time{}
			w.enqueueAll()
		}
		for len(w.dirty) > 0 {
			st := w.dirty[len(w.dirty)-1]
			w.dirty = w.dirty[:len(w.dirty)-1]
			st.queued = false
			w.advance(st)
		}
		// Round completions above queued sends on the node batchers; push
		// them out now so peers don't wait out the flush timer.
		for i := 1; i <= w.run.n; i++ {
			if err := w.run.batchers[i].Flush(); err != nil && err != ErrClosed {
				w.run.abort(err)
			}
		}
		// A long-lived engine's workers idle through empty sweeps; they only
		// exit once the engine is closing, every owned automaton has halted
		// and no registration is waiting in the mailbox (Close orders Open
		// registrations strictly before the closing flag).
		if w.active == 0 && w.run.closing.Load() && w.mb.empty() {
			return
		}
		if due := w.nextDeadline; fired || (!due.IsZero() && due.Before(armed)) {
			now, d := time.Now(), tick
			if !due.IsZero() && due.Sub(now) < d {
				d = due.Sub(now)
			}
			if !fired && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d)
			armed, fired = now.Add(d), false
		}
		select {
		case <-w.mb.notify:
		case <-timer.C:
			fired = true
		case <-w.run.abortCh:
			return
		}
	}
}

// deliver files one mailbox event: a registration, or a round message into
// its automaton's row.
func (w *engWorker) deliver(ev *engEvent) {
	if ev.slab != nil {
		w.register(ev.slab)
		return
	}
	sl := w.slabFor(ev.env.Instance)
	if sl == nil {
		return // instance completed (late duplicate) or never registered
	}
	st := &sl.states[int(ev.node)-1]
	r := ev.env.Round
	if st.round == 0 || r < int(st.round) || r > w.run.maxRounds {
		return // automaton halted, round already closed, or out of range
	}
	row := &st.rows[r]
	if row.msgs == nil {
		row.msgs = make([]rounds.Message, w.run.n+1)
	}
	row.msgs[ev.env.From] = ev.env.Payload
	if sl.events != nil && !row.got.Has(ev.env.From) {
		// One arrival per (sender, round): duplicated deliveries must not
		// double a causal tracer's happens-before edges.
		sl.events.Emit(obs.Event{Type: obs.EventArrive, Round: r,
			Proc: int(ev.node), From: int(ev.env.From)})
	}
	row.got = row.got.Add(ev.env.From)
	w.enqueue(st)
}

// deadline is when st's current round stops waiting: the round barrier in
// RS, the WaitBound liveness guard in RWS (zero: wait unbounded).
func (w *engWorker) deadline(st *instState) time.Time {
	cfg := &w.run.cfg
	if cfg.Kind == rounds.RS {
		return st.slab.epoch.Add(time.Duration(st.round) * cfg.RoundDuration)
	}
	if cfg.WaitBound < 0 {
		return time.Time{}
	}
	return st.started.Add(cfg.WaitBound)
}

// advance drives one automaton as far as it can go: halt if it is quiet
// (decided, nothing to send), otherwise send the current round's messages if
// not yet sent, close the round when its model's close rule allows,
// transition, repeat.
func (w *engWorker) advance(st *instState) {
	er, sl := w.run, st.slab
	peers := model.FullSet(er.n).Remove(st.id)
	for st.round != 0 {
		if w.crashed.Has(st.id) {
			w.crash(st)
			return
		}
		r := int(st.round)
		if !st.sent {
			reach, crashing := er.n-1, false
			if sl.crashes != nil {
				if plan := sl.crashes[st.id]; plan.Round == r {
					reach, crashing = plan.Reach, true
				}
			}
			// Quiescence (the rounds.Process contract): decided and nothing left
			// to send is halted. The round never starts — no event, no null
			// frames, no wait. A crash plan for this round still fires.
			msgs := st.proc.Msgs(r)
			if st.decided && msgs == nil && !crashing {
				w.halt(st)
				return
			}
			st.started = w.now
			if sl.events != nil {
				if fd := er.fds[st.id]; fd != nil {
					fd.NoteRound(r) // tags the detector's suspect/retract events
				}
				sl.events.Emit(obs.Event{Type: obs.EventRoundStart, Round: r, Proc: int(st.id)})
			}
			if err := w.sendRound(st, r, reach, msgs); err != nil {
				er.abort(fmt.Errorf("node %d: %w", st.id, err))
				w.halt(st)
				return
			}
			if crashing {
				// Crash: no transition, no further rounds, in any instance;
				// the node's detector dies with it.
				er.crashNode(st.id)
				if w.refreshCrashed() {
					w.enqueueAll()
				}
				w.crash(st)
				return
			}
			st.sent = true
		}
		row := &st.rows[r]
		// The close rule is the one place the round models differ. RWS: every
		// peer delivered or is suspected (weak round synchrony), the deadline
		// being only a liveness guard. RS: the round deadline itself.
		complete := er.cfg.Kind == rounds.RWS &&
			peers.Minus(row.got).Minus(w.suspects[st.id]).Empty()
		if !complete {
			if due := w.deadline(st); due.IsZero() || w.now.Before(due) {
				if !due.IsZero() && (w.nextDeadline.IsZero() || due.Before(w.nextDeadline)) {
					w.nextDeadline = due
				}
				return
			}
			if er.cfg.Kind == rounds.RWS {
				// The network is losing data messages from peers the detector
				// (correctly) refuses to suspect: proceed with what we have.
				st.out.WaitTimeouts++
				er.waitTimeouts.Add(1)
				er.metrics.waitTimeouts.Inc()
			}
		}
		if sl.events != nil {
			// Reception record, emitted even when empty: round completion
			// itself is what the conformance projector needs to observe.
			got := make([]int, 0, er.n)
			row.got.ForEach(func(j model.ProcessID) bool { got = append(got, int(j)); return true })
			sl.events.Emit(obs.Event{Type: obs.EventRecv, Round: r, Proc: int(st.id), Peers: got})
		}
		in := w.scratch
		for j := range in {
			in[j] = nil
		}
		if row.msgs != nil {
			copy(in, row.msgs)
		}
		in[st.id] = st.selfMsg
		st.proc.Trans(r, in)
		row.msgs = nil // free the payload row; the round is closed
		st.out.Rounds = st.round
		er.metrics.rounds.Inc()
		er.metrics.roundDuration.Observe(w.now.Sub(st.started).Nanoseconds())
		if !st.decided {
			if v, ok := st.proc.Decision(); ok {
				st.decided = true
				st.decision = v
				st.out.DecidedAt = st.round
				er.decidedCtr.Inc()
				er.decidedNodes.Add(1)
				if sl.events != nil {
					sl.events.Emit(obs.Event{Type: obs.EventDecide, Round: r,
						Proc: int(st.id), Value: obs.Int64(int64(v))})
				}
			}
		}
		st.round++
		st.sent = false
		st.selfMsg = nil
		if int(st.round) > er.maxRounds {
			w.halt(st)
		}
	}
}

// crash halts an automaton of a crash-stopped node, during whatever round
// it had reached.
func (w *engWorker) crash(st *instState) {
	st.out.Crashed = true
	if sink := st.slab.events; sink != nil {
		sink.Emit(obs.Event{Type: obs.EventCrash, Round: int(st.round), Proc: int(st.id)})
	}
	w.halt(st)
}

// halt retires an automaton; when it is the instance's last one, the slab
// is released and the instance resolved.
func (w *engWorker) halt(st *instState) {
	if st.round == 0 {
		return
	}
	st.round = 0
	w.active--
	sl := st.slab
	sl.remaining--
	if sl.remaining > 0 {
		return
	}
	n := w.run.n
	out := InstanceOutcome{
		N:         n,
		Decided:   make([]bool, n),
		Decisions: make([]model.Value, n),
		Nodes:     make([]NodeOutcome, n),
	}
	for i := range sl.states {
		s := &sl.states[i]
		out.Decided[i] = s.decided
		out.Decisions[i] = s.decision
		out.Nodes[i] = s.out
		out.WaitTimeouts += int(s.out.WaitTimeouts)
	}
	w.slabs[int(sl.inst)/len(w.run.workers)-w.base] = nil
	for len(w.slabs) > 0 && w.slabs[0] == nil {
		w.slabs = w.slabs[1:]
		w.base++
	}
	w.run.finish(sl.inst, out)
}

// sendRound transmits st's round-r messages (msgs, the automaton's Msgs(r))
// through the owning node's batcher, tagged with the instance id, to the
// first reach destinations (all n−1 unless the node is crashing).
func (w *engWorker) sendRound(st *instState, r, reach int, msgs []rounds.Message) error {
	if msgs != nil {
		st.selfMsg = msgs[st.id]
	} else {
		st.selfMsg = nil
	}
	// The send event precedes the first transmission: a causal tracer on
	// the sink must record this broadcast's Lamport clock before any of its
	// packets can land at a receiver (whose arrival event joins with it).
	// On a transport error below the whole engine aborts, so the optimistic
	// emission never misleads a consumer.
	if sink := st.slab.events; sink != nil && reach > 0 && w.run.n > 1 {
		var dests []int
		for j := 1; j <= w.run.n && len(dests) < reach; j++ {
			if model.ProcessID(j) != st.id {
				dests = append(dests, j)
			}
		}
		sink.Emit(obs.Event{Type: obs.EventSend, Round: r, From: int(st.id), To: dests})
	}
	for j, left := 1, reach; j <= w.run.n && left > 0; j++ {
		dest := model.ProcessID(j)
		if dest == st.id {
			continue
		}
		left--
		var payload rounds.Message
		if msgs != nil {
			payload = msgs[dest]
		}
		env, err := wire.EnvelopeFor(st.id, dest, r, payload)
		if err != nil {
			return err
		}
		env.Instance = st.slab.inst
		data, err := w.run.codec.Encode(env)
		if err != nil {
			return err
		}
		if err := w.run.batchers[st.id].Send(dest, data); err != nil {
			return err
		}
	}
	return nil
}
