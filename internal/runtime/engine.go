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
)

// Engine metric names.
const (
	// MetricEngineUnknownInstance counts inbound round messages carrying an
	// instance id outside the engine's opened range, riding in another
	// worker's packet, or naming as sender no node or the receiving node
	// itself — dropped by the worker that decoded them (stray traffic from a
	// misconfigured peer, or corruption that survived decoding).
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
// This is the repository's only live runtime and this its only config;
// RunCluster is a one-instance run of it. Both round models execute on the same send → receive →
// transition loop and differ in one rule, when a round may close (Kind).
type EngineConfig struct {
	// Kind selects the close rule; zero means rounds.RWS. RWS closes a round
	// once every peer was heard from or is suspected by the node's detector
	// (weak round synchrony, Lemma 4.1). RS closes round r of an instance at
	// epoch + r·RoundDuration, the epoch being anchored 10ms + 2ms·N after
	// the instance's Open (round synchrony: requires a network whose delay
	// stays below RoundDuration); no failure detector is built.
	Kind rounds.ModelKind
	// RoundDuration paces RS rounds (default 25ms: comfortably above the
	// default network's 1ms delay bound).
	RoundDuration time.Duration

	// N is the cluster size, T the resilience bound (0 ≤ T < N).
	N, T int

	// Groups is the number of shard workers instances are distributed
	// across (instance k belongs to worker k mod Groups). Default:
	// min(8, GOMAXPROCS). Sharding is a throughput knob, not a semantic
	// one — results are independent of it (the equivalence tests pin this).
	Groups int

	// Network supplies the shared mesh; nil builds the default in-process
	// synchronous network (ChanNetwork, delay uniform in [0, 1ms)).
	Network interface {
		Endpoint(model.ProcessID) Transport
		Close() error
	}

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
	// halts without the round's transition, keeping any decision it took —
	// closing the round without a live peer's message is an omission outside
	// the crash model and could split the instance — and the expiry is
	// counted (ssfd_node_wait_timeouts_total, InstanceOutcome.WaitTimeouts).
	// Zero or negative means 30s: one starved wait must end one instance.
	WaitBound time.Duration

	// Faults, when non-nil, interposes the seeded per-link injector between
	// every node and the mesh — beneath the batcher and the detector, so
	// faults stay per-link: a dropped packet takes a whole batch, a delayed
	// packet delays every instance riding in it, exactly like a real link.
	// The mesh holds a delayed packet, so its endpoints must implement
	// faults.Transport (both built-in networks do).
	Faults *faults.Config

	// OnInstanceDone, when non-nil, is invoked once per instance when its
	// last automaton halts, from the owning worker goroutine — it must not
	// block (a slow callback stalls every instance sharded to that worker).
	// A serving layer uses it to resolve waiters and feed its conformance
	// monitor without a goroutine per instance.
	OnInstanceDone func(inst uint64, out InstanceOutcome)
	// OnInstanceDecided, when non-nil, is invoked at most once per instance,
	// the moment its first automaton decides v at the end of the given round
	// — before OnInstanceDone, from the same worker goroutine and under the
	// same must-not-block rule. Under uniform agreement that first decision
	// is the instance's only possible one, so a serving layer answers its
	// client here and lets the relaying tail (the remaining rounds, the
	// quiescence halt) run behind the answer. An instance in which no node
	// decides never fires it.
	OnInstanceDecided func(inst uint64, v model.Value, round int)

	// Metrics receives the engine's instruments; nil uses obs.Default.
	Metrics *obs.Registry
	// Events, when non-nil, receives what is not per instance: the shared
	// detectors' suspect/retract edges, the fault injector's partition/
	// heal/crash/recover transitions and the closing cost event. Round
	// events are per instance (OpenOptions.Events), so 100k unobserved
	// instances emit nothing. The sink must be safe for concurrent use.
	Events obs.Sink
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
	WaitTimeouts int32 // 1 if a WaitBound expiry halted the node
	Crashed      bool  // the node crash-stopped before the instance ended
}

// InstanceOutcome is one completed instance's result across the n nodes.
type InstanceOutcome struct {
	N int
	// Decided and Decisions are indexed id-1.
	Decided   []bool
	Decisions []model.Value
	// WaitTimeouts counts the automata a WaitBound expiry halted.
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

	// Backlog is the number of round packets and instance registrations
	// queued in the shard workers' mailboxes at snapshot time — the
	// at-a-glance congestion figure a drain decision reads. A packet may
	// carry up to maxBatch frames.
	Backlog int64

	// Detector audit, summed over the n shared detectors: FalselySuspected
	// counts (observer, target) pairs whose target never crash-stopped.
	// Every retraction is a false suspicion under crash-stop, so
	// Retractions always equals FalseSuspicions.
	FalseSuspicions    int64
	Retractions        int64
	FalselySuspected   int64
	EncodeErrors       int64
	DetectorWasPerfect bool

	Uptime time.Duration

	// Cost is the engine's transport accounting so far (per decided node).
	Cost *obs.CostSummary
}

// engineRun is the shared state of one engine's lifetime.
type engineRun struct {
	cfg       EngineConfig
	alg       rounds.Algorithm
	n         int
	maxRounds int

	ws      *netobs.WireStats // round traffic folds in bulk (see kindTally), detectors per Send
	fds     []Detector        // 1..n, shared per node; nil entries under RS
	workers []*engWorker
	// crashed is the set of crash-stopped nodes (a model.ProcSet). A bit is
	// set before the node's detector stops, and workers read it before they
	// poll suspicions, so whoever sees the suspicion also sees the crash.
	crashed atomic.Uint64

	// The counts Stats reads are scoped under their registry families
	// (/metrics), so both read one counter per fact; openedCtr counts
	// beside opened, the instance-id allocator.
	metrics   nodeMetrics
	unknown   *obs.Counter // stray frames dropped
	decided   *obs.Counter // node decisions
	done      *obs.Counter // completed instances
	openedCtr *obs.Counter

	opened  atomic.Uint64   // next instance id; workers drop ids at or past it
	closing atomic.Bool     // workers exit once idle
	tally   [3]atomic.Int64 // AgreementStatus tallies over completed instances

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
	er.done.Inc()
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
// Lifecycle: StartEngine installs each node's receive function and brings
// up detectors and shard workers; Open admits instances until Drain or
// Close; Close finishes the in-flight instances, joins every goroutine and
// tears the mesh down.
type Engine struct {
	er  *engineRun
	reg *obs.Registry

	network interface {
		Endpoint(model.ProcessID) Transport
		Close() error
	}
	endpoints []Transport // 1..n, shared by the node's detector, receiver and batchers
	inj       *faults.Injector

	workerWG sync.WaitGroup

	start time.Time

	drainMu  sync.Mutex
	draining bool

	closeOnce sync.Once
	closeErr  error
	closedCh  chan struct{}
}

// StartEngine brings up a live shared-mesh engine and returns once every
// node's receive function is installed and every detector and shard worker
// is running; a rejected config fails before any goroutine starts.
func StartEngine(alg rounds.Algorithm, cfg EngineConfig) (*Engine, error) {
	n := cfg.N
	if n < 1 {
		return nil, fmt.Errorf("runtime: engine: empty cluster")
	}
	if n > 63 {
		return nil, fmt.Errorf("runtime: engine: n=%d exceeds the 63-process bound", n)
	}
	if cfg.T < 0 || cfg.T >= n {
		return nil, fmt.Errorf("runtime: engine: t=%d out of range [0,%d)", cfg.T, n)
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
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = 2 * time.Millisecond
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 30 * time.Millisecond
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = cfg.T + 2
	}
	if cfg.WaitBound <= 0 {
		cfg.WaitBound = 30 * time.Second
	}
	if cfg.Groups <= 0 {
		cfg.Groups = min(stdruntime.GOMAXPROCS(0), 8)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	spec := cfg.Detector
	if spec == nil {
		spec = HeartbeatDetector()
	}

	network := cfg.Network
	if network == nil {
		network = NewChanNetwork(n, ChanConfig{MaxDelay: time.Millisecond, Metrics: reg})
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
		inj = faults.NewInjector(fcfg)
	}

	// abandon tears down nodes 1..built (Stop frees eager detectors) and the mesh.
	var er *engineRun
	endpoints := make([]Transport, n+1)
	abandon := func(built int) {
		for j := 1; j <= built; j++ {
			if er != nil && er.fds[j] != nil {
				er.fds[j].Stop()
			}
			_ = endpoints[j].Close()
		}
		if inj != nil {
			_ = inj.Close()
		}
		_ = network.Close()
	}

	// Per-node plumbing: endpoint → (injector) → {detector, receive function,
	// one batcher per worker}.
	for i := 1; i <= n; i++ {
		var tr Transport = network.Endpoint(model.ProcessID(i))
		if inj != nil {
			ft, ok := tr.(faults.Transport)
			if !ok {
				abandon(i - 1)
				return nil, fmt.Errorf("runtime: engine node %d: Faults needs an endpoint with SendAfter, %T has none", i, tr)
			}
			tr = inj.Wrap(ft)
		}
		endpoints[i] = tr
	}
	er = newEngineRun(alg, cfg, reg, endpoints)
	// Under RS every er.fds entry stays an untyped nil (the fd != nil guards).
	for i := 1; i <= n && cfg.Kind == rounds.RWS; i++ {
		d, err := spec.New(DetectorConfig{
			Transport: endpoints[i], N: n,
			Period: cfg.HeartbeatPeriod, Timeout: cfg.SuspectTimeout,
			Adaptive: cfg.AdaptiveTimeout,
			Metrics:  reg, Events: cfg.Events, Wire: er.ws,
		})
		if err != nil {
			abandon(n)
			return nil, fmt.Errorf("runtime: engine node %d: detector %q: %w", i, spec.Name, err)
		}
		er.fds[i] = d
	}

	e := &Engine{
		er:        er,
		reg:       reg,
		network:   network,
		endpoints: endpoints,
		inj:       inj,
		start:     time.Now(),
		closedCh:  make(chan struct{}),
	}
	// Each node's receive function is in place before any detector sends.
	for i := 1; i <= n; i++ {
		endpoints[i].Listen(er.receiver(model.ProcessID(i)))
	}
	for i := 1; i <= n; i++ {
		if er.fds[i] != nil {
			er.fds[i].Start()
		}
	}
	for _, w := range er.workers {
		e.workerWG.Add(1)
		go w.loop(&e.workerWG)
	}
	return e, nil
}

// newEngineRun builds an engine's shared state over endpoints (1..n), cfg
// complete, with no detector and no goroutine. Worker w owns instances k ≡ w
// (mod Groups) and batches their frames on its own Batcher per node, flushed
// each sweep; detector traffic is never batched (a queued heartbeat is a
// false suspicion waiting to happen).
func newEngineRun(alg rounds.Algorithm, cfg EngineConfig, reg *obs.Registry, endpoints []Transport) *engineRun {
	n := cfg.N
	er := &engineRun{
		cfg:       cfg,
		alg:       alg,
		n:         n,
		maxRounds: cfg.MaxRounds,
		ws:        netobs.NewWireStats(reg),
		fds:       make([]Detector, n+1),
		workers:   make([]*engWorker, cfg.Groups),
		metrics:   newNodeMetrics(reg, alg.Name(), cfg.Kind),
		unknown:   reg.Counter(MetricEngineUnknownInstance).Scoped(),
		decided:   reg.Counter(MetricEngineInstancesDecided).Scoped(),
		done:      reg.Counter(MetricEngineInstancesDone).Scoped(),
		openedCtr: reg.Counter(MetricEngineInstancesOpened),
		handles:   make(map[uint64]*Instance),
		abortCh:   make(chan struct{}),
	}
	for w := range er.workers {
		ew := &engWorker{
			run:       er,
			idx:       w,
			links:     make([]*Batcher, n+1),
			suspects:  make([]model.ProcSet, n+1),
			scratch:   make([]rounds.Message, n+1),
			durations: er.metrics.roundDuration.Tally(),
		}
		for i := 1; i <= n; i++ {
			ew.links[i] = NewBatcher(endpoints[i], BatcherConfig{Metrics: reg})
		}
		ew.mb.notify = make(chan struct{}, 1)
		er.workers[w] = ew
	}
	return er
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

	sl := er.newSlab(id, initial, opts)
	if er.cfg.Kind == rounds.RS {
		// The round-1 barrier leaves slack for setting up the n automata.
		sl.epoch = time.Now().Add(10*time.Millisecond + time.Duration(er.n)*2*time.Millisecond)
	}
	er.openedCtr.Inc()
	er.workers[int(id%uint64(len(er.workers)))].mb.push(engEvent{slab: sl})
	return h, nil
}

// newSlab builds instance id's n automata and their rows in one allocation;
// an RS instance's epoch is the caller's to set.
func (er *engineRun) newSlab(id uint64, initial func(model.ProcessID) model.Value, opts OpenOptions) *instSlab {
	n := er.n
	sl := &instSlab{inst: id, states: make([]instState, n), remaining: n,
		events: opts.Events, crashes: opts.Crashes}
	rows := make([]instRow, n*(er.maxRounds+1))
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
	return sl
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
		Completed:            er.done.Value(),
		DecidedNodes:         er.decided.Value(),
		AgreementNone:        er.tally[AgreementNone].Load(),
		AgreementReached:     er.tally[AgreementReached].Load(),
		AgreementViolated:    er.tally[AgreementViolated].Load(),
		WaitTimeouts:         er.metrics.waitTimeouts.Value(),
		UnknownInstanceDrops: er.unknown.Value(),
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
		s.EncodeErrors += fd.EncodeErrors()
		// Strong-accuracy audit: a sticky suspicion of a process that never
		// crash-stopped is a perfection violation even when it was never
		// retracted. Injector-crashed nodes count too — crash/recovery is
		// outside the crash-stop model.
		s.FalselySuspected += int64(fd.EverSuspected().Minus(crashed).Count())
	}
	s.Retractions = s.FalseSuspicions
	s.DetectorWasPerfect = s.FalseSuspicions == 0 && s.FalselySuspected == 0
	s.Cost = netobs.ComputeCost(int(s.DecidedNodes), er.ws, e.links())
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
		// The workers flushed their links at the end of their last sweep. Until
		// the mesh closes it still delivers; an exited worker's mailbox drops it.
		for _, tr := range e.endpoints[1:] {
			_ = tr.Close()
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
		cost := netobs.ComputeCost(int(er.decided.Value()), er.ws, e.links())
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
