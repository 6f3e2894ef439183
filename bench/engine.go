package main

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/rounds"
	"repro/internal/runtime"
)

// engineParams is one Engine-API workload.
type engineParams struct {
	n, t, window int
	// distinct gives every node its own proposal (the W set grows to n
	// values); otherwise all nodes propose one value, as a replicated state
	// machine's slot does.
	distinct bool
	// warm is how many instances complete before the window opens. A count,
	// not a duration, so that set-up time reflects how fast the engine is.
	warm int
}

// Detector timing of every workload. The shipped 2ms / 30ms cannot be
// benchmarked on the reference container: the VM stalls whole processes for
// 60-130ms a few times a minute when idle and for up to 0.8s under load, so
// even an idle daemon raises false suspicions within seconds, and a false
// suspicion is a correctness failure here, not noise (see README). The
// heartbeat is what `ssfd-bench -engine` uses; the timeout is three times
// its 1s, to clear the longest stall seen with room to spare. Fault-free
// runs never wait for it.
const (
	heartbeatPeriod = 5 * time.Millisecond
	suspectTimeout  = 3 * time.Second
)

var engineWorkloads = map[string]engineParams{
	"engine_sat": {n: 5, t: 2, window: 256, distinct: true, warm: 8000},
	"engine_lat": {n: 3, t: 1, window: 2, warm: 300},
}

// defaultMesh is the network StartEngine builds when EngineConfig.Network is
// nil: the stated message delay of every workload.
var defaultMesh = runtime.ChanConfig{MaxDelay: time.Millisecond, Buffer: 1 << 15}

// proposal derives node id's proposal in instance inst from the seed.
func (p engineParams) proposal(seed uint64, inst uint64, id model.ProcessID) model.Value {
	h := splitmix(seed ^ splitmix(inst))
	if p.distinct {
		return model.Value(h&0xFFFF)*64 + model.Value(id)
	}
	return model.Value(h & 0xFFFFF)
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// doneEvent is one instance completion as the engine's callback saw it.
type doneEvent struct {
	inst uint64
	at   int64
	out  runtime.InstanceOutcome
}

// verdict is what is kept of an outcome for the checks after the window.
type verdict struct {
	status   runtime.AgreementStatus
	value    model.Value
	degraded bool // a wait timeout or an engine error
	done     bool
}

// enginePass is one engine brought up, warmed, measured and torn down.
type enginePass struct {
	p    engineParams
	seed uint64
	tr   *tracer // nil: no wrapper installed

	eng      *runtime.Engine
	done     chan doneEvent
	openAt   []int64   // by instance id
	verdicts []verdict // by instance id
	inflight int

	openNS, openCalls int64

	// window accounting
	winStart, winEnd int64
	committed        []commit // instances that completed in the window with agreement
	attempted        int64
	failed           int64

	setup time.Duration
	meter meter
	final runtime.EngineStats // quiescent totals, after the drain
}

// start brings the engine up. The untraced form passes StartEngine nothing
// but N, T, the detector timing and the completion callback.
func (ep *enginePass) start() error {
	ep.done = make(chan doneEvent, ep.p.window) // one slot per in-flight instance: the callback never blocks
	cfg := runtime.EngineConfig{
		N: ep.p.n, T: ep.p.t,
		HeartbeatPeriod: heartbeatPeriod, SuspectTimeout: suspectTimeout,
		OnInstanceDone: func(inst uint64, out runtime.InstanceOutcome) {
			ep.done <- doneEvent{inst: inst, at: now(), out: out}
		},
	}
	var alg rounds.Algorithm = consensus.FloodSetWS{}
	if ep.tr != nil {
		alg = tracedAlgorithm{inner: alg, tr: ep.tr}
		cfg.Detector = ep.tr.detectorSpec(runtime.HeartbeatDetector())
		cfg.Network = ep.tr.network(ep.p.n)
	}
	eng, err := runtime.StartEngine(alg, cfg)
	if err != nil {
		return fmt.Errorf("start engine: %w", err)
	}
	ep.eng = eng
	return nil
}

// open admits the next instance. Instance ids are dense from 0 and only this
// goroutine opens, so the id is known before Open returns it.
func (ep *enginePass) open() error {
	inst := uint64(len(ep.openAt))
	if ep.tr != nil {
		ep.tr.cur = inst
	}
	t0 := now()
	h, err := ep.eng.Open(func(id model.ProcessID) model.Value { return ep.p.proposal(ep.seed, inst, id) })
	t1 := now()
	if err != nil {
		return fmt.Errorf("open instance %d: %w", inst, err)
	}
	if h.ID() != inst {
		return fmt.Errorf("open: engine numbered the instance %d, generator expected %d", h.ID(), inst)
	}
	ep.openNS += t1 - t0
	ep.openCalls++
	ep.openAt = append(ep.openAt, t0)
	ep.verdicts = append(ep.verdicts, verdict{})
	ep.inflight++
	return nil
}

// reap takes one completion and files it.
func (ep *enginePass) reap() {
	ev := <-ep.done
	ep.inflight--
	v, status := ev.out.Agreement()
	vd := verdict{status: status, value: v, done: true,
		degraded: ev.out.WaitTimeouts > 0 || ev.out.Err != nil}
	ep.verdicts[ev.inst] = vd
	if ep.tr != nil {
		ep.tr.finish(ev.inst, "engine.instance", ep.openAt[ev.inst], ev.at)
	}
	if ep.winStart == 0 || ev.at < ep.winStart || (ep.winEnd != 0 && ev.at >= ep.winEnd) {
		return
	}
	ep.attempted++
	if status != runtime.AgreementReached || vd.degraded {
		ep.failed++
		return
	}
	ep.committed = append(ep.committed, commit{at: time.Duration(ev.at - ep.winStart), lat: ev.at - ep.openAt[ev.inst]})
}

// warmUp fills the window and completes warm instances.
func (ep *enginePass) warmUp(warm int) error {
	for ep.inflight < ep.p.window {
		if err := ep.open(); err != nil {
			return err
		}
	}
	for i := 0; i < warm; i++ {
		ep.reap()
		if err := ep.open(); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the closed loop for the window: every completion is replaced
// by a new instance, so p.window instances stay open throughout.
func (ep *enginePass) measure(window time.Duration, profile bool) error {
	ep.meter = meter{stats: ep.eng.Stats, tr: ep.tr, profile: profile}
	ep.meter.begin()
	opens0, openNS0 := ep.openCalls, ep.openNS
	ep.winStart = now()
	end := ep.winStart + int64(window)
	var err error
	for now() < end && err == nil {
		ep.reap()
		err = ep.open()
	}
	ep.winEnd = now()
	ep.meter.end()
	ep.openCalls, ep.openNS = ep.openCalls-opens0, ep.openNS-openNS0
	return err
}

// finish waits the in-flight instances out, reads the quiescent totals and
// closes the engine.
func (ep *enginePass) finish() error {
	for ep.inflight > 0 {
		ep.reap()
	}
	ep.final = ep.eng.Stats()
	return ep.eng.Close()
}

// abandon tears the engine down without the accounting (error paths, and
// the set-ups that are timed and thrown away).
func (ep *enginePass) abandon() {
	for ep.inflight > 0 {
		ep.reap()
	}
	_ = ep.eng.Close()
}

func (ep *enginePass) windowDur() time.Duration { return time.Duration(ep.winEnd - ep.winStart) }

func (ep *enginePass) commits() int64 { return int64(len(ep.committed)) }

// series cuts the window into its seconds.
func (ep *enginePass) series() perSecond {
	return bySecond(ep.committed, ep.windowDur())
}

// latency is Open to done over every commit of the window.
func (ep *enginePass) latency() *sample {
	var s sample
	for _, c := range ep.committed {
		s.add(c.lat)
	}
	return &s
}

// roundsPerCommit is data messages per node decision over n-1, from the
// quiescent totals of the whole pass: every message sent belongs to an
// instance that has completed, so the count is exact.
func (ep *enginePass) roundsPerCommit() float64 {
	c := ep.final.Cost
	if c == nil || c.Decisions == 0 || ep.p.n < 2 {
		return 0
	}
	return float64(c.DataMessages) / float64(c.Decisions) / float64(ep.p.n-1)
}

// check is the correctness verdict over every instance of the pass, warm-up
// and drain included: agreement reached on one of that instance's proposals,
// and a detector that stayed perfect. It runs after the window.
func (ep *enginePass) check() []string {
	var bad []string
	note := func(format string, a ...any) {
		if len(bad) < 8 {
			bad = append(bad, fmt.Sprintf(format, a...))
		}
	}
	for inst, vd := range ep.verdicts {
		switch {
		case !vd.done:
			note("instance %d never completed", inst)
		case vd.status == runtime.AgreementViolated:
			note("instance %d: agreement violated", inst)
		case vd.status == runtime.AgreementReached:
			ok := false
			for id := 1; id <= ep.p.n; id++ {
				ok = ok || ep.p.proposal(ep.seed, uint64(inst), model.ProcessID(id)) == vd.value
			}
			if !ok {
				note("instance %d decided %d, which no node proposed", inst, int64(vd.value))
			}
		}
	}
	if !ep.final.DetectorWasPerfect {
		note("detector lost perfection: %d false suspicions, %d falsely suspected",
			ep.final.FalseSuspicions, ep.final.FalselySuspected)
	}
	if ep.final.AgreementViolated > 0 {
		note("engine tallied %d agreement violations", ep.final.AgreementViolated)
	}
	return bad
}

// startEnginePass brings an engine up and warms it, timing both as the
// pass's set-up.
func startEnginePass(p engineParams, cfg runConfig, tr *tracer) (*enginePass, error) {
	ep := &enginePass{p: p, seed: uint64(cfg.seed), tr: tr}
	t0 := time.Now()
	if err := ep.start(); err != nil {
		return nil, err
	}
	if err := ep.warmUp(cfg.warm(p.warm)); err != nil {
		ep.abandon()
		return nil, err
	}
	ep.setup = time.Since(t0)
	return ep, nil
}

// runEnginePass is the whole life of one pass.
func runEnginePass(p engineParams, cfg runConfig, tr *tracer, window time.Duration, profile bool) (*enginePass, error) {
	ep, err := startEnginePass(p, cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := ep.measure(window, profile); err != nil {
		ep.abandon()
		return nil, err
	}
	if err := ep.finish(); err != nil {
		return nil, fmt.Errorf("close engine: %w", err)
	}
	return ep, nil
}

// endToEndMetrics reports a window's per-second series as the end-to-end
// metrics. commits is how many operations the series was cut from.
func endToEndMetrics(m metricSet, ps perSecond, commits int, setups []float64, rounds float64) {
	m.set("setup_s", median(setups), len(setups))
	m.set("goodput_per_s", steady(ps.Commits, "higher"), commits)
	m.set("commit_p50_us", steady(ps.P50us, "lower"), commits)
	m.set("commit_p95_us", steady(ps.P95us, "lower"), commits)
	m.set("rounds_per_commit", rounds, 0)
}

// runEngineWorkload is one benchmark run of an Engine-API workload.
func runEngineWorkload(name string, cfg runConfig) (*runResult, error) {
	p := engineWorkloads[name]
	res := newResult(name, cfg)
	m := res.Metrics
	if !cfg.traced {
		var setups []float64
		for i := 1; i < cfg.setups(); i++ {
			// A set-up that is not the last is timed and thrown away.
			ep, err := startEnginePass(p, cfg, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, ep.setup.Seconds())
			ep.abandon()
		}
		ep, err := runEnginePass(p, cfg, nil, cfg.window, false)
		if err != nil {
			return nil, err
		}
		res.absorb(ep.attempted, ep.failed, ep.check())
		res.Series = ep.series()
		endToEndMetrics(m, res.Series, int(ep.commits()), append(setups, ep.setup.Seconds()), ep.roundsPerCommit())
		return res, nil
	}

	// Traced run: a reference pass with no wrapper (the engine's own layer
	// figures and the headline the overhead is a share of), the same pass
	// again with the three wrappers installed, then each layer alone.
	ref, err := runEnginePass(p, cfg, nil, cfg.window/2, true)
	if err != nil {
		return nil, err
	}
	sampleEvery := uint64(1)
	if p.window > 64 {
		sampleEvery = 64 // a saturating window opens too many instances to keep every span
	}
	tr := newTracer(sampleEvery)
	tp, err := runEnginePass(p, cfg, tr, cfg.window/2, false)
	if err != nil {
		return nil, err
	}
	res.absorb(ref.attempted+tp.attempted, ref.failed+tp.failed, append(ref.check(), tp.check()...))
	lat := ref.latency()
	m.set("engine.open_ns_per_call", ratio(float64(ref.openNS), float64(ref.openCalls)), int(ref.openCalls))
	m.set("engine.commit_p99_us", float64(lat.pct(99))/1e3, lat.n())
	m.set("process.cpu_us_per_commit", ratio(float64(ref.meter.cpu.Microseconds()), float64(ref.commits())), int(ref.commits()))
	ref.meter.processMetrics(m, float64(ref.commits()))
	tp.meter.tracedMetrics(m, float64(tp.commits()))
	gapMetrics(m, tr)
	m.set("trace.overhead_share", overheadShare(p.window > 64, ref.series(), tp.series()), 0)
	commitsPerSec := ratio(float64(tp.commits()), tp.windowDur().Seconds())
	if err := standaloneLayers(m, tr.packets, p.n, commitsPerSec, cfg.layerBudget()); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(outPath("trace_" + name + ".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// overheadShare is what the wrappers cost the workload's headline: the
// share of goodput lost where the workload is throughput-bound, the share
// of commit latency added where it is latency-bound.
func overheadShare(throughputBound bool, untraced, traced perSecond) float64 {
	if throughputBound {
		return 1 - ratio(steady(traced.Commits, "higher"), steady(untraced.Commits, "higher"))
	}
	return ratio(steady(traced.P50us, "lower"), steady(untraced.P50us, "lower")) - 1
}
