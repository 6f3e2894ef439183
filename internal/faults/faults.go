// Package faults is a seeded, deterministic fault-injection layer for the
// live runtime: it wraps any transport endpoint and subjects its traffic to
// an adversarial network — per-link message loss, duplication, reordering,
// delay spikes beyond the synchrony bound, scheduled bidirectional
// partitions, and per-node crash/recovery blackholes.
//
// The injector only decides: it drops a message or hands each copy to the
// wrapped transport's SendAfter with the extra delay it drew, and the
// transport holds it. As a Kumar–Welch ADD channel: drops and blackholes are
// losses; every other message arrives within the network's own maximum
// delay + SpikeMax (+2ms when reordered).
//
// The paper's central claim is that model strength decides solvability: the
// heartbeat detector of package runtime is perfect exactly while the
// network honors its Δ bound. This package is the other half of that
// statement made executable — the adversary that pushes a deployment out of
// the synchronous model so the degradation from P to ◇P can be measured
// rather than asserted (experiment E14 in internal/core).
//
// Determinism: every per-message fault decision is a pure function of
// (Config.Seed, link, per-link sequence number) — each ordered link owns a
// PRNG seeded from the config, and a decision always consumes the same
// number of draws regardless of outcome. Two injectors with the same seed
// and config therefore make byte-identical decisions for the same per-link
// send sequences, and the scheduled transition stream (partitions, heals,
// crashes, recoveries) is a pure function of the config alone. Live
// clusters interleave heartbeat and data sends nondeterministically, so
// whole-run identity additionally requires a deterministic send order (the
// property tests drive one).
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Transport is runtime.Transport plus SendAfter: Send with extra in-flight
// delay on top of the network's own (Send is SendAfter with 0). Declaring it
// here keeps this package importable by the runtime without a cycle.
type Transport interface {
	LocalID() model.ProcessID
	Send(to model.ProcessID, data []byte) error
	SendAfter(to model.ProcessID, data []byte, extra time.Duration) error
	Listen(fn func(wire.Packet))
	Recv() <-chan wire.Packet
	Close() error
}

// Metric names exported by the injector. Drops carry a {reason="..."}
// label: "loss" (random per-link drop), "partition" (message crossed a
// partition boundary), "crash" (endpoint inside a crash blackhole window).
const (
	MetricDropped     = "ssfd_faults_dropped_total"
	MetricDuplicated  = "ssfd_faults_duplicated_total"
	MetricReordered   = "ssfd_faults_reordered_total"
	MetricDelayed     = "ssfd_faults_delayed_total"
	MetricTransitions = "ssfd_faults_transitions_total"
)

// Link is one ordered sender→receiver pair.
type Link struct {
	From, To model.ProcessID
}

// String renders the link.
func (l Link) String() string { return fmt.Sprintf("%v→%v", l.From, l.To) }

// LinkFaults is the per-link fault menu. All probabilities are in [0,1].
type LinkFaults struct {
	// Drop is the probability a message is silently lost.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back 2ms more so that
	// later sends on the link overtake it.
	Reorder float64
	// Spike is the probability of a delay spike; a spiked message is held
	// a uniform extra duration in [SpikeMin, SpikeMax] — injected latency
	// beyond the transport's own MaxDelay.
	Spike              float64
	SpikeMin, SpikeMax time.Duration
}

// active reports whether any fault can fire on this link.
func (lf LinkFaults) active() bool {
	return lf.Drop > 0 || lf.Duplicate > 0 || lf.Reorder > 0 || lf.Spike > 0
}

// Partition isolates Group from its complement during [Start, End):
// messages crossing the boundary — in either direction — are dropped.
// Offsets are relative to the injector's start.
type Partition struct {
	Start, End time.Duration
	Group      model.ProcSet
}

// NodeCrash blackholes one process during [At, At+For): every message it
// sends or should receive is dropped, so from its peers' viewpoint the
// process has crashed — and, if For > 0, later recovers, which is exactly
// the behavior the crash-stop model (and hence a perfect detector) rules
// out. For == 0 means the blackhole never lifts.
type NodeCrash struct {
	Proc model.ProcessID
	At   time.Duration
	For  time.Duration
}

// Config scripts one adversarial network.
type Config struct {
	// Seed drives every random fault decision.
	Seed int64
	// Default is the fault menu of every link.
	Default LinkFaults
	// Partitions is the scheduled partition windows.
	Partitions []Partition
	// Crashes is the scheduled crash/recovery blackholes.
	Crashes []NodeCrash
	// Filter, when non-nil, restricts random link faults (drop, duplicate,
	// reorder, spike) to messages it returns true for; partition and crash
	// blackholes always apply. A test uses it to fault round traffic while
	// heartbeats flow.
	Filter func(from, to model.ProcessID, data []byte) bool
	// RecordDecisions keeps an in-memory log of every fault decision
	// (Injector.Decisions) — the determinism property tests and seed-replay
	// tooling read it.
	RecordDecisions bool
	// Metrics receives the injector's counters (nil: obs.Default).
	Metrics *obs.Registry
	// Events, when non-nil, receives partition/heal/crash/recover events.
	Events obs.Sink
}

// Decision is one per-message fault verdict.
type Decision struct {
	Link      Link
	Seq       int // per-link send sequence number, from 0
	Drop      bool
	Duplicate bool
	Reorder   bool
	Spike     time.Duration // 0: no spike
}

// String renders the decision compactly, e.g. "p1→p2#4 drop" or
// "p2→p3#0 dup spike=3ms".
func (d Decision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d", d.Link, d.Seq)
	switch {
	case d.Drop:
		b.WriteString(" drop")
	default:
		if d.Duplicate {
			b.WriteString(" dup")
		}
		if d.Reorder {
			b.WriteString(" reorder")
		}
		if d.Spike > 0 {
			fmt.Fprintf(&b, " spike=%v", d.Spike)
		}
		if !d.Duplicate && !d.Reorder && d.Spike == 0 {
			b.WriteString(" pass")
		}
	}
	return b.String()
}

// Transition is one scheduled topology change, either fired (PartitionLog)
// or planned (Schedule).
type Transition struct {
	At    time.Duration // offset from injector start
	Event obs.EventType // partition | heal | crash | recover
	Group model.ProcSet // partition/heal
	Proc  model.ProcessID
}

// String renders the transition, e.g. "+50ms partition {p3}".
func (t Transition) String() string {
	if t.Event == obs.EventPartition || t.Event == obs.EventHeal {
		return fmt.Sprintf("+%v %s %v", t.At, t.Event, t.Group)
	}
	return fmt.Sprintf("+%v %s %v", t.At, t.Event, t.Proc)
}

// Schedule expands a config into its ordered transition timeline — a pure
// function of the config, independent of any run.
func Schedule(cfg Config) []Transition {
	var out []Transition
	for _, p := range cfg.Partitions {
		out = append(out, Transition{At: p.Start, Event: obs.EventPartition, Group: p.Group})
		out = append(out, Transition{At: p.End, Event: obs.EventHeal, Group: p.Group})
	}
	for _, c := range cfg.Crashes {
		out = append(out, Transition{At: c.At, Event: obs.EventCrash, Proc: c.Proc})
		if c.For > 0 {
			out = append(out, Transition{At: c.At + c.For, Event: obs.EventRecover, Proc: c.Proc})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// linkState is one ordered link's private PRNG and sequence counter.
type linkState struct {
	mu  sync.Mutex
	rng *rand.Rand
	seq int
}

// Injector applies a Config to wrapped transports. Build one per run,
// Wrap every endpoint, Start it alongside the run, and Close it when the
// run ends, before or after the underlying network: it holds no packet,
// and Close joins only the transition scheduler.
type Injector struct {
	cfg Config

	mu        sync.Mutex
	links     map[Link]*linkState
	decisions []Decision
	fired     []Transition
	startAt   time.Time // the schedule's epoch; zero until started

	closeOnce sync.Once
	done      chan struct{}  // closed by Close: stops the scheduler
	wg        sync.WaitGroup // the scheduler, if the config has a schedule

	dropLoss, dropPartition, dropCrash *obs.Counter
	duplicated, reordered, delayed     *obs.Counter
	transitions                        *obs.Counter
}

// NewInjector builds an injector for the config.
func NewInjector(cfg Config) *Injector {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	return &Injector{
		cfg:           cfg,
		links:         make(map[Link]*linkState),
		done:          make(chan struct{}),
		dropLoss:      reg.Counter(obs.Label(MetricDropped, "reason", "loss")),
		dropPartition: reg.Counter(obs.Label(MetricDropped, "reason", "partition")),
		dropCrash:     reg.Counter(obs.Label(MetricDropped, "reason", "crash")),
		duplicated:    reg.Counter(MetricDuplicated),
		reordered:     reg.Counter(MetricReordered),
		delayed:       reg.Counter(MetricDelayed),
		transitions:   reg.Counter(MetricTransitions),
	}
}

// Start anchors the schedule clock and launches the transition scheduler.
// Idempotent; Wrap'd transports call it lazily on first send, so calling
// it explicitly only matters when the exact epoch does.
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.startLocked()
}

func (in *Injector) startLocked() {
	if !in.startAt.IsZero() {
		return
	}
	in.startAt = time.Now()
	sched := Schedule(in.cfg)
	if len(sched) == 0 {
		return
	}
	in.wg.Add(1)
	go in.runSchedule(sched)
}

// runSchedule fires each transition at its offset, logging and emitting it.
func (in *Injector) runSchedule(sched []Transition) {
	defer in.wg.Done()
	for _, tr := range sched {
		timer := time.NewTimer(time.Until(in.startAt.Add(tr.At)))
		select {
		case <-timer.C:
		case <-in.done:
			timer.Stop()
			return
		}
		in.mu.Lock()
		in.fired = append(in.fired, tr)
		in.mu.Unlock()
		in.transitions.Inc()
		if in.cfg.Events != nil {
			ev := obs.Event{Type: tr.Event}
			switch tr.Event {
			case obs.EventPartition, obs.EventHeal:
				for _, p := range tr.Group.Members() {
					ev.To = append(ev.To, int(p))
				}
			default:
				ev.Proc = int(tr.Proc)
			}
			ev.Value = obs.Int64(tr.At.Milliseconds())
			in.cfg.Events.Emit(ev)
		}
	}
}

// Close stops and joins the transition scheduler. The underlying transports,
// and the packets they still hold, are their owner's to close.
func (in *Injector) Close() error {
	in.closeOnce.Do(func() { close(in.done) })
	in.wg.Wait()
	return nil
}

// PartitionLog returns the transitions that actually fired, in order.
func (in *Injector) PartitionLog() []Transition {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Transition(nil), in.fired...)
}

// Decisions returns the fault decision log in canonical (link, seq) order.
// Empty unless Config.RecordDecisions.
func (in *Injector) Decisions() []Decision {
	in.mu.Lock()
	out := append([]Decision(nil), in.decisions...)
	in.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Link != b.Link {
			if a.Link.From != b.Link.From {
				return a.Link.From < b.Link.From
			}
			return a.Link.To < b.Link.To
		}
		return a.Seq < b.Seq
	})
	return out
}

// RenderDecisions renders a decision log one verdict per line — the
// replayable textual form the determinism property compares.
func RenderDecisions(decs []Decision) string {
	var b strings.Builder
	for _, d := range decs {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// elapsed is the schedule-relative clock.
func (in *Injector) elapsed() time.Duration {
	in.mu.Lock()
	in.startLocked()
	at := in.startAt
	in.mu.Unlock()
	return time.Since(at)
}

// state returns (creating on first use) the link's PRNG state. The PRNG
// seed mixes the config seed with the link identity so links are
// independent yet reproducible.
func (in *Injector) state(l Link) *linkState {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.links[l]
	if st == nil {
		seed := in.cfg.Seed ^ (int64(l.From) * 0x1E3779B97F4A7C15) ^ (int64(l.To) * 0x1CE4E5B9BF58476D)
		st = &linkState{rng: rand.New(rand.NewSource(seed))}
		in.links[l] = st
	}
	return st
}

// decide draws one fault verdict. Every call consumes exactly five
// uniforms, so the decision stream stays aligned across outcomes.
func (in *Injector) decide(l Link, lf LinkFaults) Decision {
	st := in.state(l)
	st.mu.Lock()
	d := Decision{Link: l, Seq: st.seq}
	st.seq++
	uDrop := st.rng.Float64()
	uDup := st.rng.Float64()
	uReorder := st.rng.Float64()
	uSpike := st.rng.Float64()
	uMag := st.rng.Float64()
	st.mu.Unlock()

	d.Drop = uDrop < lf.Drop
	d.Duplicate = uDup < lf.Duplicate
	d.Reorder = uReorder < lf.Reorder
	if uSpike < lf.Spike {
		span := lf.SpikeMax - lf.SpikeMin
		d.Spike = lf.SpikeMin
		if span > 0 {
			d.Spike += time.Duration(uMag * float64(span))
		}
		if d.Spike <= 0 {
			d.Spike = time.Millisecond
		}
	}
	if in.cfg.RecordDecisions {
		in.mu.Lock()
		in.decisions = append(in.decisions, d)
		in.mu.Unlock()
	}
	return d
}

// crashed reports whether proc is inside a blackhole window at offset now.
func (in *Injector) crashed(proc model.ProcessID, now time.Duration) bool {
	for _, c := range in.cfg.Crashes {
		if c.Proc != proc || now < c.At {
			continue
		}
		if c.For == 0 || now < c.At+c.For {
			return true
		}
	}
	return false
}

// partitioned reports whether the link crosses an active partition
// boundary at offset now.
func (in *Injector) partitioned(from, to model.ProcessID, now time.Duration) bool {
	for _, p := range in.cfg.Partitions {
		if now < p.Start || now >= p.End {
			continue
		}
		if p.Group.Has(from) != p.Group.Has(to) {
			return true
		}
	}
	return false
}

// Wrap subjects every send through t to the fault schedule. Receives pass
// through untouched (faults are injected at the sending side, where the
// link identity is known).
func (in *Injector) Wrap(t Transport) Transport {
	return &transport{in: in, next: t}
}

type transport struct {
	in   *Injector
	next Transport
}

var _ Transport = (*transport)(nil)

// LocalID implements Transport.
func (t *transport) LocalID() model.ProcessID { return t.next.LocalID() }

// Listen implements Transport.
func (t *transport) Listen(fn func(wire.Packet)) { t.next.Listen(fn) }

// Recv implements Transport.
func (t *transport) Recv() <-chan wire.Packet { return t.next.Recv() }

// Close implements Transport.
func (t *transport) Close() error { return t.next.Close() }

// Send implements Transport.
func (t *transport) Send(to model.ProcessID, data []byte) error { return t.SendAfter(to, data, 0) }

// SendAfter implements Transport: it applies blackholes, then the per-link
// random menu, then hands each copy (two when duplicated) to the wrapped
// transport with the spike and reorder holdback added to extra. Injected
// drops return nil — a lossy network does not report loss to its sender.
func (t *transport) SendAfter(to model.ProcessID, data []byte, extra time.Duration) error {
	in := t.in
	from := t.next.LocalID()
	now := in.elapsed()
	switch {
	case in.crashed(from, now) || in.crashed(to, now):
		in.dropCrash.Inc()
		return nil
	case in.partitioned(from, to, now):
		in.dropPartition.Inc()
		return nil
	}
	lf := in.cfg.Default
	if !lf.active() || (in.cfg.Filter != nil && !in.cfg.Filter(from, to, data)) {
		return t.next.SendAfter(to, data, extra)
	}
	d := in.decide(Link{From: from, To: to}, lf)
	if d.Drop {
		in.dropLoss.Inc()
		return nil
	}
	if d.Spike > 0 {
		in.delayed.Inc()
		extra += d.Spike
	}
	if d.Reorder {
		in.reordered.Inc()
		extra += 2 * time.Millisecond
	}
	err := t.next.SendAfter(to, data, extra)
	if d.Duplicate {
		in.duplicated.Inc()
		if e := t.next.SendAfter(to, data, extra); err == nil {
			err = e
		}
	}
	return err
}
