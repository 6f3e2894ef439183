// Package tracing is the repository's causal tracing layer: it turns the
// structured event streams of package obs into per-process span trees
// ordered by happens-before, exportable as Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing) or as a self-contained HTML timeline, and
// analyzable by the latency attribution of attribute.go.
//
// The paper's efficiency result (§5) is a timing claim — one round suffices
// in RS with t=1 while every RWS uniform-consensus algorithm pays at least
// two — and a flat event log cannot show *where* a live round's wall-clock
// time goes. This package restores the causal structure: every event is
// stamped with a Lamport clock (receives join with the matching send, so the
// stamps respect happens-before) and filed under its enclosing span. A live
// process's timeline decomposes each round into three phases:
//
//	round r ─┬─ send     broadcast of the round's messages
//	         ├─ wait     the reception wait: RS round barrier, or the RWS
//	         │           receive-or-suspect loop over the failure detector
//	         └─ compute  transition + decision test
//
// plus instant points for message arrivals, suspicions, retractions,
// decisions and crashes. Fault-injector topology changes (package faults)
// become spans on a global track: a partition span from formation to heal, a
// blackhole span from injected crash to recovery. Engine runs are traced by
// the same Tracer through Synthesize, which feeds it the engine's event
// stream on a deterministic synthetic clock, so live and model-level
// executions render identically.
//
// A Tracer is an obs.Sink: interpose it in front of any sink chain (JSONL
// emitter, collector) and downstream events carry their TS/Clock/Span
// stamps. Finish assembles the trace; WriteChrome/WriteHTML export it;
// Attribute decomposes decision latency; ReconcileRounds checks the
// observed round count against the engine replay of the same schedule.
package tracing

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// SpanID identifies one span within a trace. IDs are assigned in event
// order starting at 1; 0 means "no span" (a root, or an unparented point).
type SpanID int64

// Span kinds. Runtime spans form the per-process tree run→round→phase;
// fault spans live on the global track.
const (
	KindRun       = "run"       // one process's whole execution
	KindRound     = "round"     // one protocol round
	KindSend      = "send"      // the round's broadcast phase
	KindWait      = "wait"      // the round's reception wait
	KindCompute   = "compute"   // transition + decision test
	KindPartition = "partition" // fault injector: partition window
	KindBlackhole = "blackhole" // fault injector: crash/recovery window
)

// Request-scoped span kinds: the serving daemon's per-request causal tree
// (http request → kv flight → consensus instance). They ride the same
// Span/Trace machinery — WriteChrome and ReadChrome round-trip them like
// any other kind — and tile the request's wall-clock total the same way
// send/wait/compute tile a round.
const (
	KindRequest    = "request"    // one HTTP request, end to end
	KindHandler    = "handler"    // parse, dispatch, response encoding
	KindQueue      = "queue"      // blocked behind another client's KV flight
	KindContention = "contention" // CAS head checks, slot acquisition, retries
	KindConsensus  = "consensus"  // own instance open → engine completion
	KindCommit     = "commit"     // commit callback → waiter wakeup
)

// Point kinds: instantaneous trace events.
const (
	PointArrive  = "arrive"  // a data message landed (From → Proc, Round)
	PointSuspect = "suspect" // Proc's detector suspected From
	PointRetract = "retract" // Proc's detector retracted From
	PointDecide  = "decide"  // Proc decided Value at Round
	PointCrash   = "crash"   // Proc crashed during Round
)

// Categories group spans for rendering (one color per category).
const (
	CatRuntime = "runtime"
	CatFD      = "fd"
	CatFaults  = "faults"
	CatServe   = "serve" // request-scoped serving spans
)

// Span is one interval of a trace. Times are nanoseconds from the trace
// epoch; clocks are Lamport stamps taken when the span opened and closed.
type Span struct {
	ID     SpanID
	Parent SpanID
	Proc   int // 1-based process; 0 = global track
	Kind   string
	Cat    string
	Round  int // 0 for run-level and fault spans

	Start, End           int64
	StartClock, EndClock int64

	// Peers is the reception record a wait span closed with: the senders
	// whose round messages had arrived (KindWait only). The attribution
	// analyzer reads it to tell a transport-bound wait from a
	// detector-bound one.
	Peers []int
}

// Duration returns the span's extent.
func (s *Span) Duration() int64 { return s.End - s.Start }

// Point is one instantaneous trace event.
type Point struct {
	Parent SpanID
	Proc   int // owning track: receiver (arrive), observer (suspect/retract)
	Kind   string
	Cat    string
	Round  int
	From   int    // arrive: sender; suspect/retract: the suspected process
	Value  *int64 // decide only
	TS     int64
	Clock  int64
}

// Trace is an assembled causal trace: the coordinate it was taken at, its
// timebase, and the closed spans and points.
type Trace struct {
	Algorithm string
	Model     string
	N, T      int
	// Timebase is "wall" for live traces (nanoseconds of real time) or
	// "synthetic" for engine traces (Synthesize's fixed units).
	Timebase string

	Spans  []Span
	Points []Point
}

// Graft splices sub into t as children of span parent: sub's span ids are
// renumbered past t's, its root spans re-parented to parent, and its times
// shifted by offset (sub's epoch minus t's, in ns) and clamped into
// parent's window. Shift and clamp are monotone, so every exact tiling
// inside sub (CheckSums) survives the graft.
func (t *Trace) Graft(parent SpanID, sub *Trace, offset int64) {
	var base SpanID
	var lo, hi int64
	for i := range t.Spans {
		sp := &t.Spans[i]
		base = max(base, sp.ID)
		if sp.ID == parent {
			lo, hi = sp.Start, sp.End
		}
	}
	at := func(ts int64) int64 { return min(max(ts+offset, lo), hi) }
	under := func(id SpanID) SpanID {
		if id == 0 {
			return parent
		}
		return id + base
	}
	for _, sp := range sub.Spans {
		sp.ID, sp.Parent = sp.ID+base, under(sp.Parent)
		sp.Start, sp.End = at(sp.Start), at(sp.End)
		t.Spans = append(t.Spans, sp)
	}
	for _, pt := range sub.Points {
		pt.Parent, pt.TS = under(pt.Parent), at(pt.TS)
		t.Points = append(t.Points, pt)
	}
}

// Find returns the first span matching the predicate, or nil.
func (t *Trace) Find(pred func(*Span) bool) *Span {
	for i := range t.Spans {
		if pred(&t.Spans[i]) {
			return &t.Spans[i]
		}
	}
	return nil
}

// procTrack is a Tracer's per-process assembly state.
type procTrack struct {
	clock     int64
	root      SpanID
	round     SpanID // open round span (0 when none)
	phase     SpanID // open phase span (0 when none)
	phaseKind string
	crashed   bool
}

// sendKey identifies one (sender, round) broadcast for clock propagation.
type sendKey struct{ from, round int }

// Tracer assembles a live event stream into a Trace. It implements
// obs.Sink; events are stamped (TS, Clock, Span) and forwarded to the next
// sink, so a JSONL file written behind a tracer carries the span context
// inline. Safe for concurrent use — live nodes emit from their own
// goroutines — and nil-safe like every sink in this repository.
type Tracer struct {
	mu       sync.Mutex
	next     obs.Sink
	epoch    time.Time
	now      func() int64 // ns since epoch; monotone under mu
	lastTS   int64
	nextID   SpanID
	procs    map[int]*procTrack
	sends    map[sendKey]int64 // Lamport clock of each (sender, round) send
	open     map[SpanID]int    // open span ID → index in trace.Spans
	parts    map[string]SpanID // open partition spans by group signature
	holes    map[int]SpanID    // open blackhole spans by process
	trace    *Trace
	finished bool
}

// NewTracer builds a tracer for a live run at the given coordinate. next
// may be nil; when set, every event is forwarded after stamping.
func NewTracer(algorithm, model string, n, t int, next obs.Sink) *Tracer {
	epoch := time.Now()
	tr := &Tracer{
		next:  next,
		epoch: epoch,
		procs: make(map[int]*procTrack),
		sends: make(map[sendKey]int64),
		open:  make(map[SpanID]int),
		parts: make(map[string]SpanID),
		holes: make(map[int]SpanID),
		trace: &Trace{Algorithm: algorithm, Model: model, N: n, T: t, Timebase: "wall"},
	}
	tr.now = func() int64 { return int64(time.Since(epoch)) }
	return tr
}

// Epoch is the wall-clock instant the tracer's timestamps count from.
func (t *Tracer) Epoch() time.Time { return t.epoch }

// stamp returns a monotone timestamp (callers hold mu).
func (t *Tracer) stamp() int64 {
	ts := t.now()
	if ts < t.lastTS {
		ts = t.lastTS
	}
	t.lastTS = ts
	return ts
}

// proc returns (creating) the track for process p.
func (t *Tracer) proc(p int) *procTrack {
	pt := t.procs[p]
	if pt == nil {
		pt = &procTrack{}
		t.procs[p] = pt
	}
	return pt
}

// openSpan appends an open span and returns its ID.
func (t *Tracer) openSpan(parent SpanID, proc int, kind, cat string, round int, ts, clock int64) SpanID {
	t.nextID++
	id := t.nextID
	t.trace.Spans = append(t.trace.Spans, Span{
		ID: id, Parent: parent, Proc: proc, Kind: kind, Cat: cat, Round: round,
		Start: ts, End: -1, StartClock: clock, EndClock: clock,
	})
	t.open[id] = len(t.trace.Spans) - 1
	return id
}

// closeSpan seals an open span (no-op for id 0 or an already-closed span).
func (t *Tracer) closeSpan(id SpanID, ts, clock int64) *Span {
	idx, ok := t.open[id]
	if id == 0 || !ok {
		return nil
	}
	delete(t.open, id)
	sp := &t.trace.Spans[idx]
	sp.End = ts
	sp.EndClock = clock
	return sp
}

// closePhases seals a process's open phase, round and (optionally) root.
func (t *Tracer) closeProc(pt *procTrack, ts int64, andRoot bool) {
	t.closeSpan(pt.phase, ts, pt.clock)
	pt.phase, pt.phaseKind = 0, ""
	t.closeSpan(pt.round, ts, pt.clock)
	pt.round = 0
	if andRoot {
		t.closeSpan(pt.root, ts, pt.clock)
		pt.root = 0
	}
}

// point files an instant event.
func (t *Tracer) point(p Point) {
	t.trace.Points = append(t.trace.Points, p)
}

// Emit implements obs.Sink: the event is folded into the span assembly,
// stamped, and forwarded.
func (t *Tracer) Emit(ev obs.Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ts := t.stamp()
	var clock int64
	var span SpanID

	typ := ev.Type
	if t.finished {
		typ = "" // the trace is sealed and may be read concurrently: forward only
	}
	switch typ {
	case obs.EventRoundStart:
		pt := t.proc(ev.Proc)
		pt.clock++
		if pt.root == 0 && !pt.crashed {
			pt.root = t.openSpan(0, ev.Proc, KindRun, CatRuntime, 0, ts, pt.clock)
		}
		// The previous round's compute phase runs right up to this instant.
		t.closeSpan(pt.phase, ts, pt.clock)
		t.closeSpan(pt.round, ts, pt.clock)
		pt.round = t.openSpan(pt.root, ev.Proc, KindRound, CatRuntime, ev.Round, ts, pt.clock)
		pt.phase = t.openSpan(pt.round, ev.Proc, KindSend, CatRuntime, ev.Round, ts, pt.clock)
		pt.phaseKind = KindSend
		clock, span = pt.clock, pt.round

	case obs.EventSend:
		pt := t.proc(ev.From)
		pt.clock++
		t.sends[sendKey{ev.From, ev.Round}] = pt.clock
		if pt.phaseKind == KindSend {
			t.closeSpan(pt.phase, ts, pt.clock)
			pt.phase = t.openSpan(pt.round, ev.From, KindWait, CatRuntime, ev.Round, ts, pt.clock)
			pt.phaseKind = KindWait
		}
		clock, span = pt.clock, pt.phase

	case obs.EventArrive:
		pt := t.proc(ev.Proc)
		c := pt.clock
		if sc := t.sends[sendKey{ev.From, ev.Round}]; sc > c {
			c = sc
		}
		pt.clock = c + 1
		parent := pt.phase
		if parent == 0 {
			parent = pt.root
		}
		t.point(Point{Parent: parent, Proc: ev.Proc, Kind: PointArrive, Cat: CatRuntime,
			Round: ev.Round, From: ev.From, TS: ts, Clock: pt.clock})
		clock, span = pt.clock, parent

	case obs.EventRecv:
		pt := t.proc(ev.Proc)
		c := pt.clock
		for _, j := range ev.Peers {
			if sc := t.sends[sendKey{j, ev.Round}]; sc > c {
				c = sc
			}
		}
		pt.clock = c + 1
		if pt.phaseKind == KindSend {
			// The node sent to no one (n=1, or a zero-reach broadcast), so no
			// send event arrived; the wait was still real, just unobserved.
			t.closeSpan(pt.phase, ts, pt.clock)
			pt.phase = t.openSpan(pt.round, ev.Proc, KindWait, CatRuntime, ev.Round, ts, pt.clock)
			pt.phaseKind = KindWait
		}
		if sp := t.closeSpan(t.proc(ev.Proc).phase, ts, pt.clock); sp != nil && sp.Kind == KindWait {
			sp.Peers = append([]int(nil), ev.Peers...)
		}
		pt.phase = t.openSpan(pt.round, ev.Proc, KindCompute, CatRuntime, ev.Round, ts, pt.clock)
		pt.phaseKind = KindCompute
		clock, span = pt.clock, pt.phase

	case obs.EventDecide:
		pt := t.proc(ev.Proc)
		pt.clock++
		t.point(Point{Parent: pt.phase, Proc: ev.Proc, Kind: PointDecide, Cat: CatRuntime,
			Round: ev.Round, Value: ev.Value, TS: ts, Clock: pt.clock})
		clock, span = pt.clock, pt.phase

	case obs.EventCrash:
		if ev.Round == 0 {
			// Fault-injector blackhole: a wall-clock kill on the global track.
			if _, dup := t.holes[ev.Proc]; !dup {
				t.holes[ev.Proc] = t.openSpan(0, 0, KindBlackhole, CatFaults, 0, ts, 0)
			}
			t.point(Point{Parent: t.holes[ev.Proc], Proc: 0, Kind: PointCrash, Cat: CatFaults,
				From: ev.Proc, TS: ts})
			span = t.holes[ev.Proc]
			break
		}
		pt := t.proc(ev.Proc)
		pt.clock++
		pt.crashed = true
		t.point(Point{Parent: pt.round, Proc: ev.Proc, Kind: PointCrash, Cat: CatRuntime,
			Round: ev.Round, TS: ts, Clock: pt.clock})
		t.closeProc(pt, ts, true)
		clock, span = pt.clock, 0

	case obs.EventSuspect, obs.EventRetract:
		pt := t.proc(ev.By)
		pt.clock++
		kind := PointSuspect
		if ev.Type == obs.EventRetract {
			kind = PointRetract
		}
		parent := pt.phase
		if parent == 0 {
			parent = pt.root
		}
		t.point(Point{Parent: parent, Proc: ev.By, Kind: kind, Cat: CatFD,
			Round: ev.Round, From: ev.Proc, TS: ts, Clock: pt.clock})
		clock, span = pt.clock, parent

	case obs.EventPartition:
		sig := fmt.Sprint(ev.To)
		if _, dup := t.parts[sig]; !dup {
			t.parts[sig] = t.openSpan(0, 0, KindPartition, CatFaults, 0, ts, 0)
		}
		span = t.parts[sig]

	case obs.EventHeal:
		sig := fmt.Sprint(ev.To)
		t.closeSpan(t.parts[sig], ts, 0)
		delete(t.parts, sig)

	case obs.EventRecover:
		t.closeSpan(t.holes[ev.Proc], ts, 0)
		delete(t.holes, ev.Proc)
	}

	next := t.next
	t.mu.Unlock()
	if next != nil {
		ev.TS = ts
		ev.Clock = clock
		ev.Span = int64(span)
		next.Emit(ev)
	}
}

// Finish seals every open span at the last observed timestamp and returns
// the assembled trace. Further Emit calls are still accepted (late events
// from a closing cluster) but no longer recorded. Safe to call once.
func (t *Tracer) Finish() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return t.trace
	}
	t.finished = true
	ts := t.lastTS
	procs := make([]int, 0, len(t.procs))
	for p := range t.procs {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		t.closeProc(t.procs[p], ts, true)
	}
	for id := range t.open {
		t.closeSpan(id, ts, 0)
	}
	sort.Slice(t.trace.Spans, func(i, j int) bool { return t.trace.Spans[i].ID < t.trace.Spans[j].ID })
	return t.trace
}
