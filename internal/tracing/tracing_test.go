package tracing

import (
	"testing"

	"repro/internal/obs"
)

// fakeClock gives a tracer a deterministic timebase for unit tests.
type fakeClock struct{ now int64 }

func (c *fakeClock) at(t int64) { c.now = t }

func newTestTracer(model string, n int, next obs.Sink) (*Tracer, *fakeClock) {
	tr := NewTracer("TestAlg", model, n, 1, next)
	c := &fakeClock{}
	tr.now = func() int64 { return c.now }
	return tr, c
}

// emitRound drives one complete round for proc p with the given arrivals.
func emitRound(tr *Tracer, c *fakeClock, p, round int, base int64, from []int) {
	c.at(base)
	tr.Emit(obs.Event{Type: obs.EventRoundStart, Round: round, Proc: p})
	c.at(base + 10)
	tr.Emit(obs.Event{Type: obs.EventSend, Round: round, From: p, To: from})
	for i, j := range from {
		c.at(base + 20 + int64(i))
		tr.Emit(obs.Event{Type: obs.EventArrive, Round: round, Proc: p, From: j})
	}
	c.at(base + 50)
	tr.Emit(obs.Event{Type: obs.EventRecv, Round: round, Proc: p, Peers: from})
}

// TestTracerAssembly drives a two-process, one-round exchange through the
// tracer and checks the span tree: run→round→send/wait/compute per process,
// contiguous phases, recorded reception peers, and a decide point inside
// the compute span.
func TestTracerAssembly(t *testing.T) {
	var col obs.Collector
	tr, c := newTestTracer("RS", 2, &col)

	emitRound(tr, c, 1, 1, 0, []int{2})
	emitRound(tr, c, 2, 1, 0, []int{1})
	c.at(60)
	tr.Emit(obs.Event{Type: obs.EventDecide, Round: 1, Proc: 1, Value: obs.Int64(7)})
	c.at(100)
	trace := tr.Finish()

	for _, p := range []int{1, 2} {
		root := trace.Find(func(s *Span) bool { return s.Kind == KindRun && s.Proc == p })
		if root == nil {
			t.Fatalf("p%d: no run span", p)
		}
		round := trace.Find(func(s *Span) bool { return s.Kind == KindRound && s.Proc == p })
		if round == nil || round.Parent != root.ID {
			t.Fatalf("p%d: round span missing or misparented: %+v", p, round)
		}
		var send, wait, comp *Span
		for i := range trace.Spans {
			s := &trace.Spans[i]
			if s.Proc != p || s.Parent != round.ID {
				continue
			}
			switch s.Kind {
			case KindSend:
				send = s
			case KindWait:
				wait = s
			case KindCompute:
				comp = s
			}
		}
		if send == nil || wait == nil || comp == nil {
			t.Fatalf("p%d: missing phase spans (send=%v wait=%v compute=%v)", p, send, wait, comp)
		}
		// Phases tile the round: no gaps, no overlap.
		if send.Start != round.Start || send.End != wait.Start || wait.End != comp.Start || comp.End != round.End {
			t.Errorf("p%d: phases do not tile the round: round [%d,%d] send [%d,%d] wait [%d,%d] compute [%d,%d]",
				p, round.Start, round.End, send.Start, send.End, wait.Start, wait.End, comp.Start, comp.End)
		}
		if len(wait.Peers) != 1 {
			t.Errorf("p%d: wait peers = %v, want one sender", p, wait.Peers)
		}
	}

	var decides int
	for _, pt := range trace.Points {
		if pt.Kind == PointDecide {
			decides++
			if pt.Proc != 1 || pt.Value == nil || *pt.Value != 7 {
				t.Errorf("decide point = %+v, want p1 value 7", pt)
			}
			parent := trace.Find(func(s *Span) bool { return s.ID == pt.Parent })
			if parent == nil || parent.Kind != KindCompute {
				t.Errorf("decide parent span = %+v, want the compute span", parent)
			}
		}
	}
	if decides != 1 {
		t.Errorf("decide points = %d, want 1", decides)
	}

	// The forwarded stream is stamped: every event carries a timestamp (or
	// is the trace-epoch event) and the arrivals carry joined clocks.
	evs := col.Events()
	if len(evs) == 0 {
		t.Fatal("no events forwarded to the next sink")
	}
	for _, ev := range evs {
		if ev.Type == obs.EventArrive && ev.Clock == 0 {
			t.Errorf("arrival not clock-stamped: %+v", ev)
		}
	}
}

// TestTracerLamportJoin checks the happens-before discipline: a receive's
// clock must exceed the matching send's clock, and the reception record's
// close joins with every peer's send.
func TestTracerLamportJoin(t *testing.T) {
	tr, c := newTestTracer("RWS", 2, nil)

	// p1 starts and sends at clock 2; p2 lags (clock 2 after its own send).
	c.at(0)
	tr.Emit(obs.Event{Type: obs.EventRoundStart, Round: 1, Proc: 1})
	tr.Emit(obs.Event{Type: obs.EventSend, Round: 1, From: 1, To: []int{2}})
	tr.Emit(obs.Event{Type: obs.EventRoundStart, Round: 1, Proc: 2})
	// Drive p1's clock well past p2's before p2 sends.
	for i := 0; i < 10; i++ {
		tr.Emit(obs.Event{Type: obs.EventSuspect, Round: 1, Proc: 2, By: 1})
		tr.Emit(obs.Event{Type: obs.EventRetract, Round: 1, Proc: 2, By: 1})
	}
	tr.Emit(obs.Event{Type: obs.EventSend, Round: 1, From: 2, To: []int{1}})

	c.at(10)
	tr.Emit(obs.Event{Type: obs.EventArrive, Round: 1, Proc: 2, From: 1})
	tr.Emit(obs.Event{Type: obs.EventArrive, Round: 1, Proc: 1, From: 2})
	tr.Emit(obs.Event{Type: obs.EventRecv, Round: 1, Proc: 2, Peers: []int{1}})
	trace := tr.Finish()

	var p1Send, p2Send, p1ArriveFrom2, p2ArriveFrom1 int64
	for _, s := range trace.Spans {
		if s.Kind == KindWait && s.Proc == 1 {
			p1Send = s.StartClock // p1's wait opens at its send clock
		}
		if s.Kind == KindWait && s.Proc == 2 {
			p2Send = s.StartClock
		}
	}
	for _, pt := range trace.Points {
		if pt.Kind == PointArrive && pt.Proc == 2 && pt.From == 1 {
			p2ArriveFrom1 = pt.Clock
		}
		if pt.Kind == PointArrive && pt.Proc == 1 && pt.From == 2 {
			p1ArriveFrom2 = pt.Clock
		}
	}
	if p2ArriveFrom1 <= p1Send {
		t.Errorf("p2's receive clock %d does not exceed p1's send clock %d", p2ArriveFrom1, p1Send)
	}
	// p1's clock raced far ahead of p2's send clock (20 detector events);
	// the join must keep p1 monotone rather than adopting the smaller
	// sender clock: 1 (round) + 1 (send) + 20 (fd) + 1 (arrive) = 23.
	if p1ArriveFrom2 != 23 {
		t.Errorf("p1's receive clock = %d, want 23 (monotone past its own history)", p1ArriveFrom2)
	}
	if p1ArriveFrom2 <= p2Send {
		t.Errorf("p1's receive clock %d does not exceed p2's send clock %d", p1ArriveFrom2, p2Send)
	}
}

// TestTracerFaultSpans checks the global track: a partition becomes a span
// closed by its heal, an injected crash (round 0) opens a blackhole span
// closed by the recovery, and suspicions land on the observer's track.
func TestTracerFaultSpans(t *testing.T) {
	tr, c := newTestTracer("RWS", 3, nil)

	c.at(0)
	tr.Emit(obs.Event{Type: obs.EventPartition, To: []int{1, 2}, Value: obs.Int64(0)})
	c.at(100)
	tr.Emit(obs.Event{Type: obs.EventCrash, Round: 0, Proc: 3})
	c.at(200)
	tr.Emit(obs.Event{Type: obs.EventSuspect, Round: 1, Proc: 3, By: 1})
	c.at(300)
	tr.Emit(obs.Event{Type: obs.EventHeal, To: []int{1, 2}})
	c.at(400)
	tr.Emit(obs.Event{Type: obs.EventRecover, Proc: 3})
	trace := tr.Finish()

	part := trace.Find(func(s *Span) bool { return s.Kind == KindPartition })
	if part == nil || part.Start != 0 || part.End != 300 || part.Proc != 0 {
		t.Errorf("partition span = %+v, want global [0,300]", part)
	}
	hole := trace.Find(func(s *Span) bool { return s.Kind == KindBlackhole })
	if hole == nil || hole.Start != 100 || hole.End != 400 {
		t.Errorf("blackhole span = %+v, want [100,400]", hole)
	}
	var suspects int
	for _, pt := range trace.Points {
		if pt.Kind == PointSuspect {
			suspects++
			if pt.Proc != 1 || pt.From != 3 {
				t.Errorf("suspicion point = %+v, want observer p1, subject p3", pt)
			}
		}
	}
	if suspects != 1 {
		t.Errorf("suspicion points = %d, want 1", suspects)
	}
}

// TestTracerNilAndFinishIdempotent covers the nil-sink contract and double
// Finish.
func TestTracerNilAndFinishIdempotent(t *testing.T) {
	var tr *Tracer
	tr.Emit(obs.Event{Type: obs.EventDecide}) // must not panic

	tr2, c := newTestTracer("RS", 1, nil)
	c.at(5)
	tr2.Emit(obs.Event{Type: obs.EventRoundStart, Round: 1, Proc: 1})
	a := tr2.Finish()
	b := tr2.Finish()
	if a != b {
		t.Error("Finish not idempotent")
	}
	for _, s := range a.Spans {
		if s.End < s.Start {
			t.Errorf("unsealed span after Finish: %+v", s)
		}
	}
}

// TestTracerCrashInSendPhaseOpensNoWait: a process that sends and crashes
// in one round never waited. Its send phase runs to the crash point, and
// the round holds no wait span; a survivor that sent in the same round
// still gets its wait from the send on.
func TestTracerCrashInSendPhaseOpensNoWait(t *testing.T) {
	tr, c := newTestTracer("RWS", 2, nil)
	c.at(0)
	tr.Emit(obs.Event{Type: obs.EventRoundStart, Round: 1, Proc: 1})
	tr.Emit(obs.Event{Type: obs.EventRoundStart, Round: 1, Proc: 2})
	c.at(10)
	tr.Emit(obs.Event{Type: obs.EventSend, Round: 1, From: 1, To: []int{2}})
	tr.Emit(obs.Event{Type: obs.EventSend, Round: 1, From: 2, To: []int{1}})
	c.at(15)
	tr.Emit(obs.Event{Type: obs.EventCrash, Round: 1, Proc: 2})
	c.at(20)
	tr.Emit(obs.Event{Type: obs.EventArrive, Round: 1, Proc: 1, From: 2})
	c.at(30)
	tr.Emit(obs.Event{Type: obs.EventRecv, Round: 1, Proc: 1, Peers: []int{2}})
	trace := tr.Finish()

	phase := func(p int, kind string) *Span {
		return trace.Find(func(s *Span) bool { return s.Proc == p && s.Kind == kind })
	}
	if w := phase(2, KindWait); w != nil {
		t.Errorf("the crasher has a wait span %+v, want none", w)
	}
	if s := phase(2, KindSend); s == nil || s.Start != 0 || s.End != 15 {
		t.Errorf("crasher's send span = %+v, want [0,15]: it ends at the crash", s)
	}
	if s, w := phase(1, KindSend), phase(1, KindWait); s == nil || w == nil || s.End != 10 || w.Start != 10 || w.End != 30 {
		t.Errorf("survivor's send %+v and wait %+v, want the wait [10,30] from its send", s, w)
	}
}
