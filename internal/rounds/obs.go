package rounds

import (
	"repro/internal/model"
	"repro/internal/obs"
)

// Metric names exported by the round engines, each labelled with the model
// ({model="RS"} or {model="RWS"}) via obs.Label.
const (
	MetricRuns              = "ssfd_rounds_runs_total"
	MetricRounds            = "ssfd_rounds_rounds_total"
	MetricMessagesSent      = "ssfd_rounds_messages_sent_total"
	MetricMessagesDelivered = "ssfd_rounds_messages_delivered_total"
	MetricMessagesDropped   = "ssfd_rounds_messages_dropped_total"
	MetricMessagesPending   = "ssfd_rounds_messages_pending_total"
	MetricCrashes           = "ssfd_rounds_crashes_total"
	MetricDecisions         = "ssfd_rounds_decisions_total"
)

// roundsMetrics caches the per-model counters an engine increments, resolved
// once at construction so Step pays only atomic adds.
type roundsMetrics struct {
	runs, rounds       *obs.Counter
	sent, delivered    *obs.Counter
	dropped, pending   *obs.Counter
	crashes, decisions *obs.Counter
}

func newRoundsMetrics(reg *obs.Registry, kind ModelKind) roundsMetrics {
	label := func(name string) *obs.Counter {
		return reg.Counter(obs.Label(name, "model", kind.String()))
	}
	return roundsMetrics{
		runs:      label(MetricRuns),
		rounds:    label(MetricRounds),
		sent:      label(MetricMessagesSent),
		delivered: label(MetricMessagesDelivered),
		dropped:   label(MetricMessagesDropped),
		pending:   label(MetricMessagesPending),
		crashes:   label(MetricCrashes),
		decisions: label(MetricDecisions),
	}
}

// Totals are the message and failure tallies of one round or one whole run,
// recomputed exactly from the record. The engine increments its counters by
// the same arithmetic, so for any completed run the registry deltas equal
// Run.Totals() — the property tests pin this down.
type Totals struct {
	Rounds    int // rounds executed
	Sent      int // non-null messages addressed to other processes
	Delivered int // messages actually received (equals RoundRecord.Messages)
	Dropped   int // messages lost to a crash (sender's or receiver's)
	Pending   int // RWS pending messages: dropped by a live (obligated) sender
	Crashes   int // processes that crashed
	Decisions int // decisions taken (run-level only; zero in per-round totals)
}

// Add accumulates o into t.
func (t *Totals) Add(o Totals) {
	t.Rounds += o.Rounds
	t.Sent += o.Sent
	t.Delivered += o.Delivered
	t.Dropped += o.Dropped
	t.Pending += o.Pending
	t.Crashes += o.Crashes
	t.Decisions += o.Decisions
}

// Totals recomputes the message tallies of one round from its record.
// Self-deliveries are local bookkeeping, not network traffic, and are
// excluded throughout; the invariant Sent = Delivered + Dropped + Pending
// holds by construction.
func (rr *RoundRecord) Totals() Totals {
	t := Totals{Rounds: 1, Crashes: rr.Crashed.Count()}
	survivors := rr.AliveStart.Minus(rr.Crashed)
	rr.AliveStart.ForEach(func(pj model.ProcessID) bool {
		sent := rr.Sent[pj].Remove(pj)
		delivered := rr.Reached[pj].Remove(pj)
		lost := sent.Minus(delivered)
		t.Sent += sent.Count()
		t.Delivered += delivered.Count()
		if rr.Crashed.Has(pj) {
			// A mid-broadcast crash loses the rest of the broadcast outright.
			t.Dropped += lost.Count()
		} else {
			// A live sender loses a message either because the receiver
			// crashed this round (dropped) or because the adversary withheld
			// it from a live receiver — an RWS pending message, obligating
			// the sender to crash next round.
			t.Pending += lost.Intersect(survivors).Count()
			t.Dropped += lost.Minus(survivors).Count()
		}
		return true
	})
	return t
}

// Totals recomputes the run's aggregate tallies from its record.
func (r *Run) Totals() Totals {
	var t Totals
	for i := range r.Rounds {
		t.Add(r.Rounds[i].Totals())
	}
	for p := 1; p <= r.N; p++ {
		if r.DecidedAt[p] != 0 {
			t.Decisions++
		}
	}
	return t
}

func setInts(s model.ProcSet) []int {
	ids := make([]int, 0, s.Count())
	s.ForEach(func(p model.ProcessID) bool {
		ids = append(ids, int(p))
		return true
	})
	return ids
}

// heardBy returns the senders whose round envelope pi received, in the live
// runtime's terms: a sender that reached pi, and a surviving sender that
// addressed pi a null message (the envelope still arrives). A crasher is
// heard exactly by its Reached set.
func (rr *RoundRecord) heardBy(i model.ProcessID) model.ProcSet {
	var heard model.ProcSet
	rr.AliveStart.Remove(i).ForEach(func(j model.ProcessID) bool {
		if rr.Reached[j].Has(i) || (!rr.Crashed.Has(j) && !rr.Sent[j].Has(i)) {
			heard = heard.Add(j)
		}
		return true
	})
	return heard
}

// recordEvents converts one round record (plus the per-process decision
// table, which the record itself does not carry) into the live worker's
// event dialect, phase by phase so a tracer's grid clock stays monotone:
// every round_start; every send — a survivor's to every other process, as
// the live broadcast addresses all n−1 whatever it carries, a crasher's to
// the processes it reached; every crash; one arrive per survivor and sender
// it heard (heardBy: a null frame from a surviving sender arrives too);
// every survivor's recv; every decision. Each phase runs in ascending
// process order.
func recordEvents(rec *RoundRecord, n int, decidedAt []int, decisionOf []model.Value, emit func(obs.Event)) {
	r := rec.Round
	rec.AliveStart.ForEach(func(p model.ProcessID) bool {
		emit(obs.Event{Type: obs.EventRoundStart, Round: r, Proc: int(p)})
		return true
	})
	rec.AliveStart.ForEach(func(p model.ProcessID) bool {
		to := model.FullSet(n)
		if rec.Crashed.Has(p) {
			to = rec.Reached[p]
		}
		if to = to.Remove(p); !to.Empty() {
			emit(obs.Event{Type: obs.EventSend, Round: r, From: int(p), To: setInts(to)})
		}
		return true
	})
	rec.Crashed.ForEach(func(p model.ProcessID) bool {
		emit(obs.Event{Type: obs.EventCrash, Round: r, Proc: int(p)})
		return true
	})
	survivors := rec.AliveStart.Minus(rec.Crashed)
	heard := make([]model.ProcSet, n+1)
	survivors.ForEach(func(p model.ProcessID) bool {
		heard[p] = rec.heardBy(p)
		heard[p].ForEach(func(j model.ProcessID) bool {
			emit(obs.Event{Type: obs.EventArrive, Round: r, Proc: int(p), From: int(j)})
			return true
		})
		return true
	})
	survivors.ForEach(func(p model.ProcessID) bool {
		emit(obs.Event{Type: obs.EventRecv, Round: r, Proc: int(p), Peers: setInts(heard[p])})
		return true
	})
	survivors.ForEach(func(p model.ProcessID) bool {
		if decidedAt[p] == r {
			emit(obs.Event{Type: obs.EventDecide, Round: r, Proc: int(p),
				Value: obs.Int64(int64(decisionOf[p]))})
		}
		return true
	})
}

// EventsFromRun converts a completed run record into the structured event
// stream the engine emits through WithEventSink: run_start, each round in
// the live worker's dialect (recordEvents), run_end. It is what
// conform.Project reads — projecting it replays to a run with
// conform.Fingerprint(run) — and what tracing.Synthesize traces.
func EventsFromRun(run *Run) []obs.Event {
	values := make([]int64, run.N)
	for p := 1; p <= run.N; p++ {
		values[p-1] = int64(run.Initial[p])
	}
	events := []obs.Event{{
		Type:      obs.EventRunStart,
		Algorithm: run.Algorithm,
		Model:     run.Model.String(),
		N:         run.N,
		T:         run.T,
		Values:    values,
	}}
	for i := range run.Rounds {
		recordEvents(&run.Rounds[i], run.N, run.DecidedAt, run.DecisionOf,
			func(ev obs.Event) { events = append(events, ev) })
	}
	return append(events, obs.Event{Type: obs.EventRunEnd, Truncated: run.Truncated})
}
