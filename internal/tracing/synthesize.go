package tracing

import (
	"repro/internal/obs"
	"repro/internal/rounds"
)

// Unit is the synthetic timebase's base unit in trace nanoseconds: one
// phase-quarter of a round. Synthesize lays every round out on a fixed
// grid — send [0,1u), wait [1u,3u), compute [3u,4u) — so two engine runs
// with the same schedule produce byte-identical traces, and a synthetic
// trace renders side-by-side with a live one in the same viewer.
const Unit = int64(1e6)

// roundStart is the synthetic start of round r (1-based): 4 units a round.
func roundStart(r int) int64 { return int64(r-1) * 4 * Unit }

// gridOffset is where each event type of a round lands on the grid, from
// the round's start. recordEvents emits a round phase by phase in this
// order, so the grid clock is monotone.
var gridOffset = map[obs.EventType]int64{
	obs.EventSend:   Unit,
	obs.EventCrash:  Unit,
	obs.EventArrive: 2 * Unit,
	obs.EventRecv:   3 * Unit,
	obs.EventDecide: 3*Unit + Unit/2,
}

// Synthesize traces an engine run the way a live run is traced: a Tracer
// assembles rounds.EventsFromRun(run), which speaks the live worker's
// dialect, on a synthetic clock (Timebase "synthetic") that reads each
// event's place on the round grid instead of the wall. The times are
// deterministic functions of the schedule alone, and emulated and live
// executions of the same schedule share one assembler and feed the same
// attribution analyzer.
func Synthesize(run *rounds.Run) *Trace {
	tr := NewTracer(run.Algorithm, run.Model.String(), run.N, run.T, nil)
	tr.trace.Timebase = "synthetic"
	var ts int64
	tr.now = func() int64 { return ts }
	for _, ev := range rounds.EventsFromRun(run) {
		switch ev.Type {
		case obs.EventRunStart:
			ts = 0
		case obs.EventRunEnd:
			ts = roundStart(len(run.Rounds) + 1)
		default:
			ts = roundStart(ev.Round) + gridOffset[ev.Type]
		}
		tr.Emit(ev)
	}
	return tr.Finish()
}
