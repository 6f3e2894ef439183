package conform

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
)

// Suspicion is one failure-detector edge observed during the execution.
type Suspicion struct {
	By, Of model.ProcessID
	Round  int // the observer's round when the edge fired
	// Retracted marks a suspicion withdrawal — by itself proof the
	// detector was not perfect in this run.
	Retracted bool
}

// LiveRun is a live (or emulated) execution canonicalized to the round
// level: exactly the observables the round models' adversary controls,
// plus decisions and detector behaviour. Rounds, crash rounds and
// decisions are recorded untruncated; Horizon marks where the round
// engines would declare the run complete — every process alive at the end
// of Horizon has decided and no weak-round-synchrony obligation is
// outstanding — and later activity (post-decision crashes, the rounds an
// early decider keeps relaying until it is quiet) is outside the round
// model by construction.
// Replay and DiffLive operate on the Horizon prefix; the invariant monitor
// sees everything.
type LiveRun struct {
	Meta Meta

	// Receptions holds the rounds (Rounds[r-1] is round r) and the crash
	// round of every process (0 = never crashed).
	rounds.Receptions

	DecidedAt  []int         // 1..n; 0 = never decided
	DecisionOf []model.Value // meaningful iff DecidedAt > 0

	Suspicions []Suspicion

	// WallClockCrashes lists processes killed by the fault injector's
	// wall-clock blackholes (crash events with no round attribution) —
	// outside the crash-stop round model, flagged by the monitor.
	WallClockCrashes []model.ProcessID

	// Horizon is the round-model length of the run (see type comment).
	Horizon int
	// Truncated is set when no such horizon exists within the observed
	// rounds: some process was still alive and undecided at the end.
	Truncated bool
}

// newLiveRun returns an empty projection at meta's coordinate.
func newLiveRun(meta Meta) *LiveRun {
	n := meta.N()
	return &LiveRun{
		Meta:       meta,
		Receptions: *rounds.NewReceptions(n, meta.T),
		DecidedAt:  make([]int, n+1),
		DecisionOf: make([]model.Value, n+1),
	}
}

// Project canonicalizes a live cluster's structured event stream into a
// LiveRun. The stream must carry the reception records (obs.EventRecv)
// the runtime emits at every round close; send events are ignored — the
// replay recomputes message patterns from the algorithm itself.
func Project(meta Meta, events []obs.Event) (*LiveRun, error) {
	if err := meta.validate(); err != nil {
		return nil, err
	}
	n := meta.N()
	lr := newLiveRun(meta)
	for _, ev := range events {
		switch ev.Type {
		case obs.EventRecv:
			if err := checkProcRound(n, ev.Proc, ev.Round); err != nil {
				return nil, fmt.Errorf("conform: recv event: %w", err)
			}
			rd := lr.At(ev.Round)
			p := model.ProcessID(ev.Proc)
			if rd.Completed.Has(p) {
				return nil, fmt.Errorf("conform: duplicate reception record for %v at round %d", p, ev.Round)
			}
			rd.Completed = rd.Completed.Add(p)
			var peers model.ProcSet
			for _, j := range ev.Peers {
				if !model.ProcessID(j).Valid(n) {
					return nil, fmt.Errorf("conform: recv event for %v names sender %d outside 1..%d", p, j, n)
				}
				peers = peers.Add(model.ProcessID(j))
			}
			rd.Received[p] = peers.Remove(p)
		case obs.EventCrash:
			p := model.ProcessID(ev.Proc)
			if ev.Round == 0 {
				// Fault-injector blackhole: a wall-clock kill with no round
				// structure. Recorded for the monitor, not for replay.
				lr.WallClockCrashes = append(lr.WallClockCrashes, p)
				continue
			}
			if err := checkProcRound(n, ev.Proc, ev.Round); err != nil {
				return nil, fmt.Errorf("conform: crash event: %w", err)
			}
			if lr.CrashRound[p] != 0 {
				return nil, fmt.Errorf("conform: %v crashed twice (rounds %d and %d)", p, lr.CrashRound[p], ev.Round)
			}
			lr.Crash(p, ev.Round)
		case obs.EventDecide:
			if err := checkProcRound(n, ev.Proc, ev.Round); err != nil {
				return nil, fmt.Errorf("conform: decide event: %w", err)
			}
			if ev.Value == nil {
				return nil, fmt.Errorf("conform: decide event for p%d carries no value", ev.Proc)
			}
			p := model.ProcessID(ev.Proc)
			if lr.DecidedAt[p] != 0 {
				return nil, fmt.Errorf("conform: %v decided twice (rounds %d and %d)", p, lr.DecidedAt[p], ev.Round)
			}
			lr.DecidedAt[p] = ev.Round
			lr.DecisionOf[p] = model.Value(*ev.Value)
		case obs.EventSuspect, obs.EventRetract:
			if !model.ProcessID(ev.Proc).Valid(n) || !model.ProcessID(ev.By).Valid(n) {
				return nil, fmt.Errorf("conform: suspicion event names processes (%d by %d) outside 1..%d", ev.Proc, ev.By, n)
			}
			lr.Suspicions = append(lr.Suspicions, Suspicion{
				By: model.ProcessID(ev.By), Of: model.ProcessID(ev.Proc),
				Round: ev.Round, Retracted: ev.Type == obs.EventRetract,
			})
		default:
			// Send and round_start events are redundant with the reception
			// records; run framing and fault-injector topology events carry
			// no round-model content.
		}
	}
	if err := lr.finalize(); err != nil {
		return nil, err
	}
	return lr, nil
}

func checkProcRound(n, proc, round int) error {
	if !model.ProcessID(proc).Valid(n) {
		return fmt.Errorf("process %d outside 1..%d", proc, n)
	}
	if round < 1 {
		return fmt.Errorf("p%d: round %d < 1", proc, round)
	}
	return nil
}

// finalize validates the projection's internal consistency and computes
// the horizon. A crash round may lie past the last completed round (the
// victim was the only process still running); rounds.Receptions.Crash has
// materialized it, so the schedule can express the crash.
func (lr *LiveRun) finalize() error {
	n := lr.Meta.N()
	if len(lr.Rounds) == 0 {
		return fmt.Errorf("conform: execution produced no rounds")
	}
	for i := range lr.Rounds {
		rd := &lr.Rounds[i]
		r := rd.Round
		for p := 1; p <= n; p++ {
			pid := model.ProcessID(p)
			if rd.Completed.Has(pid) && !lr.AliveAtEnd(pid, r) {
				return fmt.Errorf("conform: %v completed round %d at or after its crash round %d", pid, r, lr.CrashRound[p])
			}
		}
	}
	for p := 1; p <= n; p++ {
		if d, cr := lr.DecidedAt[p], lr.CrashRound[p]; d > 0 && cr > 0 && d >= cr {
			return fmt.Errorf("conform: %v decided at round %d but crashed during round %d", model.ProcessID(p), d, cr)
		}
	}

	// Horizon: the first round after which the engines would stop — every
	// process alive at its end has decided, and the round introduced no
	// pending message (which would oblige a crash in the next round).
	for r := 1; r <= len(lr.Rounds); r++ {
		if lr.allAliveDecidedBy(r) && !lr.hasDropsAt(r) {
			lr.Horizon = r
			return nil
		}
	}
	lr.Horizon = len(lr.Rounds)
	lr.Truncated = true
	return nil
}

// allAliveDecidedBy reports whether every process that survives round r
// has decided by round r. A process whose crash lies beyond r counts as
// alive: truncating the run at r erases that crash, so the round model
// sees a live process that must have decided.
func (lr *LiveRun) allAliveDecidedBy(r int) bool {
	for p := 1; p <= lr.Meta.N(); p++ {
		if !lr.AliveAtEnd(model.ProcessID(p), r) {
			continue
		}
		if d := lr.DecidedAt[p]; d == 0 || d > r {
			return false
		}
	}
	return true
}

// hasDropsAt reports whether round r contains a pending message: a
// completer missed the round message of a sender that survived the round.
func (lr *LiveRun) hasDropsAt(r int) bool {
	rd := &lr.Rounds[r-1]
	found := false
	rd.Completed.ForEach(func(i model.ProcessID) bool {
		rd.Missed(i).ForEach(func(j model.ProcessID) bool {
			found = lr.AliveAtEnd(j, r)
			return !found
		})
		return !found
	})
	return found
}
