package conform

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/rounds"
)

// Schedule extracts the adversary schedule the projected execution
// implies, over the run's horizon: each round's crashes map a victim to
// the set of completers that still received its round message, and each
// completer's missing message from a sender that survived the round is a
// pending-message drop. Reach sets are stated over delivered envelopes and
// may name destinations the algorithm addressed with a null message; the
// engine canonicalizes by intersecting with the actual send pattern.
func (lr *LiveRun) Schedule() *rounds.Script {
	plans := make([]rounds.Plan, lr.Horizon)
	for r := 1; r <= lr.Horizon; r++ {
		rd := &lr.Rounds[r-1]
		plan := &plans[r-1]
		rd.Crashed.ForEach(func(q model.ProcessID) bool {
			var reach model.ProcSet
			rd.Completed.ForEach(func(i model.ProcessID) bool {
				if i != q && rd.Received[i].Has(q) {
					reach = reach.Add(i)
				}
				return true
			})
			if plan.Crashes == nil {
				plan.Crashes = make(map[model.ProcessID]model.ProcSet)
			}
			plan.Crashes[q] = reach
			return true
		})
		rd.Completed.ForEach(func(i model.ProcessID) bool {
			rd.Missed(i).ForEach(func(j model.ProcessID) bool {
				if lr.AliveAtEnd(j, r) {
					if plan.Drops == nil {
						plan.Drops = make(map[model.ProcessID]model.ProcSet)
					}
					plan.Drops[j] = plan.Drops[j].Add(i)
				}
				return true
			})
			return true
		})
	}
	return &rounds.Script{Plans: plans}
}

// Replay re-executes the projected adversary schedule deterministically
// through rounds.Engine at the same coordinate. An error is the model
// rejecting the schedule — the live execution exhibited behaviour (a drop
// in RS, an unhonored weak-round-synchrony obligation, a budget overrun)
// that no admissible round-model run contains.
func Replay(lr *LiveRun) (*rounds.Run, error) {
	if lr.Horizon < 1 {
		return nil, fmt.Errorf("conform: cannot replay a run with no rounds")
	}
	eng, err := rounds.NewEngine(lr.Meta.Kind, lr.Meta.Alg, lr.Meta.Initial, lr.Meta.T,
		rounds.WithRoundLimit(lr.Horizon))
	if err != nil {
		return nil, err
	}
	return eng.Execute(lr.Schedule(), 0)
}

// Mismatch is one round-level disagreement between a projected live
// execution and its engine replay.
type Mismatch struct {
	Round  int // 0 for run-level mismatches
	Detail string
}

// String renders the mismatch.
func (m Mismatch) String() string {
	if m.Round == 0 {
		return m.Detail
	}
	return fmt.Sprintf("round %d: %s", m.Round, m.Detail)
}

// DiffLive compares the projection with its replay round by round. The
// one systematic difference between the two views is null messages: live
// nodes physically transmit an envelope even for a round the algorithm
// sends nothing in, so a live reception with no engine-side counterpart is
// conformant exactly when the engine shows no message addressed there.
func DiffLive(lr *LiveRun, run *rounds.Run) []Mismatch {
	var out []Mismatch
	n := lr.Meta.N()
	if len(run.Rounds) != lr.Horizon {
		out = append(out, Mismatch{Detail: fmt.Sprintf(
			"replay executed %d rounds but the projected horizon is %d", len(run.Rounds), lr.Horizon)})
	}
	limit := len(run.Rounds)
	if lr.Horizon < limit {
		limit = lr.Horizon
	}
	for r := 1; r <= limit; r++ {
		rd := &lr.Rounds[r-1]
		rec := &run.Rounds[r-1]
		if rec.Crashed != rd.Crashed {
			out = append(out, Mismatch{Round: r, Detail: fmt.Sprintf(
				"replay crashes %v but live crashes %v", rec.Crashed, rd.Crashed)})
		}
		rd.Completed.ForEach(func(i model.ProcessID) bool {
			for j := 1; j <= n; j++ {
				pj := model.ProcessID(j)
				if pj == i {
					continue
				}
				liveGot := rd.Received[i].Has(pj)
				engineGot := rec.Reached[j].Has(i)
				if liveGot == engineGot {
					continue
				}
				if liveGot && !rec.Sent[j].Has(i) {
					continue // null-message envelope: delivered live, unsent in the model
				}
				verb := "received"
				if !liveGot {
					verb = "missed"
				}
				out = append(out, Mismatch{Round: r, Detail: fmt.Sprintf(
					"%v %s the round message of %v live, but the replay disagrees (sent=%v reached=%v)",
					i, verb, pj, rec.Sent[j], rec.Reached[j])})
			}
			return true
		})
	}
	for p := 1; p <= n; p++ {
		pid := model.ProcessID(p)
		liveDec, liveVal := 0, model.Value(0)
		if d := lr.DecidedAt[p]; d > 0 && d <= lr.Horizon {
			liveDec, liveVal = d, lr.DecisionOf[p]
		}
		switch {
		case liveDec != run.DecidedAt[p]:
			out = append(out, Mismatch{Detail: fmt.Sprintf(
				"%v decided at round %d live but at round %d in the replay (0 = never)",
				pid, liveDec, run.DecidedAt[p])})
		case liveDec != 0 && liveVal != run.DecisionOf[p]:
			out = append(out, Mismatch{Detail: fmt.Sprintf(
				"%v decided %d live but %d in the replay", pid, int64(liveVal), int64(run.DecisionOf[p]))})
		}
		liveCr := 0
		if cr := lr.CrashRound[p]; cr > 0 && cr <= lr.Horizon {
			liveCr = cr
		}
		if liveCr != run.CrashRound[p] {
			out = append(out, Mismatch{Detail: fmt.Sprintf(
				"%v crashed at round %d live but at round %d in the replay (0 = never)",
				pid, liveCr, run.CrashRound[p])})
		}
	}
	return out
}
