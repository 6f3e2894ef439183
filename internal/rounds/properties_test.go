package rounds_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/rounds"
)

// TestExplorerRunsMeetTheRoundProperties sweeps every run the explorer
// visits at n=3 t=1, in both models: each is admissible, and moving the
// crash of any sender a completer missed at round r — a dropper in RWS, a
// crasher in either model — to round r+2, or to never, is flagged at
// exactly that (round, sender, receiver).
func TestExplorerRunsMeetTheRoundProperties(t *testing.T) {
	for _, kind := range []rounds.ModelKind{rounds.RS, rounds.RWS} {
		runs, mutations, droppers := 0, 0, 0
		for _, alg := range consensus.All() {
			_, err := explore.Runs(kind, alg, []model.Value{0, 1, 2}, 1, explore.Options{}, func(run *rounds.Run) bool {
				runs++
				if v := rounds.Admissible(run); len(v) != 0 {
					t.Fatalf("%v: inadmissible: %s", run, v[0].Error())
				}
				h := run.Receptions()
				for _, rd := range h.Rounds {
					rd.Completed.ForEach(func(i model.ProcessID) bool {
						rd.Missed(i).ForEach(func(j model.ProcessID) bool {
							orig := h.CrashRound[j]
							if orig > rd.Round {
								droppers++
							}
							for _, moved := range []int{rd.Round + 2, 0} {
								mutations++
								h.CrashRound[j] = moved
								if !flags(rounds.CheckReceptions(kind, h), rd.Round, j, i) {
									t.Fatalf("%v: %v missed at round %d by %v, crash moved %d → %d: not flagged",
										run, j, rd.Round, i, orig, moved)
								}
							}
							h.CrashRound[j] = orig
							return true
						})
						return true
					})
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%v: %d runs, %d mutations (%d of a dropper)", kind, runs, mutations, droppers)
		if mutations == 0 || (kind == rounds.RWS && droppers == 0) {
			t.Errorf("%v: the sweep exercised no missed message", kind)
		}
	}
}

// TestCrashConsistencyPinsCrashRound sweeps the same runs: each keeps its
// crash rounds and its per-round crash sets in step, and moving the crash
// round of a sender a completer missed at round r to r+2, or to never,
// while the run still records the crash where it happened, is flagged by
// CheckCrashConsistency for that sender.
func TestCrashConsistencyPinsCrashRound(t *testing.T) {
	for _, kind := range []rounds.ModelKind{rounds.RS, rounds.RWS} {
		mutations := 0
		for _, alg := range consensus.All() {
			_, err := explore.Runs(kind, alg, []model.Value{0, 1, 2}, 1, explore.Options{}, func(run *rounds.Run) bool {
				if v := rounds.CheckCrashConsistency(run); len(v) != 0 {
					t.Fatalf("%v: %s", run, v[0].Error())
				}
				for _, rd := range run.Receptions().Rounds {
					rd.Completed.ForEach(func(i model.ProcessID) bool {
						rd.Missed(i).ForEach(func(j model.ProcessID) bool {
							orig := run.CrashRound[j]
							for _, moved := range []int{rd.Round + 2, 0} {
								mutations++
								run.CrashRound[j] = moved
								if !flags(rounds.CheckCrashConsistency(run), moved, j, 0) {
									t.Fatalf("%v: crash of %v moved %d → %d: not flagged", run, j, orig, moved)
								}
							}
							run.CrashRound[j] = orig
							return true
						})
						return true
					})
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%v: %d mutations", kind, mutations)
		if mutations == 0 {
			t.Errorf("%v: the sweep exercised no missed message", kind)
		}
	}
}

func flags(vs []rounds.Violation, round int, sender, receiver model.ProcessID) bool {
	for _, v := range vs {
		if v.Round == round && v.Sender == sender && v.Receiver == receiver {
			return true
		}
	}
	return false
}
