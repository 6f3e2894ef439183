package conform_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conform"
	"repro/internal/emul"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
)

// An execution written three ways: as the round engine records it, as an
// emulation reports it and as a live event stream. The round properties
// are stated once, over rounds.Receptions, so every way must give the same
// findings.
type execution struct {
	name string
	run  *rounds.Run // nil: the round model cannot hold the execution
	res  *emul.Result
	live []obs.Event
	// late is filed into the live projection by hand: the live engine does
	// not report late frames yet.
	late map[[2]int]model.ProcSet // (round, receiver) → late senders
}

// want is one expected finding: (round, sender, receiver) and a substring
// of its reason.
type want struct {
	round            int
	sender, receiver model.ProcessID
	reason           string
}

// engineRound writes one round of a rounds.Run at n=3: by default every
// process alive at the start addresses every other one and reaches every
// addressee that completes the round; sent and reached override a sender.
func engineRound(r int, alive, crashed model.ProcSet, sent, reached map[model.ProcessID]model.ProcSet) rounds.RoundRecord {
	rec := rounds.RoundRecord{Round: r, AliveStart: alive, Crashed: crashed,
		Sent: make([]model.ProcSet, 4), Reached: make([]model.ProcSet, 4)}
	alive.ForEach(func(j model.ProcessID) bool {
		rec.Sent[j] = model.FullSet(3).Remove(j)
		if s, ok := sent[j]; ok {
			rec.Sent[j] = s
		}
		rec.Reached[j] = rec.Sent[j].Intersect(alive.Minus(crashed))
		if s, ok := reached[j]; ok {
			rec.Reached[j] = s
		}
		return true
	})
	return rec
}

func engineRun(kind rounds.ModelKind, t int, crashRound []int, recs ...rounds.RoundRecord) *rounds.Run {
	return &rounds.Run{Algorithm: "hand-built", Model: kind, N: 3, T: t, Rounds: recs,
		CrashRound: crashRound, DecidedAt: make([]int, 4), DecisionOf: make([]model.Value, 4)}
}

func recv(r, p int, peers ...int) obs.Event {
	return obs.Event{Type: obs.EventRecv, Round: r, Proc: p, Peers: peers}
}

func crashAt(r, p int) obs.Event { return obs.Event{Type: obs.EventCrash, Round: r, Proc: p} }

var all3 = model.FullSet(3)

// executions are the edge cases of the round properties at n=3.
func executions(kind rounds.ModelKind) []execution {
	set := model.NewProcSet
	none := map[model.ProcessID]model.ProcSet{}
	return []execution{{
		name: "a survivor's message is missed",
		run: engineRun(kind, 1, make([]int, 4),
			engineRound(1, all3, 0, none, map[model.ProcessID]model.ProcSet{2: set(3)}),
			engineRound(2, all3, 0, none, none)),
		res: &emul.Result{N: 3, T: 1, CompletedRounds: []int{0, 2, 2, 2}, Crashed: make([]bool, 4),
			ReceivedFrom: [][]model.ProcSet{nil,
				{0, set(3), set(2, 3)}, {0, set(1, 3), set(1, 3)}, {0, set(1, 2), set(1, 2)}}},
		live: []obs.Event{recv(1, 1, 3), recv(1, 2, 1, 3), recv(1, 3, 1, 2),
			recv(2, 1, 2, 3), recv(2, 2, 1, 3), recv(2, 3, 1, 2)},
	}, {
		name: "a late message whose sender crashes in the next round",
		res: &emul.Result{N: 3, T: 1, CompletedRounds: []int{0, 2, 1, 2}, Crashed: []bool{false, false, true, false},
			ReceivedFrom: [][]model.ProcSet{nil,
				{0, set(3), set(3)}, {0, set(1, 3)}, {0, set(1, 2), set(1)}},
			PendingObserved: []emul.PendingMessage{{Sender: 2, Receiver: 1, Round: 1}}},
		live: []obs.Event{recv(1, 1, 3), recv(1, 2, 1, 3), recv(1, 3, 1, 2),
			crashAt(2, 2), recv(2, 1, 3), recv(2, 3, 1)},
		late: map[[2]int]model.ProcSet{{1, 1}: set(2)},
	}, {
		name: "a dropper crashes in round r+1",
		run: engineRun(kind, 1, []int{0, 0, 2, 0},
			engineRound(1, all3, 0, none, map[model.ProcessID]model.ProcSet{2: set(3)}),
			engineRound(2, all3, set(2), none, map[model.ProcessID]model.ProcSet{2: 0})),
		res: &emul.Result{N: 3, T: 1, CompletedRounds: []int{0, 2, 1, 2}, Crashed: []bool{false, false, true, false},
			ReceivedFrom: [][]model.ProcSet{nil,
				{0, set(3), set(3)}, {0, set(1, 3)}, {0, set(1, 2), set(1)}}},
		live: []obs.Event{recv(1, 1, 3), recv(1, 2, 1, 3), recv(1, 3, 1, 2),
			crashAt(2, 2), recv(2, 1, 3), recv(2, 3, 1)},
	}, {
		name: "a dropper crashes in round r+2",
		run: engineRun(kind, 1, []int{0, 0, 3, 0},
			engineRound(1, all3, 0, none, map[model.ProcessID]model.ProcSet{2: set(3)}),
			engineRound(2, all3, 0, none, none),
			engineRound(3, all3, set(2), none, map[model.ProcessID]model.ProcSet{2: 0})),
		res: &emul.Result{N: 3, T: 1, CompletedRounds: []int{0, 3, 2, 3}, Crashed: []bool{false, false, true, false},
			ReceivedFrom: [][]model.ProcSet{nil,
				{0, set(3), set(2, 3), set(3)}, {0, set(1, 3), set(1, 3)}, {0, set(1, 2), set(1, 2), set(1)}}},
		live: []obs.Event{recv(1, 1, 3), recv(1, 2, 1, 3), recv(1, 3, 1, 2),
			recv(2, 1, 2, 3), recv(2, 2, 1, 3), recv(2, 3, 1, 2),
			crashAt(3, 2), recv(3, 1, 3), recv(3, 3, 1)},
	}, {
		name: "t+1 crashes",
		run: engineRun(kind, 1, []int{0, 0, 1, 1},
			engineRound(1, all3, set(2, 3), none, map[model.ProcessID]model.ProcSet{2: 0, 3: 0})),
		res: &emul.Result{N: 3, T: 1, CompletedRounds: []int{0, 1, 0, 0}, Crashed: []bool{false, false, true, true},
			ReceivedFrom: [][]model.ProcSet{nil, {0, 0}, {0, set(1)}, {0, 0}}},
		live: []obs.Event{crashAt(1, 2), crashAt(1, 3), recv(1, 1)},
	}, {
		name: "a null message from a survivor",
		run: engineRun(kind, 1, make([]int, 4),
			engineRound(1, all3, 0, map[model.ProcessID]model.ProcSet{2: 0}, none)),
		res: &emul.Result{N: 3, T: 1, CompletedRounds: []int{0, 1, 1, 1}, Crashed: make([]bool, 4),
			ReceivedFrom: [][]model.ProcSet{nil, {0, set(2, 3)}, {0, set(1, 3)}, {0, set(1, 2)}}},
		live: []obs.Event{recv(1, 1, 2, 3), recv(1, 2, 1, 3), recv(1, 3, 1, 2)},
	}, {
		name: "a null message from a crasher",
		run: engineRun(kind, 1, []int{0, 0, 1, 0},
			engineRound(1, all3, set(2), map[model.ProcessID]model.ProcSet{2: 0}, none)),
		res: &emul.Result{N: 3, T: 1, CompletedRounds: []int{0, 1, 0, 1}, Crashed: []bool{false, false, true, false},
			ReceivedFrom: [][]model.ProcSet{nil, {0, set(2, 3)}, {0, 0}, {0, set(1)}}},
		live: []obs.Event{crashAt(1, 2), recv(1, 1, 2, 3), recv(1, 3, 1)},
	}}
}

// checkAllWays checks every way of writing each execution with check and
// holds them to one another and to want.
func checkAllWays(t *testing.T, kind rounds.ModelKind, check func(*rounds.Receptions) []rounds.Violation, wants map[string][]want) {
	t.Helper()
	meta := conform.Meta{Alg: algByName(t, "FloodSetWS"), Kind: kind, T: 1, Initial: liveInitials(3)}
	for _, ex := range executions(kind) {
		w, ok := wants[ex.name]
		if !ok {
			t.Fatalf("no expectation for %q", ex.name)
		}
		lr, err := conform.Project(meta, ex.live)
		if err != nil {
			t.Fatalf("%s: projecting: %v", ex.name, err)
		}
		for k, s := range ex.late {
			lr.Rounds[k[0]-1].Late[k[1]] = s
		}
		got := map[string][]rounds.Violation{
			"emul.Result":     check(ex.res.Receptions()),
			"conform.LiveRun": check(&lr.Receptions),
		}
		if ex.run != nil {
			got["rounds.Run"] = check(ex.run.Receptions())
		}
		for way, v := range got {
			if !reflect.DeepEqual(v, got["emul.Result"]) {
				t.Errorf("%s: %s gives %v but emul.Result gives %v", ex.name, way, v, got["emul.Result"])
			}
			if len(v) != len(w) {
				t.Errorf("%s: %s gives %v, want %d findings", ex.name, way, v, len(w))
				continue
			}
			for i := range w {
				if v[i].Round != w[i].round || v[i].Sender != w[i].sender || v[i].Receiver != w[i].receiver ||
					!strings.Contains(v[i].Reason, w[i].reason) {
					t.Errorf("%s: %s finding %d = %v, want %+v", ex.name, way, i, v[i], w[i])
				}
			}
		}
	}
}

func TestRoundSynchronyOneChecker(t *testing.T) {
	survived := "round synchrony violated: p1 closed the round without the message of p2, which survived it"
	checkAllWays(t, rounds.RS, rounds.RoundSynchrony, map[string][]want{
		"a survivor's message is missed": {{1, 2, 1, survived}},
		"a late message whose sender crashes in the next round": {{1, 2, 1,
			"round synchrony violated: p1 received the message of p2 after closing the round"}},
		"a dropper crashes in round r+1": {{1, 2, 1, survived}},
		"a dropper crashes in round r+2": {{1, 2, 1, survived}},
		"t+1 crashes":                    nil,
		"a null message from a survivor": nil,
		"a null message from a crasher":  nil,
	})
}

func TestLemma41OneChecker(t *testing.T) {
	checkAllWays(t, rounds.RWS, rounds.WeakRoundSynchrony, map[string][]want{
		"a survivor's message is missed": {{1, 2, 1,
			"Lemma 4.1 violated: p1 closed the round without the message of p2, but p2 does not crash by the end of round 2 (crash round 0"}},
		"a late message whose sender crashes in the next round": nil,
		"a dropper crashes in round r+1":                        nil,
		"a dropper crashes in round r+2": {{1, 2, 1,
			"Lemma 4.1 violated: p1 closed the round without the message of p2, but p2 does not crash by the end of round 2 (crash round 3"}},
		"t+1 crashes":                    nil,
		"a null message from a survivor": nil,
		"a null message from a crasher":  nil,
	})
}

func TestCrashBudgetOneChecker(t *testing.T) {
	for _, kind := range []rounds.ModelKind{rounds.RS, rounds.RWS} {
		checkAllWays(t, kind, rounds.CrashBudget, map[string][]want{
			"a survivor's message is missed":                        nil,
			"a late message whose sender crashes in the next round": nil,
			"a dropper crashes in round r+1":                        nil,
			"a dropper crashes in round r+2":                        nil,
			"t+1 crashes":                                           {{0, 0, 0, "2 processes crashed, exceeding the resilience bound t=1"}},
			"a null message from a survivor":                        nil,
			"a null message from a crasher":                         nil,
		})
	}
}

// TestObligationRuleMatchesLemma41: the adversary's own rule and the
// record agree on the r+2 dropper — the engine refuses the plan that
// would produce it, and the record of it breaks Lemma 4.1.
func TestObligationRuleMatchesLemma41(t *testing.T) {
	script := &rounds.Script{Plans: []rounds.Plan{
		{Drops: map[model.ProcessID]model.ProcSet{2: model.Singleton(1)}},
		{},
		{Crashes: map[model.ProcessID]model.ProcSet{2: 0}},
	}}
	_, err := rounds.RunAlgorithm(rounds.RWS, algByName(t, "FloodSetWS"), liveInitials(3), 1, script)
	if !errors.Is(err, rounds.ErrObligationBroken) {
		t.Fatalf("engine accepted a dropper that crashes in round r+2: err = %v", err)
	}
	for _, ex := range executions(rounds.RWS) {
		if ex.name == "a dropper crashes in round r+2" && len(rounds.Admissible(ex.run)) == 0 {
			t.Fatal("the record of the refused schedule is admissible")
		}
	}
}
