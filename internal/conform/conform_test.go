package conform_test

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/conform"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
)

func algByName(t *testing.T, name string) rounds.Algorithm {
	t.Helper()
	for _, a := range consensus.All() {
		if a.Name() == name {
			return a
		}
	}
	t.Fatalf("algorithm %q not registered", name)
	return nil
}

func mustRun(t *testing.T, meta conform.Meta, script *rounds.Script) *rounds.Run {
	t.Helper()
	run, err := rounds.RunAlgorithm(meta.Kind, meta.Alg, meta.Initial, meta.T, script)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	return run
}

// TestRoundTrip pins the pipeline end to end without wall-clock: an engine
// run's event stream (the vocabulary the live runtime emits) must project,
// replay to an identical fingerprint, diff cleanly, and be a member of its
// coordinate's enumerated space.
func TestRoundTrip(t *testing.T) {
	vals := []model.Value{3, 1, 2}
	cases := []struct {
		name      string
		meta      conform.Meta
		script    *rounds.Script
		consensus bool
	}{
		{
			name:      "FloodSet/RS/failure-free",
			meta:      conform.Meta{Alg: algByName(t, "FloodSet"), Kind: rounds.RS, T: 1, Initial: vals},
			script:    &rounds.Script{},
			consensus: true,
		},
		{
			name: "FloodSet/RS/crash-partial",
			meta: conform.Meta{Alg: algByName(t, "FloodSet"), Kind: rounds.RS, T: 1, Initial: vals},
			script: &rounds.Script{Plans: []rounds.Plan{
				{Crashes: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
			}},
			consensus: true,
		},
		{
			name: "FloodSetWS/RWS/drop-then-crash",
			meta: conform.Meta{Alg: algByName(t, "FloodSetWS"), Kind: rounds.RWS, T: 1, Initial: vals},
			script: &rounds.Script{Plans: []rounds.Plan{
				{Drops: map[model.ProcessID]model.ProcSet{1: model.Singleton(3)}},
			}},
			consensus: true,
		},
		{
			name:      "A1/RS/failure-free",
			meta:      conform.Meta{Alg: algByName(t, "A1"), Kind: rounds.RS, T: 1, Initial: vals},
			script:    &rounds.Script{},
			consensus: true,
		},
		{
			// The §5.3 disagreement: all of p1's round-1 messages pending,
			// then p1 crashes silently — p1 decided v1, the rest decide v2.
			name: "A1/RWS/drop-disagreement",
			meta: conform.Meta{Alg: algByName(t, "A1"), Kind: rounds.RWS, T: 1, Initial: vals},
			script: &rounds.Script{Plans: []rounds.Plan{
				{Drops: map[model.ProcessID]model.ProcSet{1: model.NewProcSet(2, 3)}},
				{Crashes: map[model.ProcessID]model.ProcSet{1: 0}},
			}},
			consensus: false, // the paper's counterexample: A1 is incorrect in RWS
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := mustRun(t, tc.meta, tc.script)
			events := rounds.EventsFromRun(orig)
			rep, err := conform.CheckEvents(tc.meta, events, conform.Options{
				Enumerate:       true,
				ExpectConsensus: tc.consensus,
			})
			if err != nil {
				t.Fatalf("CheckEvents: %v", err)
			}
			if rep.ReplayErr != nil {
				t.Fatalf("replay rejected: %v", rep.ReplayErr)
			}
			if len(rep.Mismatches) != 0 {
				t.Fatalf("diff mismatches: %v", rep.Mismatches)
			}
			if len(rep.Online) != 0 {
				t.Fatalf("online violations: %v", rep.Online)
			}
			if v := rounds.CrashRecord(&rep.Live.Receptions); len(v) != 0 {
				t.Fatalf("projection: %s", v[0].Error())
			}
			if got, want := rep.Fingerprint, conform.Fingerprint(orig); got != want {
				t.Fatalf("fingerprint mismatch:\n replay %s\n engine %s", got, want)
			}
			if rep.InSpace == nil || !*rep.InSpace {
				t.Fatalf("replayed run not in the enumerated space (%d runs)", rep.SpaceSize)
			}
			if !rep.OK() {
				t.Fatalf("report not OK:\n%s", rep)
			}
			if !strings.Contains(rep.String(), "OK") {
				t.Fatalf("report rendering lost the verdict:\n%s", rep)
			}
		})
	}
}

// TestRoundTripNonConsensus pins that a consensus-violating but
// model-admissible run still conforms when consensus is not expected, and
// fails the report when it is.
func TestRoundTripNonConsensus(t *testing.T) {
	// A1's §5.3 disagreement run: model-admissible, uniform agreement
	// violated (p1 decides v1 at round 1 with all its messages pending,
	// crashes silently; the survivors decide v2).
	meta := conform.Meta{Alg: algByName(t, "A1"), Kind: rounds.RWS, T: 1, Initial: []model.Value{3, 1, 2}}
	script := &rounds.Script{Plans: []rounds.Plan{
		{Drops: map[model.ProcessID]model.ProcSet{1: model.NewProcSet(2, 3)}},
		{Crashes: map[model.ProcessID]model.ProcSet{1: 0}},
	}}
	run := mustRun(t, meta, script)
	if viol := rounds.Admissible(run); len(viol) != 0 {
		t.Fatalf("expected admissible run, got %v", viol)
	}
	if ua := check.UniformAgreement(run); ua.OK {
		t.Fatal("expected the disagreement counterexample, but uniform agreement held")
	}
	events := rounds.EventsFromRun(run)

	rep, err := conform.CheckEvents(meta, events, conform.Options{})
	if err != nil {
		t.Fatalf("CheckEvents: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("model-conformant run must pass without ExpectConsensus:\n%s", rep)
	}

	rep, err = conform.CheckEvents(meta, events, conform.Options{ExpectConsensus: true})
	if err != nil {
		t.Fatalf("CheckEvents: %v", err)
	}
	if rep.OK() {
		t.Fatalf("A1/RWS disagreement run must fail when consensus is expected:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "FAIL") {
		t.Fatalf("report rendering lost the verdict:\n%s", rep)
	}
}

// TestScheduleExtraction pins the projected adversary schedule itself:
// crash reach sets and pending-message drops must match the plan that
// produced the run.
func TestScheduleExtraction(t *testing.T) {
	meta := conform.Meta{Alg: algByName(t, "FloodSetWS"), Kind: rounds.RWS, T: 2, Initial: []model.Value{3, 1, 2, 4}}
	script := &rounds.Script{Plans: []rounds.Plan{
		{Crashes: map[model.ProcessID]model.ProcSet{2: model.Singleton(1)}},
		{Drops: map[model.ProcessID]model.ProcSet{3: model.Singleton(4)}},
	}}
	run := mustRun(t, meta, script)
	lr, err := conform.Project(meta, rounds.EventsFromRun(run))
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	sched := lr.Schedule()
	if len(sched.Plans) != lr.Horizon {
		t.Fatalf("schedule has %d plans, horizon is %d", len(sched.Plans), lr.Horizon)
	}
	p1 := sched.Plans[0]
	if got := p1.Crashes[2]; !got.Has(1) || got.Has(3) || got.Has(4) {
		t.Fatalf("round 1 crash reach of p2 = %v, want exactly {p1} among survivors", got)
	}
	if len(p1.Drops) != 0 {
		t.Fatalf("round 1 has unexpected drops %v", p1.Drops)
	}
	p2 := sched.Plans[1]
	if got := p2.Drops[3]; got != model.Singleton(4) {
		t.Fatalf("round 2 drops of p3 = %v, want {p4}", got)
	}
	// Weak round synchrony: the dropper must crash in round 3.
	if lr.Horizon < 3 {
		t.Fatalf("horizon %d too short for the obligated crash", lr.Horizon)
	}
	p3 := sched.Plans[2]
	if _, ok := p3.Crashes[3]; !ok {
		t.Fatalf("round 3 plan %v does not crash the obligated dropper p3", p3)
	}
}

func TestProjectErrors(t *testing.T) {
	meta := conform.Meta{Alg: algByName(t, "FloodSet"), Kind: rounds.RS, T: 1, Initial: []model.Value{1, 2, 3}}
	recv := func(r, p int, peers ...int) obs.Event {
		return obs.Event{Type: obs.EventRecv, Round: r, Proc: p, Peers: peers}
	}
	cases := []struct {
		name   string
		meta   conform.Meta
		events []obs.Event
		want   string
	}{
		{"nil algorithm", conform.Meta{Kind: rounds.RS, Initial: []model.Value{1}}, nil, "nil algorithm"},
		{"bad model", conform.Meta{Alg: meta.Alg, Kind: 0, Initial: []model.Value{1}}, nil, "unknown model"},
		{"bad n", conform.Meta{Alg: meta.Alg, Kind: rounds.RS}, nil, "out of range"},
		{"bad t", conform.Meta{Alg: meta.Alg, Kind: rounds.RS, T: 3, Initial: []model.Value{1, 2, 3}}, nil, "out of range"},
		{"no rounds", meta, nil, "no rounds"},
		{"recv out of range", meta, []obs.Event{recv(1, 9)}, "outside 1..3"},
		{"recv bad round", meta, []obs.Event{{Type: obs.EventRecv, Round: -1, Proc: 1}}, "round -1"},
		{"recv bad peer", meta, []obs.Event{recv(1, 1, 7)}, "outside 1..3"},
		{"duplicate recv", meta, []obs.Event{recv(1, 1), recv(1, 1)}, "duplicate reception"},
		{"crash twice", meta, []obs.Event{
			{Type: obs.EventCrash, Round: 1, Proc: 1},
			{Type: obs.EventCrash, Round: 2, Proc: 1},
		}, "crashed twice"},
		{"crash out of range", meta, []obs.Event{{Type: obs.EventCrash, Round: 1, Proc: 9}}, "outside 1..3"},
		{"decide without value", meta, []obs.Event{
			recv(1, 1), {Type: obs.EventDecide, Round: 1, Proc: 1},
		}, "no value"},
		{"decide twice", meta, []obs.Event{
			recv(1, 1),
			{Type: obs.EventDecide, Round: 1, Proc: 1, Value: obs.Int64(1)},
			{Type: obs.EventDecide, Round: 2, Proc: 1, Value: obs.Int64(2)},
		}, "decided twice"},
		{"decide out of range", meta, []obs.Event{
			{Type: obs.EventDecide, Round: 1, Proc: 9, Value: obs.Int64(1)},
		}, "outside 1..3"},
		{"suspect out of range", meta, []obs.Event{
			{Type: obs.EventSuspect, Round: 1, Proc: 9, By: 1},
		}, "outside 1..3"},
		{"completion after crash", meta, []obs.Event{
			{Type: obs.EventCrash, Round: 1, Proc: 1}, recv(2, 1),
		}, "at or after its crash round"},
		{"decision at crash round", meta, []obs.Event{
			recv(1, 2),
			{Type: obs.EventDecide, Round: 1, Proc: 1, Value: obs.Int64(1)},
			{Type: obs.EventCrash, Round: 1, Proc: 1},
		}, "decided at round 1 but crashed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := conform.Project(tc.meta, tc.events)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Project error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestTruncatedProjection: an execution where a live process never decides
// has no horizon; the projection is truncated and the report fails.
func TestTruncatedProjection(t *testing.T) {
	meta := conform.Meta{Alg: algByName(t, "FloodSet"), Kind: rounds.RS, T: 1, Initial: []model.Value{1, 2, 3}}
	events := []obs.Event{
		{Type: obs.EventRecv, Round: 1, Proc: 1, Peers: []int{2, 3}},
		{Type: obs.EventRecv, Round: 1, Proc: 2, Peers: []int{1, 3}},
		{Type: obs.EventRecv, Round: 1, Proc: 3, Peers: []int{1, 2}},
		// Nobody ever decides.
	}
	lr, err := conform.Project(meta, events)
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if !lr.Truncated || lr.Horizon != 1 {
		t.Fatalf("Truncated=%v Horizon=%d, want truncated at 1", lr.Truncated, lr.Horizon)
	}
	rep, err := conform.CheckProjected(lr, conform.Options{})
	if err != nil {
		t.Fatalf("CheckProjected: %v", err)
	}
	if rep.OK() {
		t.Fatalf("truncated execution must not conform:\n%s", rep)
	}
}

// TestReplayRejectsModelViolations: projections whose schedule the model
// forbids must surface the engine's rejection as ReplayErr.
func TestReplayRejectsModelViolations(t *testing.T) {
	recvAll := func(r, p int, peers ...int) obs.Event {
		return obs.Event{Type: obs.EventRecv, Round: r, Proc: p, Peers: peers}
	}
	decide := func(r, p int) obs.Event {
		return obs.Event{Type: obs.EventDecide, Round: r, Proc: p, Value: obs.Int64(1)}
	}
	t.Run("drop in RS", func(t *testing.T) {
		meta := conform.Meta{Alg: algByName(t, "FloodSet"), Kind: rounds.RS, T: 1, Initial: []model.Value{1, 1, 1}}
		events := []obs.Event{
			// p2 closes round 1 without p1's message, yet p1 survives: a
			// pending message, impossible in RS.
			recvAll(1, 1, 2, 3), recvAll(1, 2, 3), recvAll(1, 3, 1, 2),
			recvAll(2, 1, 2, 3), recvAll(2, 2, 1, 3), recvAll(2, 3, 1, 2),
			decide(2, 1), decide(2, 2), decide(2, 3),
		}
		rep, err := conform.CheckEvents(meta, events, conform.Options{})
		if err != nil {
			t.Fatalf("CheckEvents: %v", err)
		}
		if rep.ReplayErr == nil || !strings.Contains(rep.ReplayErr.Error(), "impossible in the RS model") {
			t.Fatalf("ReplayErr = %v, want the RS drop rejection", rep.ReplayErr)
		}
		if rep.OK() {
			t.Fatal("report with replay rejection must not be OK")
		}
		// The online monitor independently flags the round-synchrony breach.
		found := false
		for _, v := range rep.Online {
			if strings.Contains(v.Detail, "round synchrony violated") {
				found = true
			}
		}
		if !found {
			t.Fatalf("online monitor missed the RS violation: %v", rep.Online)
		}
	})
	t.Run("obligation broken in RWS", func(t *testing.T) {
		meta := conform.Meta{Alg: algByName(t, "FloodSetWS"), Kind: rounds.RWS, T: 1, Initial: []model.Value{1, 1, 1}}
		events := []obs.Event{
			// p2 misses p1's round-1 message but p1 never crashes: Lemma 4.1
			// (and the engine's obligation tracking) reject the schedule.
			recvAll(1, 1, 2, 3), recvAll(1, 2, 3), recvAll(1, 3, 1, 2),
			recvAll(2, 1, 2, 3), recvAll(2, 2, 1, 3), recvAll(2, 3, 1, 2),
			recvAll(3, 1, 2, 3), recvAll(3, 2, 1, 3), recvAll(3, 3, 1, 2),
			decide(3, 1), decide(3, 2), decide(3, 3),
		}
		rep, err := conform.CheckEvents(meta, events, conform.Options{})
		if err != nil {
			t.Fatalf("CheckEvents: %v", err)
		}
		if rep.ReplayErr == nil || !strings.Contains(rep.ReplayErr.Error(), "weak round synchrony") {
			t.Fatalf("ReplayErr = %v, want the obligation rejection", rep.ReplayErr)
		}
		found := false
		for _, v := range rep.Online {
			if strings.Contains(v.Detail, "Lemma 4.1 violated") {
				found = true
			}
		}
		if !found {
			t.Fatalf("online monitor missed the Lemma 4.1 violation: %v", rep.Online)
		}
	})
}

func TestOnlineInvariants(t *testing.T) {
	alg := algByName(t, "FloodSetWS")
	mkRun := func(kind rounds.ModelKind) *conform.LiveRun {
		meta := conform.Meta{Alg: alg, Kind: kind, T: 1, Initial: []model.Value{1, 2, 3}}
		return &conform.LiveRun{
			Meta: meta,
			Receptions: rounds.Receptions{N: 3, T: 1, CrashRound: make([]int, 4),
				Rounds: []rounds.Reception{{
					Round:     1,
					Completed: model.NewProcSet(1, 2, 3),
					Received: []model.ProcSet{0,
						model.NewProcSet(2, 3), model.NewProcSet(1, 3), model.NewProcSet(1, 2)},
				}}},
			DecidedAt:  []int{0, 1, 1, 1},
			DecisionOf: []model.Value{0, 1, 1, 1},
			Horizon:    1,
		}
	}

	t.Run("clean", func(t *testing.T) {
		if v := conform.OnlineInvariants(mkRun(rounds.RWS)); len(v) != 0 {
			t.Fatalf("clean run flagged: %v", v)
		}
	})
	t.Run("budget", func(t *testing.T) {
		lr := mkRun(rounds.RWS)
		lr.CrashRound[1], lr.CrashRound[2] = 2, 2
		lr.DecidedAt[1], lr.DecidedAt[2] = 0, 0
		lr.Rounds[0].Completed = model.NewProcSet(3)
		lr.Rounds[0].Received[3] = model.NewProcSet(1, 2)
		assertViolation(t, conform.OnlineInvariants(lr), "exceeding the resilience bound")
	})
	t.Run("wall-clock crash", func(t *testing.T) {
		lr := mkRun(rounds.RWS)
		lr.WallClockCrashes = []model.ProcessID{2}
		assertViolation(t, conform.OnlineInvariants(lr), "outside the round structure")
	})
	t.Run("strong accuracy", func(t *testing.T) {
		lr := mkRun(rounds.RWS)
		lr.Suspicions = []conform.Suspicion{{By: 1, Of: 2, Round: 1}}
		assertViolation(t, conform.OnlineInvariants(lr), "strong accuracy violated")
	})
	t.Run("retraction", func(t *testing.T) {
		lr := mkRun(rounds.RWS)
		lr.Suspicions = []conform.Suspicion{{By: 1, Of: 2, Round: 1, Retracted: true}}
		assertViolation(t, conform.OnlineInvariants(lr), "not perfect")
	})
	t.Run("suspicion of a crashed process is fine", func(t *testing.T) {
		lr := mkRun(rounds.RWS)
		lr.CrashRound[2] = 2
		lr.DecidedAt[2] = 0
		lr.Rounds = append(lr.Rounds, rounds.Reception{
			Round:     2,
			Completed: model.NewProcSet(1, 3),
			Crashed:   model.NewProcSet(2),
			Received:  []model.ProcSet{0, model.NewProcSet(3), 0, model.NewProcSet(1)},
		})
		lr.Suspicions = []conform.Suspicion{{By: 1, Of: 2, Round: 2}}
		if v := conform.OnlineInvariants(lr); len(v) != 0 {
			t.Fatalf("legitimate suspicion flagged: %v", v)
		}
	})
}

func assertViolation(t *testing.T, vs []conform.InvariantViolation, want string) {
	t.Helper()
	for _, v := range vs {
		if strings.Contains(v.String(), want) {
			return
		}
	}
	t.Fatalf("violations %v missing %q", vs, want)
}

func TestFingerprintDistinguishes(t *testing.T) {
	meta := conform.Meta{Alg: algByName(t, "FloodSet"), Kind: rounds.RS, T: 1, Initial: []model.Value{3, 1, 2}}
	free := mustRun(t, meta, &rounds.Script{})
	crash := mustRun(t, meta, &rounds.Script{Plans: []rounds.Plan{
		{Crashes: map[model.ProcessID]model.ProcSet{1: model.Singleton(2)}},
	}})
	if conform.Fingerprint(free) == conform.Fingerprint(crash) {
		t.Fatal("distinct runs share a fingerprint")
	}
	again := mustRun(t, meta, &rounds.Script{})
	if conform.Fingerprint(free) != conform.Fingerprint(again) {
		t.Fatal("identical runs disagree on fingerprint")
	}
}

func TestEnumerateSpace(t *testing.T) {
	meta := conform.Meta{Alg: algByName(t, "FloodSet"), Kind: rounds.RS, T: 1, Initial: []model.Value{3, 1, 2}}
	space, err := conform.EnumerateSpace(meta, explore.Options{})
	if err != nil {
		t.Fatalf("EnumerateSpace: %v", err)
	}
	if space.Size() == 0 {
		t.Fatal("empty run space")
	}
	run := mustRun(t, meta, &rounds.Script{})
	if !space.Contains(conform.Fingerprint(run)) {
		t.Fatal("failure-free run missing from its own space")
	}
	if space.Contains("no-such-fingerprint") {
		t.Fatal("space claims to contain garbage")
	}
	if _, err := conform.EnumerateSpace(conform.Meta{}, explore.Options{}); err == nil {
		t.Fatal("EnumerateSpace accepted an invalid meta")
	}
	// An exploration failure surfaces as an error: the explorer cannot
	// fork processes that do not implement rounds.Cloner.
	uncloneable := meta
	uncloneable.Alg = noCloneAlg{meta.Alg}
	if _, err := conform.EnumerateSpace(uncloneable, explore.Options{}); err == nil {
		t.Fatal("EnumerateSpace ignored an exploration failure")
	}
}

// noCloneAlg wraps an algorithm so its processes hide CloneProcess.
type noCloneAlg struct{ rounds.Algorithm }

func (a noCloneAlg) New(cfg rounds.ProcConfig) rounds.Process {
	return struct{ rounds.Process }{a.Algorithm.New(cfg)}
}
