package conform_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/conform"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// liveInitials returns the fixed initial configuration used by every live
// differential case at system size n, so enumerated spaces are shared.
func liveInitials(n int) []model.Value {
	return append([]model.Value(nil), []model.Value{5, 2, 7, 4}[:n]...)
}

var (
	liveSpacesMu sync.Mutex
	liveSpaces   = map[string]*conform.Space{}
)

// liveSpace enumerates (once per coordinate) the full run space the live
// execution's fingerprint must be a member of.
func liveSpace(t *testing.T, meta conform.Meta) *conform.Space {
	t.Helper()
	key := fmt.Sprintf("%s/%s/n%d/t%d", meta.Alg.Name(), meta.Kind, meta.N(), meta.T)
	liveSpacesMu.Lock()
	defer liveSpacesMu.Unlock()
	if s, ok := liveSpaces[key]; ok {
		return s
	}
	s, err := conform.EnumerateSpace(meta, explore.Options{})
	if err != nil {
		t.Fatalf("enumerating %s: %v", key, err)
	}
	liveSpaces[key] = s
	return s
}

// chaosSpec perturbs the network without ever losing or blackholing a
// message: duplicates, reorderings and delay spikes well inside the RS
// round duration and the RWS suspicion timeout, so the execution must stay
// conformant to the crash-only round model.
const chaosSpec = "seed=7,dup=0.25,reorder=0.25,spike=1ms-2ms@0.2"

// TestLiveDifferential is the acceptance property of the conformance
// harness: every live-cluster execution of FloodSet, FloodSetWS and A1 —
// failure-free, under scheduled crashes, and under a seeded fault-injector
// chaos spec — projects, replays without mismatch, and fingerprints to a
// member of the exhaustively enumerated run space of its (algorithm,
// model, n, t) coordinate.
func TestLiveDifferential(t *testing.T) {
	cases := []struct {
		name    string
		alg     string
		kind    rounds.ModelKind
		n, t    int
		crashes map[model.ProcessID]runtime.CrashPlan
		faults  string
	}{
		{name: "FloodSet/RS/n3t1/failure-free", alg: "FloodSet", kind: rounds.RS, n: 3, t: 1},
		{name: "FloodSet/RS/n3t1/crash", alg: "FloodSet", kind: rounds.RS, n: 3, t: 1,
			crashes: map[model.ProcessID]runtime.CrashPlan{2: {Round: 1, Reach: 1}}},
		{name: "FloodSet/RS/n3t1/chaos", alg: "FloodSet", kind: rounds.RS, n: 3, t: 1,
			faults: chaosSpec},
		{name: "FloodSet/RS/n4t2/two-crashes", alg: "FloodSet", kind: rounds.RS, n: 4, t: 2,
			crashes: map[model.ProcessID]runtime.CrashPlan{2: {Round: 1, Reach: 1}, 4: {Round: 2, Reach: 2}}},
		{name: "FloodSet/RWS/n3t1/crash", alg: "FloodSet", kind: rounds.RWS, n: 3, t: 1,
			crashes: map[model.ProcessID]runtime.CrashPlan{1: {Round: 1, Reach: 0}}},
		{name: "FloodSetWS/RS/n3t1/failure-free", alg: "FloodSetWS", kind: rounds.RS, n: 3, t: 1},
		{name: "FloodSetWS/RWS/n3t1/failure-free", alg: "FloodSetWS", kind: rounds.RWS, n: 3, t: 1},
		{name: "FloodSetWS/RWS/n3t1/crash", alg: "FloodSetWS", kind: rounds.RWS, n: 3, t: 1,
			crashes: map[model.ProcessID]runtime.CrashPlan{1: {Round: 1, Reach: 0}}},
		{name: "FloodSetWS/RWS/n3t1/chaos", alg: "FloodSetWS", kind: rounds.RWS, n: 3, t: 1,
			faults: chaosSpec},
		{name: "FloodSetWS/RWS/n4t2/two-crashes", alg: "FloodSetWS", kind: rounds.RWS, n: 4, t: 2,
			crashes: map[model.ProcessID]runtime.CrashPlan{1: {Round: 1, Reach: 2}, 3: {Round: 2, Reach: 0}}},
		{name: "A1/RS/n3t1/failure-free", alg: "A1", kind: rounds.RS, n: 3, t: 1},
		{name: "A1/RS/n3t1/coordinator-crash", alg: "A1", kind: rounds.RS, n: 3, t: 1,
			crashes: map[model.ProcessID]runtime.CrashPlan{1: {Round: 1, Reach: 0}}},
		{name: "A1/RS/n3t1/chaos", alg: "A1", kind: rounds.RS, n: 3, t: 1,
			faults: chaosSpec},
		{name: "A1/RWS/n3t1/failure-free", alg: "A1", kind: rounds.RWS, n: 3, t: 1},
		{name: "A1/RWS/n3t1/crash", alg: "A1", kind: rounds.RWS, n: 3, t: 1,
			crashes: map[model.ProcessID]runtime.CrashPlan{1: {Round: 1, Reach: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alg := algByName(t, tc.alg)
			meta := conform.Meta{Alg: alg, Kind: tc.kind, T: tc.t, Initial: liveInitials(tc.n)}
			cfg := runtime.EngineConfig{
				Kind: tc.kind, T: tc.t,
				RoundDuration: 15 * time.Millisecond,
				// RWS rows: well above the 60–130 ms stalls this host shows,
				// so a live peer is never suspected; a crash row pays one
				// timeout per crash to detect it.
				SuspectTimeout: 400 * time.Millisecond,
			}
			if tc.faults != "" {
				fc, err := faults.ParseSpec(tc.faults)
				if err != nil {
					t.Fatalf("parsing fault spec: %v", err)
				}
				cfg.Faults = &fc
			}
			// Live executions are crash-only (chaos never loses messages),
			// so all three algorithms must reach uniform consensus — A1's
			// RWS counterexample needs pending messages no real network
			// produces here.
			rep, cr, err := conform.CheckLive(alg, cfg, meta.Initial, runtime.OpenOptions{Crashes: tc.crashes}, conform.Options{
				Space:           liveSpace(t, meta),
				ExpectConsensus: true,
			})
			if err != nil {
				t.Fatalf("CheckLive: %v", err)
			}
			if !rep.OK() {
				t.Fatalf("live run does not conform:\n%s", rep)
			}
			if rep.InSpace == nil || !*rep.InSpace {
				t.Fatalf("fingerprint not checked against the space:\n%s", rep)
			}
			if tc.kind == rounds.RWS && !cr.Stats.DetectorWasPerfect {
				t.Errorf("failure detection was not perfect (%d retractions, %d sticky false suspicions)",
					cr.Stats.FalseSuspicions, cr.Stats.FalselySuspected)
			}
			for p, plan := range tc.crashes {
				if rep.Live.CrashRound[p] == 0 {
					t.Errorf("%v had crash plan %+v but the projection records no crash", p, plan)
				}
			}
			if v := rounds.CrashRecord(&rep.Live.Receptions); len(v) != 0 {
				t.Errorf("projection: %s", v[0].Error())
			}
		})
	}
}

// TestLiveRunEndsAtHorizon: the engine halts its automata at quiescence, so
// a failure-free live run is exactly as long as the round model's run — the
// projection has no idle post-horizon rounds for the replay to ignore.
func TestLiveRunEndsAtHorizon(t *testing.T) {
	alg := algByName(t, "FloodSetWS")
	rep, _, err := conform.CheckLive(alg, runtime.EngineConfig{
		Kind: rounds.RWS, T: 1,
	}, liveInitials(3), runtime.OpenOptions{}, conform.Options{ExpectConsensus: true})
	if err != nil {
		t.Fatalf("CheckLive: %v", err)
	}
	if !rep.OK() || len(rep.Mismatches) != 0 {
		t.Fatalf("live run does not conform:\n%s", rep)
	}
	if lr := rep.Live; lr.Truncated || lr.Horizon != len(lr.Rounds) || lr.Horizon != len(rep.Run.Rounds) {
		t.Errorf("projection has %d rounds, horizon %d (truncated=%v), replay %d rounds; want all equal",
			len(lr.Rounds), lr.Horizon, lr.Truncated, len(rep.Run.Rounds))
	}
}

// TestLiveWaitBoundHaltIsNotACrash: a node whose round a lost frame starves
// — the sender alive and unsuspected — halts at WaitBound without closing
// the round. The projection must read that as a halt: no crash round, no
// reception record for the starved round, and no Lemma 4.1 finding,
// because nobody closed a round without a live peer's message.
func TestLiveWaitBoundHaltIsNotACrash(t *testing.T) {
	alg := algByName(t, "FloodSetWS")
	meta := conform.Meta{Alg: alg, Kind: rounds.RWS, T: 1, Initial: liveInitials(3)}
	var events obs.Collector
	cr, err := runtime.RunCluster(alg, runtime.EngineConfig{
		Kind: rounds.RWS, T: 1,
		SuspectTimeout: 2 * time.Second,
		WaitBound:      50 * time.Millisecond,
		Faults: &faults.Config{
			Default: faults.LinkFaults{Drop: 1},
			// Lose p1's round-2 frame to p2, and nothing else.
			Filter: func(from, to model.ProcessID, data []byte) bool {
				lost := false
				_ = wire.SplitBatch(data, func(frame []byte) error {
					env, err := wire.Decode(frame)
					lost = lost || err == nil && !env.Kind.Control() && env.Round == 2
					return nil
				})
				return from == 1 && to == 2 && lost
			},
		},
	}, meta.Initial, runtime.OpenOptions{Events: &events})
	if err != nil {
		t.Fatal(err)
	}
	if p2 := cr.Outcome.Nodes[1]; cr.Outcome.Decided[1] || p2.Crashed || p2.WaitTimeouts != 1 || p2.Rounds != 1 {
		t.Fatalf("p2 = %+v (decided %v), want halted undecided after round 1 by one expiry", p2, cr.Outcome.Decided[1])
	}
	lr, err := conform.Project(meta, events.Events())
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 3; p++ {
		if lr.CrashRound[p] != 0 {
			t.Errorf("projection crashes p%d in round %d", p, lr.CrashRound[p])
		}
	}
	if len(lr.Rounds) < 2 || lr.Rounds[1].Completed.Has(2) || lr.DecidedAt[2] != 0 {
		t.Errorf("projection: rounds %+v, p2 decided at %d; want p2 never closing round 2", lr.Rounds, lr.DecidedAt[2])
	}
	if v := conform.OnlineInvariants(lr); len(v) != 0 {
		t.Errorf("invariant findings on a halt: %v", v)
	}
}

// TestConformEngineInstances puts the round-level checker on the path that
// serves traffic: 16 instances run concurrently on one shared mesh, each
// watched through its own event sink, one of them carrying a crash plan.
// Crash-stop is per node, so p1 halts in every instance at whatever round it
// had reached there — and every instance's stream must still project,
// replay through the round engine without mismatch, satisfy Lemma 4.1, and
// fingerprint to a member of the enumerated (FloodSetWS, RWS, n=3, t=1) space.
func TestConformEngineInstances(t *testing.T) {
	const instances, planned = 16, 5
	alg := algByName(t, "FloodSetWS")
	meta := conform.Meta{Alg: alg, Kind: rounds.RWS, T: 1, Initial: liveInitials(3)}
	space := liveSpace(t, meta)

	eng, err := runtime.StartEngine(alg, runtime.EngineConfig{
		N: 3, T: 1, Groups: 2,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  300 * time.Millisecond,
		Metrics:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]obs.Collector, instances)
	handles := make([]*runtime.Instance, instances)
	for k := range handles {
		opts := runtime.OpenOptions{Events: &sinks[k]}
		if k == planned {
			opts.Crashes = map[model.ProcessID]runtime.CrashPlan{1: {Round: 2, Reach: 1}}
		}
		handles[k], err = eng.OpenWith(func(id model.ProcessID) model.Value { return meta.Initial[id-1] }, opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range handles {
		<-h.Done()
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); !st.DetectorWasPerfect || st.WaitTimeouts != 0 {
		t.Errorf("engine stats %+v: want a perfect detector and no wait-bound expiry", st)
	}
	for k := range sinks {
		rep, err := conform.CheckEvents(meta, sinks[k].Events(), conform.Options{Space: space, ExpectConsensus: true})
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		if !rep.OK() || rep.InSpace == nil || !*rep.InSpace {
			t.Errorf("instance %d does not conform:\n%s", k, rep)
		}
		if k == planned && rep.Live.CrashRound[1] != 2 {
			t.Errorf("instance %d: p1's crash plan fired at round %d, want 2", k, rep.Live.CrashRound[1])
		}
	}
}
