package runtime

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
)

// decidedCase is one instance run with both callbacks attached.
type decidedCase struct {
	fired       int // OnInstanceDecided calls
	firedAtHalt int // ... as OnInstanceDone saw the count
	value       model.Value
	round       int
	out         InstanceOutcome
}

// runDecidedCase opens one instance on its own engine (a crash plan
// crash-stops its node for the whole engine) and reports what the two
// callbacks saw.
func runDecidedCase(t *testing.T, alg rounds.Algorithm, cfg EngineConfig, initial []model.Value, opts OpenOptions) decidedCase {
	t.Helper()
	var c decidedCase
	cfg.N, cfg.Groups, cfg.HeartbeatPeriod, cfg.Metrics = len(initial), 1, 2*time.Millisecond, obs.NewRegistry()
	// Both callbacks run on the instance's one worker goroutine, which Close
	// joins before c is read.
	cfg.OnInstanceDecided = func(_ uint64, v model.Value, round int) {
		c.fired++
		c.value, c.round = v, round
	}
	cfg.OnInstanceDone = func(uint64, InstanceOutcome) { c.firedAtHalt = c.fired }
	e, err := StartEngine(alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.OpenWith(func(id model.ProcessID) model.Value { return initial[id-1] }, opts)
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	c.out, _ = h.Outcome()
	return c
}

// TestEngineDecidedCallback: OnInstanceDecided fires exactly once per instance
// in which some node decides, strictly before OnInstanceDone, with the value
// every decided node decided and the round of the earliest decision — which
// is the round the paper's latency measures predict: lat = 1 for
// C_OptFloodSetWS on a unanimous configuration and for F_OptFloodSetWS with t
// processes crashed from the start, t+1 everywhere else.
func TestEngineDecidedCallback(t *testing.T) {
	const n, tt = 3, 1
	proposals := map[string][]model.Value{"unanimous": vals(4, 4, 4), "distinct": vals(4, 2, 7)}
	for _, alg := range consensus.ForModel(rounds.RWS) {
		deg, err := latency.Compute(rounds.RWS, alg, n, tt, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fastest, slowestClean := tt+1, 0
		for name, initial := range proposals {
			for _, crashed := range []bool{false, true} {
				want := tt + 1
				switch {
				case alg.Name() == "C_OptFloodSetWS" && name == "unanimous" && !crashed,
					alg.Name() == "F_OptFloodSetWS" && crashed:
					want = 1
				}
				cfg := EngineConfig{T: tt, SuspectTimeout: 2 * time.Second}
				var opts OpenOptions
				label := alg.Name() + "/" + name + "/failure-free"
				if crashed {
					// p3 crashes in round 1 having reached nobody; the survivors
					// close their rounds on the suspicion.
					cfg.SuspectTimeout = 60 * time.Millisecond
					opts.Crashes = map[model.ProcessID]CrashPlan{3: {Round: 1, Reach: 0}}
					label = alg.Name() + "/" + name + "/p3 crashed"
				}
				c := runDecidedCase(t, alg, cfg, initial, opts)
				if c.fired != 1 || c.firedAtHalt != 1 {
					t.Errorf("%s: OnInstanceDecided fired %d times, %d of them before OnInstanceDone; want exactly once, before", label, c.fired, c.firedAtHalt)
					continue
				}
				first := 0
				for i, nd := range c.out.Nodes {
					if !c.out.Decided[i] {
						if !crashed || i != 2 {
							t.Errorf("%s: p%d never decided", label, i+1)
						}
						continue
					}
					if c.out.Decisions[i] != c.value {
						t.Errorf("%s: callback reported %d, p%d decided %d", label, int64(c.value), i+1, int64(c.out.Decisions[i]))
					}
					if first == 0 || int(nd.DecidedAt) < first {
						first = int(nd.DecidedAt)
					}
				}
				if c.round != first || c.round != want {
					t.Errorf("%s: callback round %d, earliest DecidedAt %d, want %d", label, c.round, first, want)
				}
				fastest = min(fastest, c.round)
				if !crashed {
					slowestClean = max(slowestClean, c.round)
				}
			}
		}
		// The table above against the explorer's degrees for this algorithm:
		// its quickest cell is lat(A), its slowest failure-free cell Λ(A).
		if fastest != deg.Lat || slowestClean != deg.Lambda {
			t.Errorf("%s: decided in rounds %d..%d (failure-free max), explorer says lat=%d Λ=%d", alg.Name(), fastest, slowestClean, deg.Lat, deg.Lambda)
		}
	}

	// No decision, no callback: FloodSetWS capped below its round t+1.
	c := runDecidedCase(t, consensus.FloodSetWS{}, EngineConfig{T: tt, MaxRounds: 1, SuspectTimeout: 2 * time.Second},
		proposals["distinct"], OpenOptions{})
	if _, status := c.out.Agreement(); c.fired != 0 || status != AgreementNone {
		t.Errorf("undecided instance: OnInstanceDecided fired %d times, agreement %v", c.fired, status)
	}
}
