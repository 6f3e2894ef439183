package fdimpl

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// RaceConfig parameterizes one detector race: every listed construction
// runs under the SAME seeded chaos schedule and network seed, so the rows
// differ only by detector.
type RaceConfig struct {
	// Detectors lists the constructions to race (registry names). Nil
	// races the full zoo.
	Detectors []string
	// N is the cluster size (default 3). The sdd harness only supports 2;
	// at any other size its row reports unsupported.
	N int
	// Seed drives the network delays and the chaos schedule.
	Seed int64
	// Chaos, when non-nil, is cloned per run and injected between every
	// detector and the network.
	Chaos *faults.Config
	// Period and Timeout are the detectors' timing knobs
	// (defaults 2ms / 25ms).
	Period, Timeout time.Duration
	// CrashAt is when the victim (the highest id) crash-stops in the
	// detection probe (default 60ms); Window the probe's total span
	// (default 300ms).
	CrashAt, Window time.Duration
	// Consensus additionally runs FloodSetWS over each detector and
	// scores the decision round (the Λ effect).
	Consensus bool
}

// Score is one detector's row of the E15 scorecard. Verdict columns
// (Supported, Detected, ConsensusAgree...) are deterministic at a fixed
// seed; the timing and message columns are wall-clock measurements and
// informational.
type Score struct {
	Detector  string
	Supported bool
	Note      string // unsupported reason or probe error

	// Detection probe: victim crash-stops at CrashAt.
	Detected        bool          // every live observer suspected the victim
	DetectLatency   time.Duration // crash → last live observer's suspicion
	FalseSuspicions int64         // live observers, over the whole window
	CtrlMsgs        int64         // control messages encoded over the window
	CtrlBytes       int64
	MsgsPerPeriod   float64 // cluster-wide control sends per detector period

	// Consensus effect (only when RaceConfig.Consensus).
	ConsensusRan     bool
	ConsensusDecided bool
	ConsensusAgree   bool
	ConsensusRounds  int // max decision round across nodes (the Λ effect)
	ConsensusFalse   int64
}

func (cfg *RaceConfig) defaults() {
	if cfg.N <= 0 {
		cfg.N = 3
	}
	if cfg.Period <= 0 {
		cfg.Period = 2 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 25 * time.Millisecond
	}
	if cfg.CrashAt <= 0 {
		cfg.CrashAt = 60 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 300 * time.Millisecond
	}
	if len(cfg.Detectors) == 0 {
		cfg.Detectors = Names()
	}
}

// Race runs the detection probe (and optionally the consensus run) for
// every configured detector under identical seeds and returns the rows in
// the configured order. Unknown names error; unsupported configurations
// (sdd at n≠2) score as rows, not errors, so a zoo-wide sweep always
// renders a full card.
func Race(cfg RaceConfig) ([]Score, error) {
	cfg.defaults()
	scores := make([]Score, 0, len(cfg.Detectors))
	for _, name := range cfg.Detectors {
		spec, err := New(name)
		if err != nil {
			return nil, fmt.Errorf("fdimpl: %w", err)
		}
		score := detectionProbe(spec, cfg)
		if score.Supported && cfg.Consensus {
			consensusProbe(spec, cfg, &score)
		}
		scores = append(scores, score)
	}
	return scores, nil
}

// detectionProbe races one construction on an engine that never opens an
// instance (chaos injected when configured): the victim crash-stops at
// CrashAt, and the probe polls every live observer until all suspect it.
func detectionProbe(spec *runtime.DetectorSpec, cfg RaceConfig) Score {
	score := Score{Detector: spec.Name, Supported: true}
	n := cfg.N
	dets := make([]runtime.Detector, n+1)
	reg := obs.NewRegistry()
	ecfg := runtime.EngineConfig{
		N: n, Groups: 1,
		Network:         runtime.NewChanNetwork(n, runtime.ChanConfig{Seed: cfg.Seed, Metrics: reg}),
		HeartbeatPeriod: cfg.Period, SuspectTimeout: cfg.Timeout,
		Detector: Filed(spec, dets), AdaptiveTimeout: true,
		Metrics: reg,
	}
	if cfg.Chaos != nil {
		fc := *cfg.Chaos
		fc.Seed = cfg.Seed
		ecfg.Faults = &fc
	}
	e, err := runtime.StartEngine(consensus.FloodSetWS{}, ecfg)
	if err != nil {
		score.Supported = false
		score.Note = err.Error()
		return score
	}

	victim := model.ProcessID(n)
	start := time.Now()
	var crashTime time.Time
	detectedAt := make([]time.Time, n+1)
	for time.Since(start) < cfg.Window {
		if crashTime.IsZero() && time.Since(start) >= cfg.CrashAt {
			dets[victim].Stop() // crash-stop: the victim's sender dies
			crashTime = time.Now()
		}
		for i := 1; i < n; i++ {
			if dets[i].Suspects().Has(victim) {
				if !crashTime.IsZero() && detectedAt[i].IsZero() {
					detectedAt[i] = time.Now()
				}
			} else {
				detectedAt[i] = time.Time{} // pre-crash or retracted: not a detection
			}
		}
		time.Sleep(cfg.Period / 2)
	}

	score.Detected = true
	for i := 1; i < n; i++ {
		if detectedAt[i].IsZero() {
			score.Detected = false
		} else if lat := detectedAt[i].Sub(crashTime); lat > score.DetectLatency {
			score.DetectLatency = lat
		}
		score.FalseSuspicions += dets[i].FalseSuspicions()
	}

	_ = e.Close() // stop the senders before reading the accounting
	cost := e.Stats().Cost
	score.CtrlMsgs, score.CtrlBytes = cost.ControlMessages, cost.ControlBytes
	score.MsgsPerPeriod = float64(score.CtrlMsgs) * float64(cfg.Period) / float64(cfg.Window)
	return score
}

// consensusProbe measures the detector's effect on consensus: FloodSetWS
// with p1 crashing at round 1, the same chaos schedule, and the decision
// round as the Λ proxy.
func consensusProbe(spec *runtime.DetectorSpec, cfg RaceConfig, score *Score) {
	initial := make([]model.Value, cfg.N)
	for i := range initial {
		initial[i] = model.Value(i + 1)
	}
	ccfg := runtime.EngineConfig{
		Kind: rounds.RWS, T: 1,
		HeartbeatPeriod: cfg.Period, SuspectTimeout: cfg.Timeout,
		Detector:        spec,
		AdaptiveTimeout: true,
		Metrics:         obs.NewRegistry(),
	}
	if cfg.Chaos != nil {
		fc := *cfg.Chaos
		fc.Seed = cfg.Seed
		ccfg.Faults = &fc
		// Chaos can starve receive-or-suspect forever; bound the wait so
		// the probe terminates (the expiry is counted, not hidden).
		ccfg.WaitBound = 2 * time.Second
	}
	score.ConsensusRan = true
	cr, err := runtime.RunCluster(consensus.FloodSetWS{}, ccfg, initial, runtime.OpenOptions{
		Crashes: map[model.ProcessID]runtime.CrashPlan{1: {Round: 1, Reach: 1}}})
	if err != nil {
		score.Note = strings.TrimSpace(score.Note + " consensus: " + err.Error())
		return
	}
	_, agree := cr.Agreement()
	score.ConsensusAgree = agree == runtime.AgreementReached
	score.ConsensusDecided = true
	for i, nd := range cr.Outcome.Nodes {
		if nd.Crashed {
			continue
		}
		if !cr.Outcome.Decided[i] {
			score.ConsensusDecided = false
			continue
		}
		score.ConsensusRounds = max(score.ConsensusRounds, int(nd.DecidedAt))
	}
	score.ConsensusFalse = cr.Stats.FalseSuspicions
}

// ScoreColumns heads the cells Score.Row renders, in order.
var ScoreColumns = []string{"detector", "ok", "detected", "latency", "false", "ctrlmsgs", "msgs/period", "Λ-round"}

// Row renders s as the ScoreColumns cells. The Λ-round cell is the
// consensus decision round, marked "!" unless every live node decided and
// agreed; "-" when no consensus ran.
func (s Score) Row() []any {
	if !s.Supported {
		return []any{s.Detector, "no", "-", "-", "-", "-", "-", "-"}
	}
	lam := "-"
	if s.ConsensusRan {
		lam = fmt.Sprint(s.ConsensusRounds)
		if !s.ConsensusDecided || !s.ConsensusAgree {
			lam += "!"
		}
	}
	return []any{s.Detector, "yes", s.Detected, s.DetectLatency.Round(time.Millisecond),
		s.FalseSuspicions, s.CtrlMsgs, fmt.Sprintf("%.1f", s.MsgsPerPeriod), lam}
}

// RenderScores formats the scorecard, with each row's note last; rows keep
// their Race order.
func RenderScores(scores []Score) string {
	t := stats.NewTable("", append(ScoreColumns, "note")...)
	for _, s := range scores {
		t.AddRow(append(s.Row(), s.Note)...)
	}
	return t.String()
}
