package core

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/fdimpl"
	"repro/internal/stats"
)

// E15DetectorZoo races the pluggable failure-detector constructions
// (internal/fdimpl) for the paper's oracle contract. The paper treats the
// detector axiomatically — §2 only demands strong completeness and strong
// accuracy from whatever "simple time-out mechanism" the synchrony bounds
// admit — so ANY construction meeting the axioms is admissible. The zoo
// makes that concrete with four constructions of very different message
// disciplines (all-to-all heartbeats, bounded-message pings over ADD
// channels, O(n) ring forwarding, the two-process SDD probe) and races
// them under identical network seeds and chaos schedules:
//
//   - fault-free, every supported construction must be perfect: the victim
//     is detected by every live observer and nobody is falsely suspected;
//   - under E14-grade chaos only ACCURACY may degrade (retractions appear —
//     the ◇P weakening), never completeness: a crash-stopped victim must
//     still be detected because its silence outgrows any adaptive bound;
//   - at n=2 the sdd harness joins the card, probing the §3 boundary where
//     SS answers strictly before the SP window.
//
// Every cell is a live measurement, not a seeded replay: detected and
// false are gated with timing margins, latency and message columns are
// reported for comparison, not gated, and under a lossy fault spec the
// Λ-round cell can flip between 2 and 2! from run to run.
func E15DetectorZoo(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:    "E15",
		Title: "Detector zoo: four constructions raced for one oracle contract",
		Paper: "§2: the failure detector is specified by axioms (strong completeness + accuracy), not by a construction; " +
			"any implementation that meets them within the synchrony bounds is admissible",
	}
	if !cfg.Live {
		r.Pass = true
		r.Measured = "skipped: detector races are wall-clock only (enable Live)"
		r.Notes = append(r.Notes, "run with -live (ssfd-bench) or Config.Live to race the zoo")
		return r, nil
	}

	const ms = time.Millisecond
	pass := true
	table := stats.NewTable(
		"detector races (period 2ms, timeout 25ms — 250ms fault-free at n=3; identical network seed and chaos schedule within each regime)",
		append([]string{"regime"}, fdimpl.ScoreColumns...)...)
	addRows := func(regime string, scores []fdimpl.Score) {
		for _, s := range scores {
			table.AddRow(append([]any{regime}, s.Row()...)...)
		}
	}

	// Regime 1 — fault-free, n=3, consensus riding on top: the perfection
	// gate. sdd must report unsupported (it is a two-process harness). The
	// gate counts false suspicions, so the timeout sits above the 60–130 ms
	// scheduling stalls of a shared host and the window leaves the victim's
	// detection (one timeout after the crash at 60ms) the same room.
	clean, err := fdimpl.Race(fdimpl.RaceConfig{
		Seed: cfg.Seed + 21, Consensus: true, Timeout: 250 * ms, Window: 600 * ms})
	if err != nil {
		return nil, err
	}
	addRows("fault-free n=3", clean)
	supported := 0
	for _, s := range clean {
		if s.Detector == "sdd" {
			if s.Supported {
				pass = false
				r.Notes = append(r.Notes, "sdd claimed support at n=3; it is a two-process harness")
			}
			continue
		}
		supported++
		if !s.Detected || s.FalseSuspicions != 0 {
			pass = false
			r.Notes = append(r.Notes, fmt.Sprintf(
				"fault-free: %s broke perfection (detected=%v false=%d)", s.Detector, s.Detected, s.FalseSuspicions))
		}
		if !s.ConsensusDecided || !s.ConsensusAgree {
			pass = false
			r.Notes = append(r.Notes, fmt.Sprintf(
				"fault-free: consensus over %s failed (decided=%v agree=%v)", s.Detector, s.ConsensusDecided, s.ConsensusAgree))
		}
	}

	// Regime 2 — E14-grade chaos, n=3: loss, duplication and delay spikes
	// past Δ. Completeness must hold for every supported construction;
	// accuracy is free to degrade (that is the ◇P weakening the adaptive
	// bounds absorb), so false suspicions are reported, not gated.
	chaos := &faults.Config{Default: faults.LinkFaults{
		Drop: 0.20, Duplicate: 0.10, Spike: 0.30, SpikeMin: 2 * ms, SpikeMax: 5 * ms,
	}}
	chaotic, err := fdimpl.Race(fdimpl.RaceConfig{Seed: cfg.Seed + 22, Chaos: chaos, Window: 500 * ms})
	if err != nil {
		return nil, err
	}
	addRows("chaos n=3", chaotic)
	for _, s := range chaotic {
		if s.Supported && !s.Detected {
			pass = false
			r.Notes = append(r.Notes, fmt.Sprintf("chaos: %s lost completeness (victim never detected)", s.Detector))
		}
	}

	// Regime 3 — n=2: the sdd harness joins, probing the §3 boundary (SS
	// answers in its short window strictly before SP's). Every construction
	// supports two processes, so the full card must detect.
	pair, err := fdimpl.Race(fdimpl.RaceConfig{N: 2, Seed: cfg.Seed + 23})
	if err != nil {
		return nil, err
	}
	addRows("two-process n=2", pair)
	for _, s := range pair {
		if !s.Supported || !s.Detected {
			pass = false
			r.Notes = append(r.Notes, fmt.Sprintf(
				"n=2: %s failed (supported=%v detected=%v)", s.Detector, s.Supported, s.Detected))
		}
	}

	r.Pass = pass
	r.Measured = fmt.Sprintf(
		"%d constructions perfect when fault-free and complete under chaos; full zoo (sdd included) detects at n=2; message disciplines differ by construction, the oracle contract does not",
		supported)
	r.Table = table
	return r, nil
}
