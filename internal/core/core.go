// Package core assembles the paper's artifacts into runnable experiments
// E1–E15 (see DESIGN.md §4 for the index). Each experiment regenerates one
// table, figure or theorem-level claim of Charron-Bost, Guerraoui and
// Schiper (DSN 2000) and reports measured-vs-paper outcomes; cmd/ssfd-bench
// prints them all and bench_test.go times them.
package core

import (
	"fmt"
	"strings"

	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config tunes an experiment run.
type Config struct {
	// N and T size the systems (defaults 3 and 1 — the paper's focus).
	N, T int
	// Trials scales randomized sweeps (default 200).
	Trials int
	// Seed drives every randomized component.
	Seed int64
	// Live enables the goroutine/wall-clock parts (E10/E11); they add
	// real-time delays, so benches may disable them.
	Live bool
	// Events, when non-nil, receives the live clusters' structured event
	// streams (ssfd-bench wires its -events flag here).
	Events obs.Sink
	// Workers sizes the explorer's worker pool for the exhaustive
	// experiments (0 or 1 = one worker, negative = one per CPU); every
	// measure is partition-independent, so the reports are identical at
	// any value.
	Workers int
}

// ExploreOptions returns the exploration options shared by the exhaustive
// experiments, carrying the configured worker count.
func (c Config) ExploreOptions() explore.Options {
	return explore.Options{Workers: c.Workers}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 3
	}
	if c.T == 0 {
		c.T = 1
	}
	if c.Trials == 0 {
		c.Trials = 200
	}
	return c
}

// Report is an experiment's outcome.
type Report struct {
	ID    string
	Title string
	// Paper states the claim being reproduced; Measured the observation.
	Paper    string
	Measured string
	Pass     bool
	Table    *stats.Table
	Notes    []string
}

// String renders the report.
func (r *Report) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "paper:    %s\n", r.Paper)
	fmt.Fprintf(&b, "measured: %s\n", r.Measured)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment pairs an id with its driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"E1", "FloodSet solves uniform consensus in RS (Fig. 1)", E1FloodSetRS},
		{"E2", "FloodSetWS solves uniform consensus in RWS; FloodSet does not (Fig. 2)", E2FloodSetWS},
		{"E3", "F_OptFloodSet correctness and Lat = 1 (Fig. 3, Thm 5.1)", E3FOpt},
		{"E4", "A1 correctness, 2-round bound, Λ(A1)=1 (Fig. 4, Thm 5.2)", E4A1},
		{"E5", "lat(C_OptFloodSet) = lat(C_OptFloodSetWS) = 1 (§5.2)", E5COpt},
		{"E6", "Lat(F_OptFloodSet) = Lat(F_OptFloodSetWS) = 1 (§5.2)", E6FOptLat},
		{"E7", "Λ separation: Λ=1 in RS, Λ≥2 in RWS (§5.3)", E7Lambda},
		{"E8", "SDD solvable in SS, unsolvable in SP (§3, Thm 3.1)", E8SDD},
		{"E9", "Atomic commit commits more often in SS than SP (§3)", E9Commit},
		{"E10", "Round-model emulations: RS from SS, RWS from SP (§4, Lemma 4.1)", E10Emulation},
		{"E11", "Full latency matrix Lat(A,f) across algorithms and models (§5)", E11Matrix},
		{"E12", "Extensions: early stopping; consensus vs uniform consensus", E12Extensions},
		{"E13", "◇S consensus (Chandra–Toueg) on the step engine", E13DiamondS},
		{"E14", "Chaos: fault injection degrades P to ◇P beyond the synchrony bounds", E14Chaos},
		{"E15", "Detector zoo: four constructions raced for one oracle contract", E15DetectorZoo},
	}
}

// RunAll executes every experiment and returns the reports.
func RunAll(cfg Config) ([]*Report, error) {
	var out []*Report
	for _, e := range All() {
		r, err := e.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("core: %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
