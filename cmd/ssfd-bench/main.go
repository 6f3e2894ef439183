// Command ssfd-bench regenerates every table and figure of the paper —
// experiments E1–E15 of DESIGN.md — and prints them with paper-vs-measured
// verdicts. It exits nonzero if any reproduction fails.
//
// Usage:
//
//	ssfd-bench [-trials N] [-seed S] [-live] [-only E7]
//	ssfd-bench -json reports.json -metrics 127.0.0.1:9090 -events run.jsonl
//	ssfd-bench -faults "loss=0.2,spike=5ms@0.5,part=3@20ms+100ms,seed=7"
//	ssfd-bench -faults "loss=0.2,seed=7" -detector bounded
//	ssfd-bench -detectors -seed 7                      # race the full zoo, clean network
//	ssfd-bench -detectors -faults "loss=0.2,seed=7"    # race it under one chaos schedule
//	ssfd-bench -engine 20000 -engine-nodes 5 -cpuprofile cpu.out   # multi-instance engine run
//
// -faults skips the experiment suite and instead runs one live RWS
// consensus cluster under the scripted adversarial network, printing the
// run verdict and the seeded fault-decision log (the same spec and seed
// always reproduce the identical log — replay a chaos run by rerunning
// its spec). -detector selects which failure-detector construction that
// cluster runs (default heartbeat; see internal/fdimpl).
//
// -detectors skips the suite and races EVERY registered detector
// construction under the same network seed (and, with -faults, the same
// chaos schedule), printing the E15-style scorecard. Every cell is a live
// measurement, not a seeded replay: under a lossy -faults spec the
// Λ-round cell can flip between 2 and 2! from run to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fdimpl"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/rounds"
	"repro/internal/runtime"
)

// jsonReport is the machine-readable twin of core.Report, one element per
// experiment in the -json output file.
type jsonReport struct {
	ID        string   `json:"id"`
	Title     string   `json:"title"`
	Pass      bool     `json:"pass"`
	Paper     string   `json:"paper,omitempty"`
	Measured  string   `json:"measured,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Error     string   `json:"error,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("ssfd-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 200, "trial count for randomized sweeps")
	seed := fs.Int64("seed", 1, "base random seed")
	live := fs.Bool("live", true, "include live goroutine-cluster measurements (adds wall-clock time)")
	only := fs.String("only", "", "run a single experiment (e.g. E7)")
	jsonPath := fs.String("json", "", "write per-experiment JSON reports to this file")
	workers := fs.Int("workers", 0, "explorer workers for the exhaustive experiments (0 or 1 = one, -1 = one per CPU)")
	faultSpec := fs.String("faults", "", "run one chaos cluster under this fault spec instead of the suite (see internal/faults.ParseSpec)")
	detector := fs.String("detector", "", "failure-detector construction for the -faults chaos run (default heartbeat; -detectors lists the registry)")
	detectors := fs.Bool("detectors", false, "race every registered detector construction under the same seed (and -faults schedule, if given) and print the scorecard")
	engineInstances := fs.Int("engine", 0, "run the shared-mesh multi-instance engine with this many concurrent consensus instances instead of the suite (one detector and one transport per node)")
	engineNodes := fs.Int("engine-nodes", 5, "cluster size for the -engine run")
	obsFlags := obscli.RegisterOn(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sink, teardown, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer func() {
		if err := teardown(); err != nil {
			fmt.Fprintln(stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *engineInstances > 0 {
		return runEngineBench(*engineInstances, *engineNodes, stdout, stderr)
	}
	if *detectors {
		return runDetectorRace(*faultSpec, *seed, stdout, stderr)
	}
	if *detector != "" && *faultSpec == "" {
		fmt.Fprintf(stderr, "-detector selects the -faults chaos cluster's construction; give a -faults spec (or race the zoo with -detectors). registered: %s\n",
			strings.Join(fdimpl.Names(), ", "))
		return 2
	}
	if *faultSpec != "" {
		return runChaos(*faultSpec, *detector, sink, obsFlags, stdout, stderr)
	}

	cfg := core.Config{Trials: *trials, Seed: *seed, Live: *live, Events: sink, Workers: *workers}
	var reports []jsonReport
	failed := 0
	ran := 0
	for _, e := range core.All() {
		if *only != "" && e.ID != *only {
			continue
		}
		ran++
		start := time.Now()
		report, err := e.Run(cfg)
		elapsed := time.Since(start)
		jr := jsonReport{ID: e.ID, Title: e.Title, ElapsedMS: float64(elapsed.Microseconds()) / 1000}
		if err != nil {
			fmt.Fprintf(stderr, "%s: error: %v\n", e.ID, err)
			jr.Error = err.Error()
			reports = append(reports, jr)
			failed++
			continue
		}
		fmt.Fprintln(stdout, report)
		jr.Pass = report.Pass
		jr.Paper = report.Paper
		jr.Measured = report.Measured
		jr.Notes = report.Notes
		reports = append(reports, jr)
		if !report.Pass {
			failed++
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "no experiment matches -only=%s\n", *only)
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	fmt.Fprintf(stdout, "all %d experiments reproduced\n", ran)
	return 0
}

// runEngineBench measures the shared-mesh multi-instance engine: instances
// concurrent FloodSetWS executions multiplexed over one n-node mesh with a
// single heartbeat detector per node. It prints the throughput and the
// per-decision cost split — the control (detector) share is the figure that
// amortizes as the instance count grows — and fails if any instance missed
// a decision or violated agreement.
func runEngineBench(instances, nodes int, stdout, stderr io.Writer) int {
	const tol = 1
	reg := obs.NewRegistry()
	fmt.Fprintf(stdout, "engine: %d instances over a shared %d-node mesh (one detector per node)\n", instances, nodes)
	e, err := runtime.StartEngine(consensus.FloodSetWS{}, runtime.EngineConfig{
		N: nodes, T: tol,
		HeartbeatPeriod: 5 * time.Millisecond,
		SuspectTimeout:  time.Second,
		Metrics:         reg,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	start := time.Now()
	handles := make([]*runtime.Instance, instances)
	for inst := range handles {
		handles[inst], err = e.Open(func(id model.ProcessID) model.Value {
			return model.Value((inst + int(id)) % 7)
		})
		if err != nil {
			_ = e.Close()
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	code := 0
	for inst, h := range handles {
		<-h.Done()
		out, _ := h.Outcome()
		if _, st := out.Agreement(); st != runtime.AgreementReached {
			fmt.Fprintf(stderr, "instance %d: agreement verdict %v\n", inst, st)
			code = 1
		}
	}
	elapsed := time.Since(start)
	if err := e.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	st := e.Stats()
	fmt.Fprintf(stdout, "  decisions: %d/%d in %v (%.0f decisions/sec)\n",
		st.DecidedNodes, instances*nodes, elapsed.Round(time.Millisecond),
		float64(st.DecidedNodes)/elapsed.Seconds())
	fmt.Fprintf(stdout, "  %s\n", st.Cost)
	// Failure-free, every automaton halts at quiescence: the rounds it ran
	// are the rounds FloodSetWS needs to decide.
	fmt.Fprintf(stdout, "  rounds_per_decision: %.2f (T+1 = Lat(FloodSetWS,0) = %d)\n",
		float64(reg.Counter(runtime.MetricNodeRounds).Value())/float64(st.DecidedNodes), tol+1)
	fmt.Fprintf(stdout, "  amortization: %.4f control msgs/decision (%.1f B), %.2f data msgs/decision (%.1f B)\n",
		st.Cost.ControlMessagesPerDecision, st.Cost.ControlBytesPerDecision,
		st.Cost.DataMessagesPerDecision, st.Cost.DataBytesPerDecision)
	fmt.Fprintf(stdout, "  detector perfect: %v, wait timeouts: %d, unknown-instance drops: %d\n",
		st.DetectorWasPerfect, st.WaitTimeouts, st.UnknownInstanceDrops)
	return code
}

// runDetectorRace races every registered failure-detector construction
// under one seeded schedule — the E15 harness as a CLI — and prints the
// scorecard. A supported construction that misses the crash has lost
// strong completeness, the one non-negotiable axiom, and fails the run.
func runDetectorRace(faultSpec string, seed int64, stdout, stderr io.Writer) int {
	rc := fdimpl.RaceConfig{Seed: seed, Consensus: true}
	if faultSpec != "" {
		fc, err := faults.ParseSpec(faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if fc.Seed != 0 {
			rc.Seed = fc.Seed // the spec's seed wins, as in the chaos runner
		}
		rc.Chaos = &fc
		// Chaos slows convergence; give completeness room to show.
		rc.Window = 500 * time.Millisecond
	}
	scores, err := fdimpl.Race(rc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	schedule := "fault-free"
	if faultSpec != "" {
		schedule = faultSpec
	}
	fmt.Fprintf(stdout, "detector race (seed %d, schedule %s):\n", rc.Seed, schedule)
	fmt.Fprint(stdout, fdimpl.RenderScores(scores))
	code := 0
	for _, s := range scores {
		if s.Supported && !s.Detected {
			fmt.Fprintf(stderr, "%s: victim never detected — completeness lost\n", s.Detector)
			code = 1
		}
	}
	return code
}

// runChaos executes one live FloodSetWS cluster (n=3, t=1) under the
// scripted fault spec and prints the verdict plus the deterministic
// fault-decision log. detector selects the failure-detector construction
// ("" keeps the default all-to-all heartbeat).
func runChaos(spec, detector string, sink obs.Sink, obsFlags *obscli.Flags, stdout, stderr io.Writer) int {
	fcfg, err := faults.ParseSpec(spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fcfg.RecordDecisions = true
	fcfg.Events = sink
	ccfg := runtime.EngineConfig{
		Kind: rounds.RWS, T: 1,
		Faults: &fcfg, WaitBound: 150 * time.Millisecond, Events: sink,
		Flight: obsFlags.FlightRecorder(),
	}
	detName := "heartbeat"
	if detector != "" {
		dspec, err := fdimpl.New(detector)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		ccfg.Detector = dspec
		detName = dspec.Name
	}
	cr, err := runtime.RunCluster(consensus.FloodSetWS{}, ccfg, []model.Value{4, 2, 7}, runtime.OpenOptions{})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "chaos run (seed %d, detector %s): %s\n", fcfg.Seed, detName, spec)
	for i, nd := range cr.Outcome.Nodes {
		fmt.Fprintf(stdout, "  p%d: decided=%v value=%d rounds=%d waitTimeouts=%d\n",
			i+1, cr.Outcome.Decided[i], int64(cr.Outcome.Decisions[i]), nd.Rounds, nd.WaitTimeouts)
	}
	_, agree := cr.Agreement()
	fmt.Fprintf(stdout, "  detector perfect: %v (retractions %d, sticky false suspicions %d), agreement: %v, encode errors: %d, elapsed %v\n",
		cr.Stats.DetectorWasPerfect, cr.Stats.FalseSuspicions, cr.Stats.FalselySuspected, agree, cr.Stats.EncodeErrors,
		cr.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  %s\n", cr.Stats.Cost)
	for _, tr := range cr.PartitionLog {
		fmt.Fprintf(stdout, "  transition: %s\n", tr)
	}
	// The decision log is the replay artifact: same spec + seed ⇒ same log.
	if log := faults.RenderDecisions(cr.FaultDecisions); log != "" {
		const keep = 40
		lines := strings.Split(strings.TrimRight(log, "\n"), "\n")
		fmt.Fprintf(stdout, "  fault decisions (seed-deterministic; %d total):\n", len(lines))
		for i, ln := range lines {
			if i == keep {
				fmt.Fprintf(stdout, "    … %d more\n", len(lines)-keep)
				break
			}
			fmt.Fprintf(stdout, "    %s\n", ln)
		}
	}
	// Exit status reflects the detector verdict only: agreement loss under
	// an adversary powerful enough to break P is a finding, not a failure.
	if !cr.Stats.DetectorWasPerfect {
		// A chaos run that broke the detector is exactly what the flight
		// recorder exists for; dump the ring for post-mortem (-flight).
		if ok, err := obsFlags.DumpFlight(); err != nil {
			fmt.Fprintf(stderr, "flight: dump failed: %v\n", err)
		} else if ok {
			fmt.Fprintf(stderr, "flight: dumped recorder to %s\n", *obsFlags.Flight)
		}
		return 1
	}
	return 0
}
