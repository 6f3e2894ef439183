// Command ssfd-run executes a single round-model scenario and prints the
// run as a round-by-round narrative — handy for replaying the paper's
// hand-built runs. With -conform it instead executes the scenario as a
// LIVE cluster (real goroutine nodes, real network, optional fault
// injector) and differentially checks the execution against the round
// model: projection, engine replay, online invariants, and membership in
// the exhaustively enumerated run space.
//
// Usage:
//
//	ssfd-run -alg A1 -model RS -values 3,1,2 -t 1
//	ssfd-run -alg A1 -model RWS -values 3,1,2 -drop 1@1 -crash 1@2
//	ssfd-run -alg FloodSet -model RS -values 0,5,9 -crash "1@1:2"   # p1 crashes at round 1 reaching p2
//	ssfd-run -alg FloodSetWS -model RWS -values 0,1,2 -seed 7       # random adversary
//	ssfd-run -alg FloodSet -model RS -values 0,5,9 -conform -crash "1@1:2"
//	ssfd-run -alg FloodSetWS -model RWS -values 0,1,2 -conform -faults "seed=7,dup=0.25,spike=1ms-2ms@0.2"
//	ssfd-run -alg FloodSetWS -model RWS -values 0,1,2 -conform -detector bounded  # swap the FD construction
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/conform"
	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/fdimpl"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/tracing"
)

// writeTraces exports tr to the requested paths (either may be empty). All
// files are closed even when a write fails; every failure is reported and
// makes the return false. Called on error paths too — a run that failed
// mid-way still leaves whatever trace was assembled.
func writeTraces(tr *tracing.Trace, jsonPath, htmlPath string, stderr io.Writer) bool {
	ok := true
	export := func(path string, write func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := obscli.Create(path)
		if err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			ok = false
			return
		}
		if err := write(f); err != nil {
			fmt.Fprintf(stderr, "trace: writing %s: %v\n", path, err)
			ok = false
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "trace: closing %s: %v\n", path, err)
			ok = false
		}
	}
	export(jsonPath, tr.WriteChrome)
	export(htmlPath, tr.WriteHTML)
	return ok
}

func parseValues(s string) ([]model.Value, error) {
	parts := strings.Split(s, ",")
	out := make([]model.Value, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		out = append(out, model.Value(v))
	}
	return out, nil
}

// parseEvent parses "P@R" or "P@R:D1,D2" into victim, round and a set.
func parseEvent(s string) (model.ProcessID, int, model.ProcSet, error) {
	head, tail, hasTargets := strings.Cut(s, ":")
	pr := strings.Split(head, "@")
	if len(pr) != 2 {
		return 0, 0, 0, fmt.Errorf("expected P@R[:targets], got %q", s)
	}
	p, err := strconv.Atoi(pr[0])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad process in %q: %w", s, err)
	}
	r, err := strconv.Atoi(pr[1])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad round in %q: %w", s, err)
	}
	var set model.ProcSet
	if hasTargets && tail != "" {
		for _, d := range strings.Split(tail, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(d))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("bad target in %q: %w", s, err)
			}
			set = set.Add(model.ProcessID(q))
		}
	}
	return model.ProcessID(p), r, set, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("ssfd-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algName := fs.String("alg", "FloodSet", "algorithm name")
	modelName := fs.String("model", "RS", "round model (RS or RWS)")
	valuesStr := fs.String("values", "0,1,2", "comma-separated initial values (one per process)")
	t := fs.Int("t", 1, "resilience bound")
	crashSpec := fs.String("crash", "", "crash event P@R[:reached,...] (e.g. 1@2 or 1@1:2,3; with -conform the targets only fix HOW MANY peers the live node reaches)")
	dropSpec := fs.String("drop", "", "pending-message event P@R[:dropped,...] (RWS engine only; default drops to everyone)")
	seed := fs.Int64("seed", -1, "if ≥ 0, use a seeded random adversary instead of the scripted events (engine only)")
	conformFlag := fs.Bool("conform", false, "execute as a live cluster and conformance-check it against the round model")
	faultsSpec := fs.String("faults", "", "fault-injector spec for -conform (see internal/faults.ParseSpec, e.g. seed=7,dup=0.25,spike=1ms-2ms@0.2)")
	detector := fs.String("detector", "", "failure-detector construction for the live cluster (-conform, RWS only; registered: "+strings.Join(fdimpl.Names(), ", ")+")")
	tracePath := fs.String("trace", "", "write the run's causal trace as Chrome trace-event JSON (load in Perfetto) to this file")
	traceHTML := fs.String("trace-html", "", "write the run's causal trace as a self-contained HTML timeline to this file")
	roundDur := fs.Duration("round-duration", 0, "override the live cluster's RS round duration (-conform only; 0 keeps the default)")
	obsFlags := obscli.RegisterOn(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sink, teardown, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Teardown flushes and closes every output the flags opened; it runs on
	// every exit path, and a flush or close failure must not exit 0.
	defer func() {
		if err := teardown(); err != nil {
			fmt.Fprintln(stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	alg, ok := consensus.ByName(*algName)
	if !ok {
		fmt.Fprintf(stderr, "unknown algorithm %q\n", *algName)
		return 2
	}
	var kind rounds.ModelKind
	switch strings.ToUpper(*modelName) {
	case "RS":
		kind = rounds.RS
	case "RWS":
		kind = rounds.RWS
	default:
		fmt.Fprintf(stderr, "unknown model %q\n", *modelName)
		return 2
	}
	initial, err := parseValues(*valuesStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	n := len(initial)

	// Resolve -detector up front so an unknown name fails fast with the
	// registry, whatever mode was requested.
	var detSpec *runtime.DetectorSpec
	if *detector != "" {
		ds, err := fdimpl.New(*detector)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		detSpec = ds
	}
	if detSpec != nil && !*conformFlag {
		fmt.Fprintln(stderr, "-detector selects the live cluster's failure-detector construction; the round engine has none (use -conform)")
		return 2
	}

	if *conformFlag {
		code := runConform(alg, kind, initial, *t, *crashSpec, *dropSpec, *faultsSpec, *seed, detSpec,
			*tracePath, *traceHTML, *roundDur, obsFlags.FlightRecorder(), sink, stdout, stderr)
		if code != 0 {
			// Post-mortem: a failing live run leaves its flight dump behind
			// (ssfd-trace -flight reads it).
			if dumped, err := obsFlags.DumpFlight(); err != nil {
				fmt.Fprintf(stderr, "flight: %v\n", err)
			} else if dumped {
				fmt.Fprintf(stderr, "flight: dumped recorder to %s\n", *obsFlags.Flight)
			}
		}
		return code
	}

	var adv rounds.Adversary
	if *seed >= 0 {
		adv = rounds.NewRandomAdversary(*seed, 0.4, 0.4)
	} else {
		plans := map[int]*rounds.Plan{}
		ensure := func(r int) *rounds.Plan {
			if plans[r] == nil {
				plans[r] = &rounds.Plan{}
			}
			return plans[r]
		}
		if *crashSpec != "" {
			p, r, reach, err := parseEvent(*crashSpec)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			pl := ensure(r)
			pl.Crashes = map[model.ProcessID]model.ProcSet{p: reach.Remove(p)}
		}
		if *dropSpec != "" {
			p, r, dropped, err := parseEvent(*dropSpec)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			if dropped.Empty() {
				dropped = model.FullSet(n)
			}
			pl := ensure(r)
			pl.Drops = map[model.ProcessID]model.ProcSet{p: dropped.Remove(p)}
		}
		maxRound := 0
		for r := range plans {
			if r > maxRound {
				maxRound = r
			}
		}
		script := &rounds.Script{Plans: make([]rounds.Plan, maxRound)}
		for r, pl := range plans {
			script.Plans[r-1] = *pl
		}
		adv = script
	}

	var engineOpts []rounds.Option
	if sink != nil {
		engineOpts = append(engineOpts, rounds.WithEventSink(sink))
	}
	run, err := rounds.RunAlgorithm(kind, alg, initial, *t, adv, engineOpts...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprint(stdout, trace.RenderRun(run))
	if !writeTraces(tracing.Synthesize(run), *tracePath, *traceHTML, stderr) {
		return 1
	}
	fmt.Fprintln(stdout, "specification check:")
	violated := false
	for _, res := range check.Consensus(run) {
		fmt.Fprintf(stdout, "  %s\n", res)
		if !res.OK {
			violated = true
		}
	}
	if violated {
		return 1
	}
	return 0
}

// runConform executes the scenario live and differentially checks it. The
// run space is enumerated (and membership asserted) whenever the
// coordinate is small enough for the explorer. With -trace/-trace-html a
// causal tracer rides the event chain; the trace files are written on
// every exit path — a run that failed mid-way still leaves its partial
// trace — and a conforming traced run is additionally reconciled: the
// trace-observed decision rounds must match the engine replay.
func runConform(alg rounds.Algorithm, kind rounds.ModelKind, initial []model.Value, t int,
	crashSpec, dropSpec, faultsSpec string, seed int64, detSpec *runtime.DetectorSpec,
	tracePath, traceHTML string, roundDur time.Duration, flight *netobs.Recorder,
	sink obs.Sink, stdout, stderr io.Writer) int {
	if dropSpec != "" {
		fmt.Fprintln(stderr, "-drop is an engine-adversary event; a live network cannot script pending messages (use -faults to perturb the network instead)")
		return 2
	}
	if seed >= 0 {
		fmt.Fprintln(stderr, "-seed selects the engine's random adversary; it has no live counterpart (use -faults seed=... instead)")
		return 2
	}
	cfg := runtime.EngineConfig{Kind: kind, T: t, Events: sink,
		Detector: detSpec, RoundDuration: roundDur, Flight: flight}
	var open runtime.OpenOptions
	var tracer *tracing.Tracer
	if tracePath != "" || traceHTML != "" {
		tracer = tracing.NewTracer(alg.Name(), kind.String(), len(initial), t, sink)
		cfg.Events = tracer
	}
	if crashSpec != "" {
		p, r, reach, err := parseEvent(crashSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		open.Crashes = map[model.ProcessID]runtime.CrashPlan{p: {Round: r, Reach: reach.Count()}}
	}
	if faultsSpec != "" {
		fc, err := faults.ParseSpec(faultsSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		cfg.Faults = &fc
	}

	// The explorer is exponential in n and t; past the paper's coordinates
	// the replay diff alone certifies the run.
	opts := conform.Options{ExpectConsensus: true, Enumerate: len(initial) <= 4 && t <= 2}
	rep, cres, err := conform.CheckLive(alg, cfg, initial, open, opts)

	tracesOK := true
	var attr *tracing.Attribution
	if tracer != nil {
		tr := tracer.Finish()
		tracesOK = writeTraces(tr, tracePath, traceHTML, stderr)
		attr = tracing.Attribute(tr)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprint(stdout, rep.String())
	if cres != nil && cres.Stats.Cost != nil {
		fmt.Fprintln(stdout, cres.Stats.Cost.String())
		for _, kt := range cres.WireKinds {
			fmt.Fprintf(stdout, "  wire %-9s encoded %5d (%6d B)  decoded %5d (%6d B)\n",
				kt.Kind, kt.Encoded, kt.EncodedBytes, kt.Decoded, kt.DecodedBytes)
		}
	}
	if attr != nil {
		fmt.Fprint(stdout, attr.Table())
		if err := attr.CheckSums(); err != nil {
			fmt.Fprintf(stdout, "attribution: %v\n", err)
			tracesOK = false
		}
		if rep.Run != nil {
			if err := tracing.ReconcileRounds(attr, rep.Run); err != nil {
				fmt.Fprintf(stdout, "attribution: %v\n", err)
				tracesOK = false
			} else {
				fmt.Fprintln(stdout, "attribution: observed rounds reconcile with the engine replay")
			}
		}
	}
	if !rep.OK() || !tracesOK {
		return 1
	}
	return 0
}
