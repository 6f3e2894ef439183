// Command ssfd-explore drives the exhaustive machinery directly: enumerate
// every admissible run of an algorithm, compute its latency degrees, or run
// the lower-bound refuters.
//
// Usage:
//
//	ssfd-explore -alg FloodSetWS -model RWS -n 3 -t 1            # sweep + latency
//	ssfd-explore -alg A1 -model RWS -refute                      # §5.3 refuter
//	ssfd-explore -alg FloodSet -model RWS -counterexample        # find a violation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/latency"
	"repro/internal/obscli"
	"repro/internal/rounds"
	"repro/internal/trace"
)

func modelByName(name string) (rounds.ModelKind, bool) {
	switch strings.ToUpper(name) {
	case "RS":
		return rounds.RS, true
	case "RWS":
		return rounds.RWS, true
	default:
		return 0, false
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("ssfd-explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algName := fs.String("alg", "FloodSet", "algorithm (FloodSet, FloodSetWS, C_OptFloodSet, C_OptFloodSetWS, F_OptFloodSet, F_OptFloodSetWS, A1)")
	modelName := fs.String("model", "RS", "round model (RS or RWS)")
	n := fs.Int("n", 3, "number of processes")
	t := fs.Int("t", 1, "resilience bound")
	refute := fs.Bool("refute", false, "run the §5.3 round-1 refuter against the algorithm")
	counter := fs.Bool("counterexample", false, "search exhaustively for a uniform-consensus violation and print it")
	progress := fs.Int("progress", 0, "report exploration progress to stderr every N runs (0 = silent)")
	expect := fs.Int("expect", 0, "anticipated total run count (e.g. from a prior sweep); adds % done and ETA to -progress lines")
	workers := fs.Int("workers", 0, "explorer worker goroutines (0 = sequential, -1 = one per CPU)")
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

	alg, ok := consensus.ByName(*algName)
	if !ok {
		fmt.Fprintf(stderr, "unknown algorithm %q\n", *algName)
		return 2
	}
	kind, ok := modelByName(*modelName)
	if !ok {
		fmt.Fprintf(stderr, "unknown model %q\n", *modelName)
		return 2
	}

	opts := explore.Options{Workers: *workers, ExpectedRuns: *expect}
	if *progress > 0 {
		opts.ProgressEvery = *progress
		opts.Progress = func(p explore.Progress) {
			line := fmt.Sprintf("progress: %d runs (%.0f/s), %d plans, %d forks, depth %d, %v elapsed",
				p.Runs, p.RunsPerSec, p.Plans, p.Clones, p.Depth, p.Elapsed.Round(time.Millisecond))
			if p.Expected > 0 {
				line += fmt.Sprintf(", %.1f%% done, ETA %v",
					100*float64(p.Runs)/float64(p.Expected), p.ETA.Round(time.Second))
			}
			fmt.Fprintln(stderr, line)
		}
	}
	// emitRun streams a printed witness run to the -events file, so the
	// JSONL twin of every narrative shown on stdout is preserved.
	emitRun := func(run *rounds.Run) {
		if sink == nil {
			return
		}
		for _, ev := range rounds.EventsFromRun(run) {
			sink.Emit(ev)
		}
	}

	switch {
	case *refute:
		ref, err := explore.RefuteRoundOneRWS(alg, *n, *t)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "refutation of %s (n=%d, t=%d): %v\n%s\n", alg.Name(), *n, *t, ref.Kind, ref.Detail)
		fmt.Fprintln(stdout, trace.RenderRun(ref.Run))
		emitRun(ref.Run)
	case *counter:
		found := false
		for _, cfg := range latency.Configurations(*n) {
			if found {
				break
			}
			_, err := explore.Runs(kind, alg, cfg, *t, opts, func(run *rounds.Run) bool {
				if run.Truncated {
					return true
				}
				if bad := check.FirstViolation(run); bad != nil {
					found = true
					fmt.Fprintf(stdout, "violation: %s\n%s", bad, trace.RenderRun(run))
					emitRun(run)
					return false
				}
				return true
			})
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		if !found {
			fmt.Fprintf(stdout, "%s in %v (n=%d, t=%d): no violation in any admissible run\n", alg.Name(), kind, *n, *t)
		}
	default:
		// One exhaustive pass: latency.Compute already counts every
		// non-truncated run and every specification violation while it
		// aggregates the degrees, so the sweep summary comes straight out
		// of the same Degrees (the old separate counting sweep explored
		// the full run space a second time for nothing).
		d, err := latency.Compute(kind, alg, *n, *t, opts)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s in %v (n=%d, t=%d): %d runs explored, %d violations\n",
			alg.Name(), kind, *n, *t, d.Runs, d.Violations)
		fmt.Fprintln(stdout, d)
	}
	return 0
}
