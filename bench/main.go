// Command bench is the repository's benchmark: goodput and commit latency at
// the Engine API and through the ssfd-serve daemon, with per-layer numbers
// taken from outside through the engine's three public seams. README.md in
// this directory says what each workload and metric is for.
//
//	bash bench/run.sh                                  every workload, untraced then traced
//	bash bench/run.sh -workload engine_lat -seed 2     one workload
//	bash bench/run.sh -repeat 5 -out a.json            medians and quartiles
//	bash bench/run.sh -compare a.json b.json           apply BENCHMARK.json's bounds
//
// The acceptance driver's form is
// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last line
// printed is then the run's JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"strings"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	seed   int64
	window time.Duration
	traced bool
	// quick is the form the test runs: one set-up, a tenth of the warm-up,
	// 20ms per standalone layer, and the kv workloads served in this process
	// so that nothing has to be built.
	quick bool
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

func (c runConfig) setups() int {
	if c.quick {
		return 1
	}
	return setupRepeats
}

func (c runConfig) warm(n int) int {
	if c.quick {
		return n/10 + 1
	}
	return n
}

func (c runConfig) layerBudget() time.Duration {
	if c.quick {
		return 20 * time.Millisecond
	}
	return 500 * time.Millisecond
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Traced     bool      `json:"traced"`
	Correct    bool      `json:"correct"`
	Attempted  int64     `json:"attempted"`
	Failed     int64     `json:"failed"`
	Violations []string  `json:"violations,omitempty"`
	Metrics    metricSet `json:"metrics"`
	// Series is the untraced window second by second: what the end-to-end
	// metrics are read off.
	Series perSecond `json:"series"`
}

func newResult(workload string, cfg runConfig) *runResult {
	return &runResult{Workload: workload, Seed: cfg.seed, Traced: cfg.traced, Correct: true, Metrics: make(metricSet)}
}

// absorb adds one pass's tallies. A correctness violation is never counted
// as a failed operation: it makes the run incorrect.
func (r *runResult) absorb(attempted, failed int64, violations []string) {
	r.Attempted += attempted
	r.Failed += failed
	if len(violations) > 0 {
		r.Correct = false
		r.Violations = append(r.Violations, violations...)
	}
}

// workloadNames is the running order.
var workloadNames = []string{"engine_sat", "engine_lat", "kv_write", "kv_hot_mixed"}

// runWorkload is one run: untraced for the end-to-end metrics, traced for
// the per-layer ones.
func runWorkload(name string, cfg runConfig) (*runResult, error) {
	var res *runResult
	var err error
	switch {
	case engineWorkloads[name].n > 0:
		res, err = runEngineWorkload(name, cfg)
	case kvWorkloads[name].clients > 0:
		res, err = runKVWorkload(name, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: the window saw no operation", name)
	}
	if cfg.traced {
		res.Metrics.fill(perLayer)
	}
	return res, nil
}

// repoRoot is the checkout the benchmark runs in: the directory holding
// BENCHMARK.json, which is the working directory under run.sh and its parent
// under `go run` from bench/.
var repoRoot = func() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}()

// outPath names a file under bench/out, where results and span files go.
func outPath(name string) string { return filepath.Join(repoRoot, "bench", "out", name) }

// buildDir holds what the benchmark compiles.
func buildDir() string { return filepath.Join(repoRoot, ".bench_build") }

// report is the results file: the environment and every run made.
type report struct {
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	CPUs       int          `json:"cpus"`
	Seconds    int          `json:"seconds"`
	Faults     string       `json:"fault_schedule"`
	Runs       []*runResult `json:"runs"`
}

func newReport(seconds int) *report {
	return &report{
		GoVersion:  stdruntime.Version(),
		GOMAXPROCS: stdruntime.GOMAXPROCS(0),
		CPUs:       stdruntime.NumCPU(),
		Seconds:    seconds,
		Faults:     "none",
	}
}

func (rep *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRun lists every metric of a run by name, with unit and sample count.
func printRun(w io.Writer, r *runResult) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d %s: attempted=%d failed=%d failed_share=%.6f correct=%v\n",
		r.Workload, r.Seed, pass, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)), r.Correct)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	for _, name := range r.Metrics.names() {
		mv := r.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.4f %-10s", name, mv.Value, mv.Unit)
		if mv.N > 0 {
			fmt.Fprintf(w, " n=%d", mv.N)
			if p := quotedPercentile(name); p > topPercentile(mv.N) {
				fmt.Fprintf(w, " (fewer than ten samples beyond p%v)", p)
			}
		}
		fmt.Fprintln(w)
	}
}

// quotedPercentile is the percentile a metric's name says it is (0 if none).
func quotedPercentile(name string) float64 {
	for _, p := range []float64{50, 95, 99} {
		if strings.Contains(name, fmt.Sprintf("_p%v", p)) {
			return p
		}
	}
	return 0
}

// driverLine is the one JSON object the acceptance driver reads.
func driverLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv)}
	for name, v := range r.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	data, _ := json.Marshal(out) // plain numbers, strings and bools: cannot fail
	return string(data)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: proposals, key order and op mix derive from it (2 is the held-out seed for claims)")
	seconds := fs.Int("seconds", 0, "measured window per run in seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
	repeat := fs.Int("repeat", 1, "repeat every run this many times and print median and quartiles")
	compare := fs.Bool("compare", false, "compare two results files (a.json b.json) under BENCHMARK.json's bounds")
	out := fs.String("out", "", "results file (default bench/out/results.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two results files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	passes := []bool{false, true}
	if *trace >= 0 {
		passes = []bool{*trace == 1}
	}
	if *out == "" {
		*out = outPath("results.json")
	}

	rep := newReport(*seconds)
	code := 0
	var last *runResult
	for _, name := range names {
		for _, traced := range passes {
			for i := 0; i < *repeat; i++ {
				res, err := runWorkload(name, runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: traced})
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				printRun(stdout, res)
				rep.Runs = append(rep.Runs, res)
				if !res.Correct {
					code = 1
				}
				last = res
			}
		}
	}
	if *repeat > 1 {
		printSummary(stdout, rep.Runs)
	}
	if err := rep.write(*out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(names) == 1 && len(passes) == 1 && *repeat == 1 {
		fmt.Fprintln(stdout, driverLine(last))
	}
	return code
}
