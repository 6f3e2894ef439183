package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("read the benchmark contract: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if spec.RunSeconds < 1 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds must be at least 1")
	}
	return &spec, nil
}

// failedShareSlack is how far failed ÷ attempted may rise, absolutely,
// before -compare calls it a regression.
const failedShareSlack = 0.001

// series is the values one metric took over the repeated runs of one
// workload, untraced or traced.
type seriesKey struct {
	workload string
	traced   bool
	metric   string
}

func collect(runs []*runResult) (map[seriesKey][]float64, map[seriesKey]string) {
	vals := make(map[seriesKey][]float64)
	units := make(map[seriesKey]string)
	for _, r := range runs {
		for name, mv := range r.Metrics {
			k := seriesKey{r.Workload, r.Traced, name}
			vals[k] = append(vals[k], mv.Value)
			units[k] = mv.Unit
		}
	}
	return vals, units
}

// printSummary prints median and quartiles per metric and workload.
func printSummary(w io.Writer, runs []*runResult) {
	vals, units := collect(runs)
	fmt.Fprintf(w, "\n%-14s %-40s %-10s %14s %14s %14s %8s %3s\n",
		"workload", "metric", "unit", "q1", "median", "q3", "spread", "k")
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				k := seriesKey{wl, traced, d.Name}
				xs := vals[k]
				if len(xs) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(xs)
				fmt.Fprintf(w, "%-14s %-40s %-10s %14.4f %14.4f %14.4f %7.2f%% %3d\n",
					wl, d.Name, units[k], q1, q2, q3, 100*spread(xs), len(xs))
			}
		}
	}
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// worsening is how far b's median lies on the wrong side of a's, as a share
// of a's.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(better string, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// compareFiles applies the bounds of BENCHMARK.json to two results files:
// a is the parent, b the change. A metric whose run-to-run spread exceeds its
// bound is unresolved, not unchanged. Exit 1 on a regression, a higher
// failed share or an incorrect run.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareReports(spec, a, b, stdout)
}

func compareReports(spec *benchSpec, a, b *report, stdout io.Writer) int {
	code := 0
	va, _ := collect(a.Runs)
	vb, units := collect(b.Runs)
	for _, wl := range workloadNames {
		for _, sm := range spec.EndToEnd {
			k := seriesKey{wl, false, sm.Name}
			xa, xb := va[k], vb[k]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			worse := worsening(sm.Better, ma, mb)
			noise := spread(xa)
			if s := spread(xb); s > noise {
				noise = s
			}
			verdict := "unchanged"
			switch {
			case worse > sm.Bound:
				verdict = "REGRESSION"
				code = 1
			case allBetter(sm.Better, xa, xb):
				verdict = "better in every run"
			case noise > sm.Bound:
				verdict = "unresolved (spread exceeds the bound)"
			}
			fmt.Fprintf(stdout, "%-14s %-20s %-10s %14.4f -> %14.4f  worse by %+6.2f%% (bound %.1f%%, spread %.2f%%): %s\n",
				wl, sm.Name, units[k], ma, mb, 100*worse, 100*sm.Bound, 100*noise, verdict)
		}
		fa, fb := failedShare(a.Runs, wl), failedShare(b.Runs, wl)
		verdict := "ok"
		if fb > fa+failedShareSlack {
			verdict = "REGRESSION"
			code = 1
		}
		fmt.Fprintf(stdout, "%-14s %-20s %-10s %14.6f -> %14.6f: %s\n", wl, "failed_share", "ratio", fa, fb, verdict)
	}
	for _, rep := range []*report{a, b} {
		for _, r := range rep.Runs {
			if !r.Correct {
				fmt.Fprintf(stdout, "%s seed=%d: INCORRECT run: %v\n", r.Workload, r.Seed, r.Violations)
				code = 1
			}
		}
	}
	return code
}

// failedShare is failed ÷ attempted over a workload's untraced runs.
func failedShare(runs []*runResult, workload string) float64 {
	var failed, attempted int64
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}
