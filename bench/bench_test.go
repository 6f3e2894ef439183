package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesCatalogue holds BENCHMARK.json to the limits the
// acceptance driver states and to the catalogue the program emits from.
func TestContractMatchesCatalogue(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}

	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q: want a letter or digit, then letters, digits, _ . - up to 64", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) == len(workloadNames) {
		for i, w := range spec.Workloads {
			name(w.Name)
			if w.Name != workloadNames[i] {
				t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
			}
			if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
				t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
			}
		}
	} else {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloadNames))
	}

	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			name(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q", g.Name, g.Unit)
			}
			if w := want[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)

	setup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, served in this
// process, and requires every metric BENCHMARK.json names, with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, pass := range []struct {
			traced bool
			want   []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res, err := runWorkload(w.Name, runConfig{seed: 1, window: 300 * time.Millisecond, traced: pass.traced, quick: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, pass.traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: incorrect: %v", w.Name, pass.traced, res.Violations)
			}
			if len(res.Metrics) != len(pass.want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, pass.traced, len(res.Metrics), len(pass.want))
			}
			for _, m := range pass.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.Name, pass.traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case !pass.traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			line := driverLine(res)
			for _, key := range []string{`"correct":`, `"attempted":`, `"failed":`, `"metrics":`} {
				if !strings.Contains(line, key) {
					t.Errorf("%s: driver line lacks %s", w.Name, key)
				}
			}
		}
	}
}

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestOpenLoopDue(t *testing.T) {
	const start, period = int64(1_000_000), 10 * time.Millisecond
	for _, c := range []struct {
		client, k int
		want      time.Duration // after start
	}{{0, 0, 0}, {1, 0, 5 * time.Millisecond}, {0, 1, 10 * time.Millisecond}, {1, 1, 15 * time.Millisecond}, {0, 250, 2500 * time.Millisecond}} {
		if got := openLoopDue(start, period, c.client, 2, c.k) - start; got != int64(c.want) {
			t.Errorf("client %d op %d due %v after the start, want %v", c.client, c.k, time.Duration(got), c.want)
		}
	}
	// Two clients at 10ms each offer 200 operations in a second between them.
	offered := 0
	for client := 0; client < 2; client++ {
		for k := 0; openLoopDue(0, period, client, 2, k) < int64(time.Second); k++ {
			offered++
		}
	}
	if offered != 200 {
		t.Errorf("offered %d operations in one second, want 200", offered)
	}
}

func TestBySecond(t *testing.T) {
	ms := time.Millisecond
	var commits []commit
	add := func(second, n int, lat time.Duration) {
		for i := 0; i < n; i++ {
			commits = append(commits, commit{at: time.Duration(second)*time.Second + time.Duration(i)*ms, lat: int64(lat)})
		}
	}
	add(0, 100, 4*ms)
	add(1, 10, 40*ms) // a stalled second
	add(2, 102, 4*ms)
	add(3, 50, 4*ms) // the trailing partial second: dropped
	ps := bySecond(commits, 3500*ms)
	if len(ps.Commits) != 3 || ps.Commits[0] != 100 || ps.Commits[1] != 10 || ps.Commits[2] != 102 {
		t.Fatalf("per-second commits = %v, want [100 10 102]", ps.Commits)
	}
	if got := steady(ps.Commits, "higher"); got != 102 {
		t.Errorf("goodput = %v, want 102: the stalled second must not move the good-side quartile", got)
	}
	if got := steady(ps.P50us, "lower"); got != 4000 {
		t.Errorf("commit p50 = %vus, want 4000", got)
	}
	// A window shorter than a second is one bucket scaled to a rate.
	short := bySecond(commits[:50], 500*ms)
	if len(short.Commits) != 1 || short.Commits[0] != 100 {
		t.Errorf("half-second window: %v commits/s, want [100]", short.Commits)
	}
}

// TestQuartilesMatchPython pins the method to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20, 40, 80, 160})
	if q1 != 15 || q2 != 40 || q3 != 120 {
		t.Errorf("quartiles(10,20,40,80,160) = %v %v %v, want 15 40 120", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "commit_p50_us", Unit: "us", Better: "lower", Bound: 0.05}}}
	rep := func(failed int64, values ...float64) *report {
		r := &report{}
		for _, v := range values {
			m := make(metricSet)
			m.set("commit_p50_us", v, 1)
			r.Runs = append(r.Runs, &runResult{Workload: "engine_lat", Correct: true, Attempted: 1000, Failed: failed, Metrics: m})
		}
		return r
	}
	for _, c := range []struct {
		name string
		a, b *report
		code int
		want string
	}{
		{"steady", rep(0, 100, 101, 102), rep(0, 101, 102, 103), 0, "unchanged"},
		{"regressed", rep(0, 100, 101, 102), rep(0, 110, 111, 112), 1, "REGRESSION"},
		{"noisy", rep(0, 90, 100, 120), rep(0, 91, 101, 119), 0, "unresolved"},
		{"better", rep(0, 100, 101, 102), rep(0, 90, 91, 92), 0, "better in every run"},
		{"more failures", rep(0, 100, 101, 102), rep(5, 100, 101, 102), 1, "failed_share"},
	} {
		var out bytes.Buffer
		if code := compareReports(spec, c.a, c.b, &out); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.want, out.String())
		}
	}
}
