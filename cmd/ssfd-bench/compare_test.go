package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchArtifact is the committed exploration benchmark at the repo root;
// cmd/ssfd-bench sits two directories below it.
const benchArtifact = "../../BENCH_explore.json"

func loadArtifact(t *testing.T) *compareReport {
	t.Helper()
	rep, err := readCompareReport(benchArtifact)
	if err != nil {
		t.Fatalf("committed artifact unreadable: %v", err)
	}
	return rep
}

func writeReport(t *testing.T, rep *compareReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareSelfPasses: the committed artifact compared against itself is
// identical in every column and must pass at any tolerance.
func TestCompareSelfPasses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := runCompare(benchArtifact, benchArtifact, 0.05, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("self-compare exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "no regressions") {
		t.Errorf("verdict line missing from output:\n%s", stdout.String())
	}
	// Every row of the artifact must have been compared.
	rep := loadArtifact(t)
	for _, r := range rep.Rows {
		if !strings.Contains(stdout.String(), "workers="+strconv.Itoa(r.Workers)) {
			t.Errorf("row workers=%d missing from comparison output", r.Workers)
		}
	}
}

// TestCompareDetectsThroughputRegression: dropping runs_per_sec beyond the
// tolerance on one row must fail with exit 1 and name the regression.
func TestCompareDetectsThroughputRegression(t *testing.T) {
	rep := loadArtifact(t)
	rep.Rows[0].RunsPerSec *= 0.5 // 50% slower, far beyond a 15% tolerance
	slow := writeReport(t, rep)

	var stdout, stderr bytes.Buffer
	code := runCompare(benchArtifact, slow, 0.15, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("regression compare exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Errorf("regressed row not flagged:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "regression(s)") {
		t.Errorf("summary missing from stderr:\n%s", stderr.String())
	}
}

// TestCompareDetectsAllocRegression: allocation growth is a regression even
// when throughput is fine.
func TestCompareDetectsAllocRegression(t *testing.T) {
	rep := loadArtifact(t)
	for i := range rep.Rows {
		rep.Rows[i].AllocsPerOp *= 2
	}
	leaky := writeReport(t, rep)

	var stdout, stderr bytes.Buffer
	if code := runCompare(benchArtifact, leaky, 0.15, &stdout, &stderr); code != 1 {
		t.Fatalf("alloc regression exited %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "allocs_per_run") {
		t.Errorf("alloc column not named in output:\n%s", stdout.String())
	}
}

// TestCompareImprovementPasses: faster and leaner is never a regression,
// and no parallel-speedup expectation is ever asserted (the artifact's
// speedup_vs_1_worker column is ignored entirely on this 1-CPU class of
// machine).
func TestCompareImprovementPasses(t *testing.T) {
	rep := loadArtifact(t)
	for i := range rep.Rows {
		rep.Rows[i].RunsPerSec *= 2
		rep.Rows[i].AllocsPerOp *= 0.5
		rep.Rows[i].Speedup = 0 // must not matter
	}
	fast := writeReport(t, rep)

	var stdout, stderr bytes.Buffer
	if code := runCompare(benchArtifact, fast, 0.15, &stdout, &stderr); code != 0 {
		t.Fatalf("improvement compare exited %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "speedup") {
		t.Errorf("speedup must never be part of the comparison:\n%s", stdout.String())
	}
}

// TestCompareDifferentCPUsSkipsTiming: artifacts from machines with
// different CPU counts are not wall-clock comparable; only allocations are
// enforced, and the skip is announced.
func TestCompareDifferentCPUsSkipsTiming(t *testing.T) {
	rep := loadArtifact(t)
	rep.CPUs++
	for i := range rep.Rows {
		rep.Rows[i].RunsPerSec *= 0.1 // would be a huge "regression" if compared
	}
	other := writeReport(t, rep)

	var stdout, stderr bytes.Buffer
	if code := runCompare(benchArtifact, other, 0.15, &stdout, &stderr); code != 0 {
		t.Fatalf("cross-cpu compare exited %d, want 0 (timing must be skipped)\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "cpu counts differ") {
		t.Errorf("cpu mismatch note missing:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), "runs_per_sec") {
		t.Errorf("throughput compared despite differing cpu counts:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), "ops_per_sec") || strings.Contains(stdout.String(), "p99_us") {
		t.Errorf("serve timing compared despite differing cpu counts:\n%s", stdout.String())
	}
}

// TestCompareDetectsCostRegression: growing data bytes/decision beyond the
// tolerance fails, and the artifact's cost rows are all compared.
func TestCompareDetectsCostRegression(t *testing.T) {
	rep := loadArtifact(t)
	if len(rep.CostRows) == 0 {
		t.Fatal("committed artifact has no cost_rows; regenerate BENCH_explore.json")
	}
	rep.CostRows[0].DataBytesPerDecision *= 1.5
	costly := writeReport(t, rep)

	var stdout, stderr bytes.Buffer
	if code := runCompare(benchArtifact, costly, 0.15, &stdout, &stderr); code != 1 {
		t.Fatalf("cost regression exited %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "data_bytes_per_decision") {
		t.Errorf("cost column not named in output:\n%s", stdout.String())
	}
	for _, r := range loadArtifact(t).CostRows {
		if !strings.Contains(stdout.String(), "cost "+r.Algorithm+"/"+r.Model) {
			t.Errorf("cost row %s/%s missing from comparison output", r.Algorithm, r.Model)
		}
	}
}

// TestCompareHeartbeatTotalsNotEnforced: the heartbeat-inclusive totals
// scale with wall-clock, so even a large total growth must not fail as long
// as the data_* columns hold — the totals appear only as informational
// lines.
func TestCompareHeartbeatTotalsNotEnforced(t *testing.T) {
	rep := loadArtifact(t)
	if len(rep.CostRows) == 0 {
		t.Fatal("committed artifact has no cost_rows; regenerate BENCH_explore.json")
	}
	for i := range rep.CostRows {
		rep.CostRows[i].MessagesPerDecision *= 10
		rep.CostRows[i].BytesPerDecision *= 10
	}
	slow := writeReport(t, rep)

	var stdout, stderr bytes.Buffer
	if code := runCompare(benchArtifact, slow, 0.15, &stdout, &stderr); code != 0 {
		t.Fatalf("heartbeat total growth exited %d, want 0 (totals must be informational)\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "informational") {
		t.Errorf("informational totals line missing:\n%s", stdout.String())
	}
}

// TestCompareBadInputs: unreadable files, empty reports, disjoint worker
// sets and nonsense tolerances are usage errors (exit 2), not regressions.
func TestCompareBadInputs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runCompare("nonexistent.json", benchArtifact, 0.15, &stdout, &stderr); code != 2 {
		t.Errorf("missing old file exited %d, want 2", code)
	}
	if code := runCompare(benchArtifact, benchArtifact, 0, &stdout, &stderr); code != 2 {
		t.Errorf("zero tolerance exited %d, want 2", code)
	}
	empty := writeReport(t, &compareReport{Sweep: "s", CPUs: 1, Rows: []compareRow{}})
	// writeReport marshals an empty Rows slice; readCompareReport rejects it.
	if code := runCompare(benchArtifact, empty, 0.15, &stdout, &stderr); code != 2 {
		t.Errorf("empty new report exited %d, want 2", code)
	}
	rep := loadArtifact(t)
	for i := range rep.Rows {
		rep.Rows[i].Workers += 1000
	}
	rep.CostRows = nil   // cost rows alone would still be comparable
	rep.EngineRows = nil // likewise the engine rows
	rep.ServeRows = nil  // likewise the serve rows
	disjoint := writeReport(t, rep)
	if code := runCompare(benchArtifact, disjoint, 0.15, &stdout, &stderr); code != 2 {
		t.Errorf("disjoint worker sets exited %d, want 2", code)
	}
}

// TestCompareDetectsEngineRegression: growing the engine's allocations,
// data bytes or rounds per decision beyond tolerance fails, and every
// committed engine row is compared.
func TestCompareDetectsEngineRegression(t *testing.T) {
	rep := loadArtifact(t)
	if len(rep.EngineRows) == 0 {
		t.Fatal("committed artifact has no engine_rows; regenerate BENCH_explore.json")
	}
	rep.EngineRows[0].AllocsPerDecision *= 2
	leaky := writeReport(t, rep)

	var stdout, stderr bytes.Buffer
	if code := runCompare(benchArtifact, leaky, 0.15, &stdout, &stderr); code != 1 {
		t.Fatalf("engine alloc regression exited %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "allocs_per_decision") {
		t.Errorf("engine alloc column not named in output:\n%s", stdout.String())
	}
	for _, r := range loadArtifact(t).EngineRows {
		if !strings.Contains(stdout.String(), "engine instances="+strconv.Itoa(r.Instances)) {
			t.Errorf("engine row instances=%d missing from comparison output", r.Instances)
		}
	}

	rep = loadArtifact(t)
	rep.EngineRows[len(rep.EngineRows)-1].DataBytesPerDecision *= 1.5
	chatty := writeReport(t, rep)
	stdout.Reset()
	stderr.Reset()
	if code := runCompare(benchArtifact, chatty, 0.15, &stdout, &stderr); code != 1 {
		t.Fatalf("engine data-bytes regression exited %d, want 1\n%s", code, stdout.String())
	}

	// An engine that stops halting at quiescence runs T+2 rounds again.
	rep = loadArtifact(t)
	if rep.EngineRows[0].RoundsPerDecision != 2 {
		t.Fatalf("committed engine row runs %.2f rounds per decision, want T+1 = 2; regenerate BENCH_explore.json",
			rep.EngineRows[0].RoundsPerDecision)
	}
	rep.EngineRows[0].RoundsPerDecision++
	idle := writeReport(t, rep)
	stdout.Reset()
	stderr.Reset()
	if code := runCompare(benchArtifact, idle, 0.15, &stdout, &stderr); code != 1 ||
		!strings.Contains(stdout.String(), "rounds_per_decision: 2.00 -> 3.00") {
		t.Fatalf("engine rounds regression exited %d, want 1 naming the column\n%s", code, stdout.String())
	}
}

// TestCompareDetectsServeRegression: the serving daemon's throughput and
// tail latency are gated like the explorer's — ops_per_sec may only drop
// and p99_us only grow within tolerance — and every committed serve row is
// compared.
func TestCompareDetectsServeRegression(t *testing.T) {
	rep := loadArtifact(t)
	if len(rep.ServeRows) == 0 {
		t.Fatal("committed artifact has no serve_rows; regenerate BENCH_explore.json")
	}
	rep.ServeRows[0].OpsPerSec *= 0.5
	slow := writeReport(t, rep)

	var stdout, stderr bytes.Buffer
	if code := runCompare(benchArtifact, slow, 0.15, &stdout, &stderr); code != 1 {
		t.Fatalf("serve throughput regression exited %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "ops_per_sec") {
		t.Errorf("serve throughput column not named in output:\n%s", stdout.String())
	}
	for _, r := range loadArtifact(t).ServeRows {
		if !strings.Contains(stdout.String(), "serve clients="+strconv.Itoa(r.Clients)) {
			t.Errorf("serve row clients=%d missing from comparison output", r.Clients)
		}
	}

	rep = loadArtifact(t)
	rep.ServeRows[len(rep.ServeRows)-1].P99US *= 3
	laggy := writeReport(t, rep)
	stdout.Reset()
	stderr.Reset()
	if code := runCompare(benchArtifact, laggy, 0.15, &stdout, &stderr); code != 1 {
		t.Fatalf("serve p99 regression exited %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "p99_us") {
		t.Errorf("serve latency column not named in output:\n%s", stdout.String())
	}
}

// TestCompareServeErrorsAlwaysEnforced: the serve errors column counts
// failed client operations, which a correct server never produces. Unlike
// the timing columns it is enforced on every machine — even across CPU
// counts, where all wall-clock comparison is skipped.
func TestCompareServeErrorsAlwaysEnforced(t *testing.T) {
	rep := loadArtifact(t)
	if len(rep.ServeRows) == 0 {
		t.Fatal("committed artifact has no serve_rows; regenerate BENCH_explore.json")
	}
	rep.ServeRows[0].Errors = 5
	rep.CPUs++ // timing comparison is off, errors must still fail

	var stdout, stderr bytes.Buffer
	if code := runCompare(benchArtifact, writeReport(t, rep), 0.15, &stdout, &stderr); code != 1 {
		t.Fatalf("serve errors exited %d, want 1\nstdout:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "must be 0") {
		t.Errorf("errors enforcement line missing:\n%s", stdout.String())
	}
}

// TestCompareEngineControlNotEnforced: the engine's control share depends
// on run wall-clock (heartbeats per decision), so even a large growth must
// stay informational — amortization is asserted where the artifact is
// generated, not between artifacts.
func TestCompareEngineControlNotEnforced(t *testing.T) {
	rep := loadArtifact(t)
	if len(rep.EngineRows) == 0 {
		t.Fatal("committed artifact has no engine_rows; regenerate BENCH_explore.json")
	}
	for i := range rep.EngineRows {
		rep.EngineRows[i].ControlMessagesPerDecision *= 10
		rep.EngineRows[i].ControlBytesPerDecision *= 10
		rep.EngineRows[i].DecisionsPerSec *= 0.1
	}
	slow := writeReport(t, rep)

	var stdout, stderr bytes.Buffer
	if code := runCompare(benchArtifact, slow, 0.15, &stdout, &stderr); code != 0 {
		t.Fatalf("engine control growth exited %d, want 0 (control is informational)\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "engine instances=") {
		t.Errorf("engine rows missing from output:\n%s", stdout.String())
	}
}

// TestServeBenchArtifact: the -serve-bench mode runs a real in-process
// load, writes a serve-rows-only artifact (which readCompareReport must
// accept despite having no explorer rows), and two such artifacts compare
// cleanly — the shape CI's tracing-overhead gate relies on.
func TestServeBenchArtifact(t *testing.T) {
	dir := t.TempDir()
	offPath := filepath.Join(dir, "off.json")
	onPath := filepath.Join(dir, "on.json")
	if code := runServeBench(4, 5, 4, -1, offPath); code != 0 {
		t.Fatalf("serve-bench (tracing off) exited %d", code)
	}
	if code := runServeBench(4, 5, 4, 1, onPath); code != 0 {
		t.Fatalf("serve-bench (tracing on) exited %d", code)
	}

	rep, err := readCompareReport(offPath)
	if err != nil {
		t.Fatalf("serve-only artifact rejected: %v", err)
	}
	if rep.Sweep != "serve-obs" || len(rep.ServeRows) != 1 {
		t.Fatalf("artifact = sweep %q, %d serve rows; want serve-obs with 1 row", rep.Sweep, len(rep.ServeRows))
	}
	row := rep.ServeRows[0]
	if row.Clients != 4 || row.Ops != 20 || row.Errors != 0 || row.OpsPerSec <= 0 {
		t.Fatalf("serve row = %+v, want 4 clients, 20 ops, no errors", row)
	}

	// The overhead gate: tiny runs are noisy, so this test only asserts
	// the comparison machinery works at a generous tolerance; CI runs the
	// real gate with more operations.
	var stdout, stderr bytes.Buffer
	code := runCompare(offPath, onPath, 0.9, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("overhead compare exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "serve clients=4 ops_per_sec:") {
		t.Errorf("ops_per_sec row missing:\n%s", stdout.String())
	}
}
