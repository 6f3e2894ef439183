package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareRow / compareReport mirror the BENCH_explore.json artifact that
// TestWriteExploreBenchJSON writes (bench_json_test.go).
type compareRow struct {
	Workers     int     `json:"workers"`
	Runs        int     `json:"runs"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	RunsPerSec  float64 `json:"runs_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_run"`
	Speedup     float64 `json:"speedup_vs_1_worker"`
}

// compareCostRow mirrors the artifact's cost_rows: per-algorithm transport
// cost of one live n=3 t=1 cluster. Only the data_* columns are enforced —
// the totals include failure-detector heartbeats, whose count scales with
// run wall-clock and is not comparable across machines or loads.
type compareCostRow struct {
	Algorithm               string  `json:"algorithm"`
	Model                   string  `json:"model"`
	Decisions               int     `json:"decisions"`
	MessagesPerDecision     float64 `json:"messages_per_decision"`
	BytesPerDecision        float64 `json:"bytes_per_decision"`
	DataMessagesPerDecision float64 `json:"data_messages_per_decision"`
	DataBytesPerDecision    float64 `json:"data_bytes_per_decision"`
}

// compareEngineRow mirrors the artifact's engine_rows: one shared-mesh
// multi-instance engine run per instance count. Enforced columns are the
// machine-independent allocs_per_decision, rounds_per_decision and data_*
// figures; the control columns (the amortized detector share) and
// decisions/sec are wall-clock-dependent and stay informational.
type compareEngineRow struct {
	Instances                  int     `json:"instances"`
	Nodes                      int     `json:"nodes"`
	Decisions                  int     `json:"decisions"`
	DecisionsPerSec            float64 `json:"decisions_per_sec"`
	AllocsPerDecision          float64 `json:"allocs_per_decision"`
	RoundsPerDecision          float64 `json:"rounds_per_decision"`
	DataMessagesPerDecision    float64 `json:"data_messages_per_decision"`
	DataBytesPerDecision       float64 `json:"data_bytes_per_decision"`
	ControlMessagesPerDecision float64 `json:"control_messages_per_decision"`
	ControlBytesPerDecision    float64 `json:"control_bytes_per_decision"`
}

// compareServeRow mirrors the artifact's serve_rows: one closed-loop load
// run against the in-process serving daemon per client count. Throughput
// (ops_per_sec, drop-gated) and tail latency (p99_us, grow-gated) are
// wall-clock quantities and only compared between same-CPU artifacts; the
// errors column is machine-independent and must be zero in any new
// artifact regardless of tolerance or CPU count.
type compareServeRow struct {
	Clients      int     `json:"clients"`
	Keys         int     `json:"keys"`
	Ops          int64   `json:"ops"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	CASOk        int64   `json:"cas_ok"`
	CASConflicts int64   `json:"cas_conflicts"`
	Errors       int64   `json:"errors"`
	P50US        int64   `json:"p50_us"`
	P99US        int64   `json:"p99_us"`
}

type compareReport struct {
	Sweep      string             `json:"sweep"`
	CPUs       int                `json:"cpus"`
	GoVersion  string             `json:"go_version"`
	Rows       []compareRow       `json:"rows"`
	CostRows   []compareCostRow   `json:"cost_rows"`
	EngineRows []compareEngineRow `json:"engine_rows"`
	ServeRows  []compareServeRow  `json:"serve_rows"`
}

func readCompareReport(path string) (*compareReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep compareReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Rows) == 0 && len(rep.CostRows) == 0 && len(rep.EngineRows) == 0 && len(rep.ServeRows) == 0 {
		return nil, fmt.Errorf("%s: no benchmark rows", path)
	}
	return &rep, nil
}

// runCompare is the regression check behind ssfd-bench -compare: it takes
// two BENCH_explore.json artifacts (old, new) and fails when the new one
// regresses beyond the tolerance. Two quantities are compared per worker
// count: runs_per_sec (may only drop by the tolerance) and allocs_per_run
// (may only grow by the tolerance).
//
// It deliberately never asserts a parallel SPEEDUP: speedup_vs_1_worker is
// bounded by the machine's CPU count, and on a single-CPU container —
// where this repository's CI runs — any multi-worker speedup expectation
// is unfalsifiable. Throughput is only compared when both artifacts come
// from the same CPU count; otherwise the timing columns are skipped with a
// note and only the machine-independent allocation counts are enforced.
func runCompare(oldPath, newPath string, tolerance float64, stdout, stderr io.Writer) int {
	if tolerance <= 0 || tolerance >= 1 {
		fmt.Fprintf(stderr, "-tolerance must be in (0,1), got %g\n", tolerance)
		return 2
	}
	oldRep, err := readCompareReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	newRep, err := readCompareReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	fmt.Fprintf(stdout, "bench compare: %s -> %s (tolerance %.0f%%)\n", oldPath, newPath, tolerance*100)
	if oldRep.Sweep != newRep.Sweep {
		fmt.Fprintf(stdout, "  note: sweeps differ (%q vs %q); comparing anyway\n", oldRep.Sweep, newRep.Sweep)
	}
	compareTiming := oldRep.CPUs == newRep.CPUs
	if !compareTiming {
		fmt.Fprintf(stdout, "  note: cpu counts differ (%d vs %d); wall-clock throughput is not comparable, checking allocations only\n",
			oldRep.CPUs, newRep.CPUs)
	}

	oldByWorkers := make(map[int]compareRow, len(oldRep.Rows))
	for _, r := range oldRep.Rows {
		oldByWorkers[r.Workers] = r
	}

	regressions := 0
	matched := 0
	for _, nr := range newRep.Rows {
		or, ok := oldByWorkers[nr.Workers]
		if !ok {
			fmt.Fprintf(stdout, "  workers=%d: new row has no old counterpart, skipped\n", nr.Workers)
			continue
		}
		matched++
		if compareTiming && or.RunsPerSec > 0 {
			ratio := nr.RunsPerSec / or.RunsPerSec
			verdict := "ok"
			if ratio < 1-tolerance {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "  workers=%d runs_per_sec: %.0f -> %.0f (%+.1f%%) %s\n",
				nr.Workers, or.RunsPerSec, nr.RunsPerSec, (ratio-1)*100, verdict)
		}
		if or.AllocsPerOp > 0 {
			ratio := nr.AllocsPerOp / or.AllocsPerOp
			verdict := "ok"
			if ratio > 1+tolerance {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "  workers=%d allocs_per_run: %.1f -> %.1f (%+.1f%%) %s\n",
				nr.Workers, or.AllocsPerOp, nr.AllocsPerOp, (ratio-1)*100, verdict)
		}
	}
	// Transport cost regression: data messages/bytes per decision are
	// deterministic at fixed topology, so they get the same tolerance gate
	// as throughput. The heartbeat-inclusive totals are printed for context
	// but never enforced (their count is wall-clock-dependent).
	oldCost := make(map[string]compareCostRow, len(oldRep.CostRows))
	for _, r := range oldRep.CostRows {
		oldCost[r.Algorithm+"/"+r.Model] = r
	}
	for _, nr := range newRep.CostRows {
		key := nr.Algorithm + "/" + nr.Model
		or, ok := oldCost[key]
		if !ok {
			fmt.Fprintf(stdout, "  cost %s: new row has no old counterpart, skipped\n", key)
			continue
		}
		matched++
		check := func(metric string, oldV, newV float64) {
			if oldV <= 0 {
				return
			}
			ratio := newV / oldV
			verdict := "ok"
			if ratio > 1+tolerance {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "  cost %s %s: %.2f -> %.2f (%+.1f%%) %s\n",
				key, metric, oldV, newV, (ratio-1)*100, verdict)
		}
		check("data_messages_per_decision", or.DataMessagesPerDecision, nr.DataMessagesPerDecision)
		check("data_bytes_per_decision", or.DataBytesPerDecision, nr.DataBytesPerDecision)
		if or.MessagesPerDecision > 0 && nr.MessagesPerDecision > 0 {
			fmt.Fprintf(stdout, "  cost %s totals (informational, heartbeats included): %.2f -> %.2f msgs/decision, %.1f -> %.1f B/decision\n",
				key, or.MessagesPerDecision, nr.MessagesPerDecision,
				or.BytesPerDecision, nr.BytesPerDecision)
		}
	}

	// Engine rows: per-decision allocations, rounds and data bytes/messages
	// are the guarded quantities (grow-only tolerance, like allocs_per_run
	// above; an old artifact without the rounds column skips that check).
	// The control share is printed for the amortization story but never
	// enforced — it depends on run wall-clock, which these artifacts may
	// not share.
	oldEngine := make(map[int]compareEngineRow, len(oldRep.EngineRows))
	for _, r := range oldRep.EngineRows {
		oldEngine[r.Instances] = r
	}
	for _, nr := range newRep.EngineRows {
		or, ok := oldEngine[nr.Instances]
		if !ok {
			fmt.Fprintf(stdout, "  engine instances=%d: new row has no old counterpart, skipped\n", nr.Instances)
			continue
		}
		matched++
		growOnly := func(metric string, oldV, newV float64) {
			if oldV <= 0 {
				return
			}
			ratio := newV / oldV
			verdict := "ok"
			if ratio > 1+tolerance {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "  engine instances=%d %s: %.2f -> %.2f (%+.1f%%) %s\n",
				nr.Instances, metric, oldV, newV, (ratio-1)*100, verdict)
		}
		growOnly("allocs_per_decision", or.AllocsPerDecision, nr.AllocsPerDecision)
		growOnly("rounds_per_decision", or.RoundsPerDecision, nr.RoundsPerDecision)
		growOnly("data_messages_per_decision", or.DataMessagesPerDecision, nr.DataMessagesPerDecision)
		growOnly("data_bytes_per_decision", or.DataBytesPerDecision, nr.DataBytesPerDecision)
		fmt.Fprintf(stdout, "  engine instances=%d control (informational): %.4f -> %.4f msgs/decision\n",
			nr.Instances, or.ControlMessagesPerDecision, nr.ControlMessagesPerDecision)
	}

	// Serve rows: the daemon's KV serving throughput and tail latency,
	// keyed by client count. ops_per_sec may only drop and p99_us only grow
	// within tolerance, both gated to same-CPU artifacts like runs_per_sec
	// above. errors is enforced unconditionally: it counts failed client
	// operations, which a correct server never produces, so any nonzero
	// value in the new artifact is a regression on every machine.
	oldServe := make(map[int]compareServeRow, len(oldRep.ServeRows))
	for _, r := range oldRep.ServeRows {
		oldServe[r.Clients] = r
	}
	for _, nr := range newRep.ServeRows {
		if nr.Errors != 0 {
			fmt.Fprintf(stdout, "  serve clients=%d errors: %d (must be 0) REGRESSION\n", nr.Clients, nr.Errors)
			regressions++
		}
		or, ok := oldServe[nr.Clients]
		if !ok {
			fmt.Fprintf(stdout, "  serve clients=%d: new row has no old counterpart, skipped\n", nr.Clients)
			continue
		}
		matched++
		if compareTiming && or.OpsPerSec > 0 {
			ratio := nr.OpsPerSec / or.OpsPerSec
			verdict := "ok"
			if ratio < 1-tolerance {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "  serve clients=%d ops_per_sec: %.0f -> %.0f (%+.1f%%) %s\n",
				nr.Clients, or.OpsPerSec, nr.OpsPerSec, (ratio-1)*100, verdict)
		}
		if compareTiming && or.P99US > 0 {
			ratio := float64(nr.P99US) / float64(or.P99US)
			verdict := "ok"
			if ratio > 1+tolerance {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "  serve clients=%d p99_us: %d -> %d (%+.1f%%) %s\n",
				nr.Clients, or.P99US, nr.P99US, (ratio-1)*100, verdict)
		}
	}

	if matched == 0 {
		fmt.Fprintln(stderr, "no comparable rows (worker counts disjoint)")
		return 2
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "%d benchmark regression(s) beyond %.0f%% tolerance\n", regressions, tolerance*100)
		return 1
	}
	fmt.Fprintf(stdout, "no regressions beyond %.0f%% tolerance across %d row(s)\n", tolerance*100, matched)
	return 0
}
