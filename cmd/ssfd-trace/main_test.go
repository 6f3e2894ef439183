package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// golden is the committed deterministic trace shared with the exporter
// golden tests; analyzing it exercises the full read→attribute→print path
// on a known input.
const golden = "../../internal/tracing/testdata/golden_floodsetws_rws_seed42.trace.json"

func runTrace(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestTableOutput(t *testing.T) {
	code, out, errOut := runTrace(t, golden)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"FloodSetWS/RWS", "latency degree", "share:"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, errOut := runTrace(t, "-json", golden)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var attr struct {
		Algorithm string `json:"algorithm"`
		Procs     []struct {
			Proc  int   `json:"proc"`
			Total int64 `json:"total"`
		} `json:"procs"`
	}
	if err := json.Unmarshal([]byte(out), &attr); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if attr.Algorithm != "FloodSetWS" || len(attr.Procs) == 0 {
		t.Errorf("unexpected attribution: %+v", attr)
	}
}

func TestHTMLReExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "timeline.html")
	code, _, errOut := runTrace(t, "-html", out, golden)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<!DOCTYPE html>") {
		t.Errorf("re-export is not an HTML document")
	}
}

func TestBadInputs(t *testing.T) {
	if code, _, _ := runTrace(t); code != 2 {
		t.Errorf("no arguments exited %d, want 2", code)
	}
	if code, _, _ := runTrace(t, "missing.json"); code != 2 {
		t.Errorf("missing file exited %d, want 2", code)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runTrace(t, garbage); code != 1 {
		t.Errorf("garbage trace exited %d, want 1", code)
	}
}

// TestFlightCountersAreExact: a run long enough for the ring to evict
// events still dumps exact per-link traffic — the -flight post-mortem's
// per-link sends sum to the run's cost, evicted events included.
func TestFlightCountersAreExact(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(nil, reg)
	e, err := runtime.StartEngine(consensus.FloodSetWS{}, runtime.EngineConfig{
		N: 3, T: 1, Metrics: reg, Events: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*runtime.Instance, 200)
	for i := range handles {
		if handles[i], err = e.OpenWith(func(id model.ProcessID) model.Value {
			return model.Value(i + int(id))
		}, runtime.OpenOptions{Events: rec}); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range handles {
		<-h.Done()
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := rec.DumpTo(path); err != nil {
		t.Fatal(err)
	}
	if d, err := obs.ReadDumpFile(path); err != nil || d.Header.Dropped == 0 {
		t.Fatalf("want a run that overflows the ring: %v", err)
	}

	code, out, errOut := runTrace(t, "-flight", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var sent int64
	for _, line := range strings.Split(out, "\n") {
		name, value, ok := strings.Cut(strings.TrimSpace(line), " ")
		if ok && strings.HasPrefix(name, netobs.MetricLinkMessagesSent+"{") {
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("counter line %q: %v", line, err)
			}
			sent += v
		}
	}
	if cost := e.Stats().Cost.Messages; sent != cost {
		t.Errorf("per-link sends in the post-mortem sum to %d, the run's cost says %d:\n%s", sent, cost, out)
	}
	if !strings.Contains(out, "  decide ") {
		t.Errorf("activity lists no decide events:\n%s", out)
	}
}
