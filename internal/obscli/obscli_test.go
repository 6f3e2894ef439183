package obscli

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func str(s string) *string { return &s }

func TestSetupNothingRequested(t *testing.T) {
	f := &Flags{Metrics: str(""), Events: str(""), CPUProfile: str(""), MemProfile: str("")}
	sink, teardown, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	if sink != nil {
		t.Error("sink must be nil when -events is unset")
	}
}

func TestSetupEverything(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "run.jsonl")
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	f := &Flags{
		Metrics:    str("127.0.0.1:0"),
		Events:     str(events),
		CPUProfile: str(cpu),
		MemProfile: str(mem),
	}
	sink, teardown, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if sink == nil {
		t.Fatal("no event sink")
	}
	sink.Emit(obs.Event{Type: obs.EventRunStart, Algorithm: "X", Model: "RS", N: 2, T: 1})
	teardown()

	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("events file empty after teardown")
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestSetupBadEventsPath(t *testing.T) {
	f := &Flags{
		Metrics:    str(""),
		Events:     str(filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl")),
		CPUProfile: str(""),
		MemProfile: str(""),
	}
	if _, teardown, err := f.Setup(); err == nil {
		teardown()
		t.Fatal("expected error for uncreatable events file")
	}
}

func TestSetupFlight(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "run.jsonl")
	dump := filepath.Join(dir, "flight.jsonl")
	f := &Flags{Events: str(events), Flight: str(dump)}
	sink, teardown, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()

	// The recorder is the outermost sink: events are captured into the
	// ring AND forwarded to the -events stream.
	if sink == nil {
		t.Fatal("no event sink with -flight armed")
	}
	sink.Emit(obs.Event{Type: obs.EventDecide, Round: 2, Proc: 1, Value: obs.Int64(7)})

	dumped, err := f.DumpFlight()
	if err != nil || !dumped {
		t.Fatalf("DumpFlight = (%v, %v), want (true, nil)", dumped, err)
	}
	d, err := obs.ReadDumpFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 1 || d.Events[0].Type != obs.EventDecide {
		t.Fatalf("dump events = %+v", d.Events)
	}

	if err := teardown(); err != nil {
		t.Fatal(err)
	}
	// And the forwarded copy reached the -events stream.
	if data, err := os.ReadFile(events); err != nil || len(data) == 0 {
		t.Errorf("events file missing the forwarded event (err=%v, %d bytes)", err, len(data))
	}
}

func TestDumpFlightUnarmed(t *testing.T) {
	f := &Flags{}
	if _, teardown, err := f.Setup(); err != nil {
		t.Fatal(err)
	} else {
		defer teardown()
	}
	if dumped, err := f.DumpFlight(); dumped || err != nil {
		t.Fatalf("unarmed DumpFlight = (%v, %v), want (false, nil)", dumped, err)
	}
}
