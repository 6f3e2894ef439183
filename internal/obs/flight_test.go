package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// dumpOf writes r's dump and parses it back.
func dumpOf(t *testing.T, r *Recorder) *Dump {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRecorderRingEviction: the ring holds DefaultFlightCapacity = 4096
// events and evicts the oldest at the 4097th, counting each eviction.
func TestRecorderRingEviction(t *testing.T) {
	const capacity = 4096
	rec := NewRecorder(nil, nil)
	for i := 1; i <= capacity; i++ {
		rec.Emit(Event{Type: EventSend, Round: i})
	}
	if h := dumpOf(t, rec).Header; h.Dropped != 0 || h.Capacity != capacity || h.Count != capacity {
		t.Fatalf("full ring, dump header: %+v", h)
	}
	for i := capacity + 1; i <= capacity+6; i++ {
		rec.Emit(Event{Type: EventSend, Round: i})
		if h := dumpOf(t, rec).Header; h.Dropped != int64(i-capacity) || h.Count != capacity {
			t.Fatalf("event %d, dump header: %+v", i, h)
		}
	}
	for i, ev := range dumpOf(t, rec).Events {
		if ev.Round != 7+i {
			t.Fatalf("event %d = %+v, want round %d", i, ev, 7+i)
		}
	}

	// Nil recorder: Emit is a no-op and the dump is an empty ring.
	var nilRec *Recorder
	nilRec.Emit(Event{Type: EventCrash})
	if d := dumpOf(t, nilRec); d.Header.Count != 0 || len(d.Events) != 0 {
		t.Fatalf("nil recorder dump: %+v", d)
	}
}

// TestRecorderSinkCaptureAndForward: every event enters the ring and goes on
// unchanged to the chained sink.
func TestRecorderSinkCaptureAndForward(t *testing.T) {
	next := &Collector{}
	rec := NewRecorder(next, nil)
	events := sampleEvents()
	for _, ev := range events {
		rec.Emit(ev)
	}
	if got := next.Events(); !reflect.DeepEqual(got, events) {
		t.Fatalf("forwarded %+v, want %+v", got, events)
	}
	if got := dumpOf(t, rec).Events; !reflect.DeepEqual(got, events) {
		t.Fatalf("dumped %+v, want %+v", got, events)
	}
}

// TestDumpDeterministic: one event sequence over the same counters dumps to
// the same bytes, and a dump read back and replayed dumps to them again.
func TestDumpDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`ssfd_link_messages_sent_total{transport="chan",link="p1>p2"}`).Add(3)
	reg.Counter("idle_total") // zero: left out of the header
	build := func(events []Event) []byte {
		rec := NewRecorder(nil, reg)
		for _, ev := range events {
			rec.Emit(ev)
		}
		var buf bytes.Buffer
		if err := rec.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(sampleEvents()), build(sampleEvents())
	if !bytes.Equal(a, b) {
		t.Fatal("dumps of one event sequence differ")
	}
	d, err := ReadDump(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{`ssfd_link_messages_sent_total{transport="chan",link="p1>p2"}`: 3}
	if !reflect.DeepEqual(d.Header.Counters, want) {
		t.Fatalf("header counters %v, want %v", d.Header.Counters, want)
	}
	if c := build(d.Events); !bytes.Equal(a, c) {
		t.Fatalf("round trip changed the dump:\n%s\nvs\n%s", a, c)
	}
}

func TestDumpFileAndErrors(t *testing.T) {
	rec := NewRecorder(nil, nil)
	rec.Emit(Event{Type: EventDecide, Proc: 1, Round: 2, Value: Int64(7)})
	path := t.TempDir() + "/flight.jsonl"
	if err := rec.DumpTo(path); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Header.Capacity != DefaultFlightCapacity || d.Header.Count != 1 || *d.Events[0].Value != 7 {
		t.Fatalf("dump: %+v", d)
	}

	for _, bad := range []string{
		"",                              // empty
		"{bad json\n",                   // corrupt header
		`{"flight":1,"count":0}` + "\n", // the record-schema format is gone
		`{"flight":2,"count":2}` + "\n" + `{"type":"send"}` + "\n", // count mismatch
		`{"flight":2,"count":1}` + "\n" + "not json\n",             // corrupt event
	} {
		if _, err := ReadDump(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadDump(%q) accepted a bad dump", bad)
		}
	}
	if _, err := ReadDumpFile(path + ".missing"); err == nil {
		t.Fatal("missing file should fail")
	}
}
