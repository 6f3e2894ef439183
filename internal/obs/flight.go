package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// DefaultFlightCapacity is the flight recorder's ring size, in events.
const DefaultFlightCapacity = 4096

// flightFormat is the dump format's version: 2 since the ring holds events.
const flightFormat = 2

// Recorder is the flight recorder: a fixed-size ring of the last events of
// the stream it sits on. Emit is its only input; it keeps the event and
// forwards it unchanged to the next sink, so arming it on a sink chain
// changes nothing downstream. A dump pairs the ring with a snapshot of a
// registry's counters: the events say what happened last, the counters how
// much happened in all, evicted events included. All methods are safe for
// concurrent use and nil-safe.
type Recorder struct {
	next Sink      // forwarded-to sink (may be nil)
	reg  *Registry // counters snapshotted into the dump (may be nil)

	mu      sync.Mutex
	ring    []Event
	start   int   // index of the oldest event
	count   int   // events held
	evicted int64 // events pushed out of the ring
}

// NewRecorder returns a flight recorder holding the last
// DefaultFlightCapacity events, forwarding each to next and dumping reg's
// counters with them (either may be nil).
func NewRecorder(next Sink, reg *Registry) *Recorder {
	return &Recorder{next: next, reg: reg, ring: make([]Event, DefaultFlightCapacity)}
}

// Emit implements Sink: the event enters the ring, evicting the oldest when
// it is full, and goes on unchanged to the chained sink.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.count < len(r.ring) {
		r.ring[(r.start+r.count)%len(r.ring)] = ev
		r.count++
	} else {
		r.ring[r.start] = ev
		r.start = (r.start + 1) % len(r.ring)
		r.evicted++
	}
	r.mu.Unlock()
	if r.next != nil {
		r.next.Emit(ev)
	}
}

// DumpHeader is the first line of a flight dump.
type DumpHeader struct {
	Flight   int   `json:"flight"`   // format version, currently 2
	Capacity int   `json:"capacity"` // ring size at dump time
	Dropped  int64 `json:"dropped"`  // events evicted by the ring before the dump
	Count    int   `json:"count"`    // events that follow
	// Counters holds the registry's nonzero counters at dump time, keyed by
	// labelled name: exact totals, unlike tallies over the ring.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Dump is a parsed flight dump.
type Dump struct {
	Header DumpHeader
	Events []Event
}

// WriteDump writes the dump as JSONL: a DumpHeader line followed by one
// event per line, oldest first. The same event sequence over the same
// counters always yields the same bytes.
func (r *Recorder) WriteDump(w io.Writer) error {
	h := DumpHeader{Flight: flightFormat}
	var events []Event
	if r != nil {
		r.mu.Lock()
		events = make([]Event, r.count)
		for i := range events {
			events[i] = r.ring[(r.start+i)%len(r.ring)]
		}
		h.Capacity, h.Dropped = len(r.ring), r.evicted
		r.mu.Unlock()
		h.Counters = make(map[string]int64)
		for name, v := range r.reg.Snapshot().Counters {
			if v != 0 {
				h.Counters[name] = v
			}
		}
	}
	h.Count = len(events)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpTo writes the dump to the named file (created or truncated).
func (r *Recorder) DumpTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteDump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadDump parses a dump written by WriteDump; the events after the header
// are an ordinary JSONL event stream, read by ReadEvents.
func ReadDump(rd io.Reader) (*Dump, error) {
	br := bufio.NewReader(rd)
	line, err := br.ReadBytes('\n')
	if len(line) == 0 {
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("obs: reading flight dump: %w", err)
		}
		return nil, fmt.Errorf("obs: empty flight dump")
	}
	var d Dump
	if err := json.Unmarshal(line, &d.Header); err != nil {
		return nil, fmt.Errorf("obs: flight dump header: %w", err)
	}
	if d.Header.Flight != flightFormat {
		return nil, fmt.Errorf("obs: unsupported flight dump version %d", d.Header.Flight)
	}
	if d.Events, err = ReadEvents(br); err != nil {
		return nil, fmt.Errorf("obs: flight dump: %w", err)
	}
	if len(d.Events) != d.Header.Count {
		return nil, fmt.Errorf("obs: flight dump holds %d events, header claims %d",
			len(d.Events), d.Header.Count)
	}
	return &d, nil
}

// ReadDumpFile parses the named dump file.
func ReadDumpFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDump(f)
}
