package netobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/obs"
)

// Record categories.
const (
	CatNet = "net" // transport traffic (send/recv/drop/reconnect/retry)
	CatFD  = "fd"  // failure detector (suspect/retract)
	CatRun = "run" // run lifecycle (decide/crash/round milestones)
)

// Record is one flight-recorder entry. Records are deliberately
// timestamp-free: the only ordering information is Seq, the recorder's
// admission sequence number, which makes a dump of a deterministic run
// byte-identical across replays at a fixed seed. Wall-clock post-mortems
// belong to the tracing layer; the flight recorder answers "what were the
// last N things the transport and detector did before it died".
type Record struct {
	Seq       int64  `json:"seq"`
	Cat       string `json:"cat"`
	Kind      string `json:"kind"`
	Transport string `json:"transport,omitempty"`
	Link      string `json:"link,omitempty"`
	Bytes     int    `json:"bytes,omitempty"`
	Round     int    `json:"round,omitempty"`
	Proc      int    `json:"proc,omitempty"`
	Note      string `json:"note,omitempty"`
}

// DumpHeader is the first line of a flight dump.
type DumpHeader struct {
	Flight   int   `json:"flight"`   // format version, currently 1
	Capacity int   `json:"capacity"` // ring size at dump time
	Dropped  int64 `json:"dropped"`  // records evicted by the ring before the dump
	Count    int   `json:"count"`    // records that follow
}

// Dump is a parsed flight dump.
type Dump struct {
	Header  DumpHeader
	Records []Record
}

// DefaultFlightCapacity is the flight recorder's ring size.
const DefaultFlightCapacity = 4096

// Recorder is the flight recorder: a fixed-size ring of recent Records.
// Transport taps and the fault injector write into it directly; it also
// implements obs.Sink, so interposing it on an event-sink chain captures
// detector and run-lifecycle events while forwarding everything unchanged
// to the next sink. All methods are safe for concurrent use and nil-safe.
type Recorder struct {
	next obs.Sink // forwarded-to sink (may be nil)

	mu      sync.Mutex
	ring    []Record
	start   int   // index of oldest record
	count   int   // records currently held
	seq     int64 // next admission sequence number
	evicted int64 // records pushed out of the ring
}

var _ obs.Sink = (*Recorder)(nil)

// NewRecorder returns a flight recorder holding the last
// DefaultFlightCapacity records, forwarding sink events to next (which may
// be nil).
func NewRecorder(next obs.Sink) *Recorder {
	return &Recorder{next: next, ring: make([]Record, DefaultFlightCapacity)}
}

// Record admits one record, stamping its sequence number.
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	rec.Seq = r.seq
	r.seq++
	if r.count < len(r.ring) {
		r.ring[(r.start+r.count)%len(r.ring)] = rec
		r.count++
	} else {
		r.ring[r.start] = rec
		r.start = (r.start + 1) % len(r.ring)
		r.evicted++
	}
	r.mu.Unlock()
}

// Emit implements obs.Sink: detector and run-lifecycle events become
// records; every event is forwarded unchanged to the chained sink.
func (r *Recorder) Emit(ev obs.Event) {
	if r == nil {
		return
	}
	switch ev.Type {
	case obs.EventSuspect:
		r.Record(Record{Cat: CatFD, Kind: "suspect", Proc: ev.Proc, Round: ev.Round,
			Note: fmt.Sprintf("by=p%d", ev.By)})
	case obs.EventRetract:
		r.Record(Record{Cat: CatFD, Kind: "retract", Proc: ev.Proc, Round: ev.Round,
			Note: fmt.Sprintf("by=p%d", ev.By)})
	case obs.EventCrash:
		r.Record(Record{Cat: CatRun, Kind: "crash", Proc: ev.Proc, Round: ev.Round})
	case obs.EventRecover:
		r.Record(Record{Cat: CatRun, Kind: "recover", Proc: ev.Proc, Round: ev.Round})
	case obs.EventDecide:
		rec := Record{Cat: CatRun, Kind: "decide", Proc: ev.Proc, Round: ev.Round}
		if ev.Value != nil {
			rec.Note = fmt.Sprintf("v=%d", *ev.Value)
		}
		r.Record(rec)
	case obs.EventPartition:
		r.Record(Record{Cat: CatNet, Kind: "partition", Round: ev.Round})
	case obs.EventHeal:
		r.Record(Record{Cat: CatNet, Kind: "heal", Round: ev.Round})
	}
	if r.next != nil {
		r.next.Emit(ev)
	}
}

// Records returns the ring's contents, oldest first.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(r.start+i)%len(r.ring)])
	}
	return out
}

// WriteDump writes the dump as deterministic JSONL: a DumpHeader line
// followed by one line per record, oldest first.
func (r *Recorder) WriteDump(w io.Writer) error {
	recs := r.Records()
	var capacity int
	var evicted int64
	if r != nil {
		r.mu.Lock()
		capacity, evicted = len(r.ring), r.evicted
		r.mu.Unlock()
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(DumpHeader{Flight: 1, Capacity: capacity, Dropped: evicted, Count: len(recs)}); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
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

// ReadDump parses a dump written by WriteDump.
func ReadDump(rd io.Reader) (*Dump, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("netobs: reading flight dump: %w", err)
		}
		return nil, fmt.Errorf("netobs: empty flight dump")
	}
	var d Dump
	if err := json.Unmarshal(sc.Bytes(), &d.Header); err != nil {
		return nil, fmt.Errorf("netobs: flight dump header: %w", err)
	}
	if d.Header.Flight != 1 {
		return nil, fmt.Errorf("netobs: unsupported flight dump version %d", d.Header.Flight)
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("netobs: flight dump line %d: %w", line, err)
		}
		d.Records = append(d.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netobs: reading flight dump: %w", err)
	}
	if len(d.Records) != d.Header.Count {
		return nil, fmt.Errorf("netobs: flight dump holds %d records, header claims %d",
			len(d.Records), d.Header.Count)
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
