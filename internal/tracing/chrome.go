package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Chrome trace-event constants: the whole trace is one process (pid 1),
// each ssfd process is a thread (tid = proc), and the global faults track
// sits above the process range.
const (
	chromePID       = 1
	chromeGlobalTID = 1000
)

// chromeEvent is one entry of the Chrome trace-event JSON array — the
// subset of the format the exporters emit: ph "X" complete spans with
// microsecond ts/dur, ph "i" instants, and ph "M" metadata records naming
// the process and threads. Perfetto and chrome://tracing both load it.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   *float64       `json:"dur,omitempty"` // microseconds, ph "X" only
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope, ph "i" only
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object container variant of the format, which
// carries trace-level metadata alongside the event array.
type chromeFile struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// tid maps a span/point owner to its Chrome thread.
func tid(proc int) int {
	if proc == 0 {
		return chromeGlobalTID
	}
	return proc
}

// us converts trace nanoseconds to the format's microseconds; ns converts
// back, rounding to the nearest nanosecond so equal microsecond values
// always map to equal nanosecond values (the attribution exactness only
// needs shared boundaries to stay shared).
func us(ns int64) float64 { return float64(ns) / 1e3 }

func toNS(us float64) int64 { return int64(math.Round(us * 1e3)) }

// WriteChrome renders the trace as Chrome trace-event JSON. The output is
// deterministic for a deterministic trace: metadata first, then spans in ID
// order, then points in record order, all with stable argument keys.
func (t *Trace) WriteChrome(w io.Writer) error {
	f := chromeFile{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"algorithm": t.Algorithm,
			"model":     t.Model,
			"n":         t.N,
			"t":         t.T,
			"timebase":  t.Timebase,
		},
	}

	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: chromePID, TID: 0,
		Args: map[string]any{"name": fmt.Sprintf("ssfd %s/%s n=%d t=%d", t.Algorithm, t.Model, t.N, t.T)},
	})
	for _, p := range t.procIDs() {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: chromePID, TID: tid(p),
			Args: map[string]any{"name": fmt.Sprintf("p%d", p)},
		})
	}
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "thread_name", Phase: "M", PID: chromePID, TID: chromeGlobalTID,
		Args: map[string]any{"name": "faults"},
	})

	spans := make([]Span, len(t.Spans))
	copy(spans, t.Spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	for i := range spans {
		sp := &spans[i]
		name := sp.Kind
		if sp.Round > 0 {
			name = fmt.Sprintf("%s r%d", sp.Kind, sp.Round)
		}
		dur := us(sp.End - sp.Start)
		args := map[string]any{
			"id":     int64(sp.ID),
			"parent": int64(sp.Parent),
			"proc":   sp.Proc,
			"round":  sp.Round,
			"kind":   sp.Kind,
			"c0":     sp.StartClock,
			"c1":     sp.EndClock,
		}
		if sp.Peers != nil {
			args["peers"] = sp.Peers
		}
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: name, Cat: sp.Cat, Phase: "X", TS: us(sp.Start), Dur: &dur,
			PID: chromePID, TID: tid(sp.Proc), Args: args,
		})
	}

	for i := range t.Points {
		pt := &t.Points[i]
		name := pt.Kind
		if pt.From != 0 {
			name = fmt.Sprintf("%s p%d", pt.Kind, pt.From)
		}
		args := map[string]any{
			"parent": int64(pt.Parent),
			"proc":   pt.Proc,
			"round":  pt.Round,
			"from":   pt.From,
			"clock":  pt.Clock,
			"kind":   pt.Kind,
		}
		if pt.Value != nil {
			args["value"] = *pt.Value
		}
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: name, Cat: pt.Cat, Phase: "i", TS: us(pt.TS),
			PID: chromePID, TID: tid(pt.Proc), Scope: "t", Args: args,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// ReadChrome parses a trace back from its Chrome trace-event export — the
// inverse of WriteChrome, used by ssfd-trace to attribute a saved trace.
// Only the events WriteChrome emits are understood; metadata records are
// consulted for the trace coordinate.
func ReadChrome(r io.Reader) (*Trace, error) {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("tracing: parsing chrome trace: %w", err)
	}
	t := &Trace{}
	if od := f.OtherData; od != nil {
		t.Algorithm, _ = od["algorithm"].(string)
		t.Model, _ = od["model"].(string)
		t.Timebase, _ = od["timebase"].(string)
		if v, ok := od["n"].(float64); ok {
			t.N = int(v)
		}
		if v, ok := od["t"].(float64); ok {
			t.T = int(v)
		}
	}
	num := func(args map[string]any, key string) int64 {
		v, _ := args[key].(float64)
		return int64(v)
	}
	for _, ev := range f.TraceEvents {
		switch ev.Phase {
		case "X":
			if ev.Args == nil {
				return nil, fmt.Errorf("tracing: span %q without args", ev.Name)
			}
			var dur float64
			if ev.Dur != nil {
				dur = *ev.Dur
			}
			kind, _ := ev.Args["kind"].(string)
			sp := Span{
				ID:         SpanID(num(ev.Args, "id")),
				Parent:     SpanID(num(ev.Args, "parent")),
				Proc:       int(num(ev.Args, "proc")),
				Kind:       kind,
				Cat:        ev.Cat,
				Round:      int(num(ev.Args, "round")),
				Start:      toNS(ev.TS),
				End:        toNS(ev.TS) + toNS(dur),
				StartClock: num(ev.Args, "c0"),
				EndClock:   num(ev.Args, "c1"),
			}
			if raw, ok := ev.Args["peers"].([]any); ok {
				sp.Peers = make([]int, 0, len(raw))
				for _, p := range raw {
					if v, ok := p.(float64); ok {
						sp.Peers = append(sp.Peers, int(v))
					}
				}
			}
			t.Spans = append(t.Spans, sp)
		case "i":
			if ev.Args == nil {
				return nil, fmt.Errorf("tracing: instant %q without args", ev.Name)
			}
			kind, _ := ev.Args["kind"].(string)
			pt := Point{
				Parent: SpanID(num(ev.Args, "parent")),
				Proc:   int(num(ev.Args, "proc")),
				Kind:   kind,
				Cat:    ev.Cat,
				Round:  int(num(ev.Args, "round")),
				From:   int(num(ev.Args, "from")),
				TS:     toNS(ev.TS),
				Clock:  num(ev.Args, "clock"),
			}
			if v, ok := ev.Args["value"].(float64); ok {
				pt.Value = Int64Ptr(int64(v))
			}
			t.Points = append(t.Points, pt)
		}
	}
	sort.Slice(t.Spans, func(i, j int) bool { return t.Spans[i].ID < t.Spans[j].ID })
	return t, nil
}

// Int64Ptr is a convenience for populating pointer-valued fields.
func Int64Ptr(v int64) *int64 { return &v }
