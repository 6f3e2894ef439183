package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventType classifies a structured run event.
type EventType string

// The event vocabulary, one for the round model and the live runtime alike.
// Both produce round_start and send per process, crash, recv and decide,
// and a round-model stream is framed by run_start and run_end. The live
// runtime additionally produces arrive per message, suspect and retract
// from its failure detectors, and cost; the fault injector (package faults)
// produces partition, heal and recover.
const (
	EventRunStart   EventType = "run_start"
	EventRoundStart EventType = "round_start"
	EventSend       EventType = "send"
	EventCrash      EventType = "crash"
	EventSuspect    EventType = "suspect"
	EventRetract    EventType = "retract"
	EventDecide     EventType = "decide"
	EventRunEnd     EventType = "run_end"

	// EventRecv marks a process completing a round's reception: Proc
	// closed Round having received the round's messages from exactly the
	// Peers senders (a null message's envelope counts as received). The
	// conformance projector (package conform) rebuilds the round-model
	// delivery pattern from these events.
	EventRecv EventType = "recv"

	// EventArrive marks one data message landing at a live node's
	// worker: Proc received sender From's message for Round. Emitted
	// by the live runtime only, and only when an event sink is attached —
	// it is the per-message arrival record the causal tracer (package
	// tracing) needs to separate transport delay from barrier and
	// detector-timeout waits, and to propagate Lamport clocks along
	// message edges. The conformance projector ignores it: round-level
	// reception is established by EventRecv alone.
	EventArrive EventType = "arrive"

	// EventPartition marks a scheduled network partition forming: To holds
	// the isolated group, Value the schedule offset in milliseconds.
	EventPartition EventType = "partition"
	// EventHeal marks that partition healing at its scheduled end.
	EventHeal EventType = "heal"
	// EventRecover marks an injected crash-recovery: Proc rejoins the
	// network after a blackhole window (its earlier EventCrash has Round 0).
	EventRecover EventType = "recover"

	// EventCost closes a live run with its transport cost accounting: the
	// Cost field carries the run's message/byte totals and the derived
	// messages/decision and bytes/decision figures. Emitted once per run by
	// the live runtime, after every node has finished.
	EventCost EventType = "cost"
)

// CostSummary is a live run's transport cost accounting — the quantity the
// paper's efficiency results bound in rounds (Λ), measured here in messages
// and bytes. Messages/Bytes count transport-level sends (heartbeats
// included); DataMessages/DataBytes count wire-codec encodes of round
// messages only (heartbeats excluded), which makes them deterministic for a
// fixed scenario — the regression-comparable figures. Per-decision ratios
// are zero when no process decided.
type CostSummary struct {
	Decisions int `json:"decisions"`

	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`

	DataMessages int64 `json:"data_messages"`
	DataBytes    int64 `json:"data_bytes"`
	Heartbeats   int64 `json:"heartbeats"`
	Dropped      int64 `json:"dropped,omitempty"`

	// ControlMessages/ControlBytes count wire-codec encodes of detector
	// control traffic (heartbeats, pings, acks) — the shared cost a
	// multi-instance engine amortizes: one detector per node serves every
	// instance, so control-per-decision falls toward zero as the instance
	// count grows while data-per-decision stays flat.
	ControlMessages int64 `json:"control_messages"`
	ControlBytes    int64 `json:"control_bytes"`

	MessagesPerDecision        float64 `json:"messages_per_decision"`
	BytesPerDecision           float64 `json:"bytes_per_decision"`
	DataMessagesPerDecision    float64 `json:"data_messages_per_decision"`
	DataBytesPerDecision       float64 `json:"data_bytes_per_decision"`
	ControlMessagesPerDecision float64 `json:"control_messages_per_decision"`
	ControlBytesPerDecision    float64 `json:"control_bytes_per_decision"`
}

// String renders the cost summary as the one-line figure the CLIs print.
func (c *CostSummary) String() string {
	if c == nil {
		return "cost: (not measured)"
	}
	if c.Decisions == 0 {
		return fmt.Sprintf("cost: %d msgs (%d B) sent, %d data msgs (%d B); no decisions",
			c.Messages, c.Bytes, c.DataMessages, c.DataBytes)
	}
	return fmt.Sprintf("cost: %d msgs (%d B) sent, %d decisions -> %.2f msgs/decision (%.1f B); data only: %.2f msgs/decision (%.1f B); control: %.2f msgs/decision (%.1f B)",
		c.Messages, c.Bytes, c.Decisions,
		c.MessagesPerDecision, c.BytesPerDecision,
		c.DataMessagesPerDecision, c.DataBytesPerDecision,
		c.ControlMessagesPerDecision, c.ControlBytesPerDecision)
}

// Event is one structured run event, from a round-model run or a live one.
// Unused fields are omitted from the JSON encoding; process identifiers are
// plain 1-based integers.
type Event struct {
	Type EventType `json:"type"`

	// Run identification (run_start only).
	Algorithm string  `json:"algorithm,omitempty"`
	Model     string  `json:"model,omitempty"`
	N         int     `json:"n,omitempty"`
	T         int     `json:"t,omitempty"`
	Values    []int64 `json:"values,omitempty"` // initial values, p1..pn

	Round int `json:"round,omitempty"` // 1-based round number

	From int   `json:"from,omitempty"` // sender (send, arrive)
	To   []int `json:"to,omitempty"`   // destinations addressed (send), isolated group (partition)

	Proc int `json:"proc,omitempty"` // subject process (round_start, crash, decide, suspect, retract, recv, arrive)
	By   int `json:"by,omitempty"`   // observing process (suspect, retract)

	// Peers holds the senders whose round messages Proc had received when it
	// closed Round (recv only; empty means the round completed on suspicions
	// or deadline alone).
	Peers []int `json:"peers,omitempty"`

	Value *int64 `json:"value,omitempty"` // decision value (decide)

	Truncated bool `json:"truncated,omitempty"` // run hit its round limit (run_end)

	// Cost is the run's transport cost accounting (cost events only).
	Cost *CostSummary `json:"cost,omitempty"`

	// Span context, stamped by a tracing.Tracer interposed on the sink
	// chain (zero when no tracer is attached — the fields are omitted and
	// the JSONL encoding is byte-identical to an untraced stream).
	//
	// TS is the event's wall-clock offset from the trace epoch in
	// nanoseconds; Clock is the emitting process's Lamport clock after the
	// event (receives join with the matching send's clock); Span is the
	// enclosing span's identifier in the assembled trace.
	TS    int64 `json:"ts,omitempty"`
	Clock int64 `json:"clock,omitempty"`
	Span  int64 `json:"span,omitempty"`
}

// Int64 is a convenience for populating pointer-valued event fields.
func Int64(v int64) *int64 { return &v }

// Sink consumes structured events. Implementations must be safe for
// concurrent use when attached to the live runtime (nodes emit from their
// own goroutines).
type Sink interface {
	Emit(Event)
}

// Emitter is a JSONL event sink: one JSON object per line on w. It
// serializes concurrent Emit calls, making it safe to share across the
// goroutines of a live cluster.
type Emitter struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewEmitter returns a JSONL emitter over w.
func NewEmitter(w io.Writer) *Emitter {
	return &Emitter{enc: json.NewEncoder(w)}
}

// Emit implements Sink (no-op on a nil emitter).
func (e *Emitter) Emit(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = e.enc.Encode(ev)
	}
}

// Err returns the first write error encountered, if any.
func (e *Emitter) Err() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Collector is an in-memory sink for tests and programmatic consumers.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
}

// Events returns a copy of the collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// MultiSink fans events out to every sink.
func MultiSink(sinks ...Sink) Sink {
	out := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

type multiSink []Sink

// Emit implements Sink.
func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// ReadEvents parses a JSONL event stream back into events — the inverse of
// replaying a run through an Emitter.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(text, &ev); err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading events: %w", err)
	}
	return out, nil
}
