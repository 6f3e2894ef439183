// Package netobs is the transport telemetry layer of the live runtime: it
// accounts for every message the system encodes, sends, receives or loses,
// and turns the totals into the cost figures the paper's efficiency story
// needs alongside its round counts — messages per decision and bytes per
// decision.
//
// Three instruments cooperate:
//
//   - WireStats counts codec conversions per message type (count and byte
//     size, encode and decode side), folded in by whoever converts.
//   - LinkTap carries the per-link accounting of a transport flavour:
//     send/receive message and byte counters per ordered link, drop
//     counters by reason, queue-depth high-water gauges, and the TCP
//     reconnect/retransmit counters — while still maintaining the
//     aggregate {transport="..."} counter families the earlier PRs
//     exposed.
//   - Recorder (recorder.go) is the flight recorder: a fixed-size ring of
//     recent transport/FD records dumped as deterministic JSONL on crash,
//     conformance failure or SIGQUIT.
//
// All counters land on an obs.Registry (visible in the Prometheus
// exposition); each instrument additionally keeps private atomic totals so
// a single run's cost can be computed even when the registry is shared
// across runs. Everything is nil-receiver safe: an un-instrumented
// transport holds nil taps and pays only a branch.
package netobs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Metric names exported by the telemetry layer. Wire metrics carry a
// {kind="..."} label; link metrics carry {transport="...",link="p1>p2"}
// (drops additionally {reason="..."}); the aggregate transport families
// keep the names established in earlier PRs.
const (
	MetricWireEncoded      = "ssfd_wire_encoded_total"
	MetricWireEncodedBytes = "ssfd_wire_encoded_bytes_total"
	MetricWireDecoded      = "ssfd_wire_decoded_total"
	MetricWireDecodedBytes = "ssfd_wire_decoded_bytes_total"

	MetricLinkMessagesSent     = "ssfd_link_messages_sent_total"
	MetricLinkMessagesReceived = "ssfd_link_messages_received_total"
	MetricLinkMessagesDropped  = "ssfd_link_messages_dropped_total"
	MetricLinkBytesSent        = "ssfd_link_bytes_sent_total"
	MetricLinkBytesReceived    = "ssfd_link_bytes_received_total"
	MetricLinkQueueHighWater   = "ssfd_link_queue_high_water"

	MetricTransportMessagesSent     = "ssfd_transport_messages_sent_total"
	MetricTransportMessagesReceived = "ssfd_transport_messages_received_total"
	MetricTransportMessagesDropped  = "ssfd_transport_messages_dropped_total"
	MetricTransportBytesSent        = "ssfd_transport_bytes_sent_total"
	MetricTransportBytesReceived    = "ssfd_transport_bytes_received_total"
	MetricTransportReconnects       = "ssfd_transport_reconnects_total"
	MetricTransportRetries          = "ssfd_transport_retries_total"

	// Cost gauges, set once per live run. Gauges are integral, so the
	// fractional per-decision ratios are exposed in milli-units (value ×
	// 1000); the exact floats travel in the cost event and CLI summaries.
	MetricCostMessagesPerDecisionMilli = "ssfd_cost_messages_per_decision_milli"
	MetricCostBytesPerDecisionMilli    = "ssfd_cost_bytes_per_decision_milli"
	MetricCostDecisions                = "ssfd_cost_decisions"
)

// Drop reasons used by the runtime transports.
const (
	DropLoss     = "loss"     // injected link loss (negative delay hook)
	DropOverflow = "overflow" // bounded inbox or send queue was full
	DropGiveUp   = "giveup"   // TCP frame abandoned after its retry budget
	DropClosed   = "closed"   // still in flight when the network closed
)

// WireStats counts codec traffic per message type, in both the registry
// counters and private per-kind totals. AddEncoded/AddDecoded are the only
// way in: the engine's data path tallies per packet and per sweep and folds
// the totals in bulk, a detector folds one control message per send. Only
// successful conversions are counted.
type WireStats struct {
	perKind [wire.MaxKind + 1]struct {
		encMsgs, encBytes, decMsgs, decBytes atomic.Int64
	}
	enc, encB, dec, decB [wire.MaxKind + 1]*obs.Counter
}

// NewWireStats registers the per-kind counter families on reg (they appear
// in the exposition immediately, at zero). A nil registry yields stats that
// only keep private totals.
func NewWireStats(reg *obs.Registry) *WireStats {
	ws := &WireStats{}
	for _, k := range wire.Kinds() {
		label := func(name string) *obs.Counter {
			return reg.Counter(obs.Label(name, "kind", k.String()))
		}
		ws.enc[k] = label(MetricWireEncoded)
		ws.encB[k] = label(MetricWireEncodedBytes)
		ws.dec[k] = label(MetricWireDecoded)
		ws.decB[k] = label(MetricWireDecodedBytes)
	}
	return ws
}

// valid reports whether k indexes the per-kind tables.
func validKind(k wire.Kind) bool { return k >= wire.KindNull && k <= wire.MaxKind }

// AddEncoded counts msgs successful encodes of kind k totalling bytes. A
// hot caller tallies locally and folds in once per batch instead of touching
// the shared counters on every frame. A nil receiver and an unknown kind are
// ignored.
func (ws *WireStats) AddEncoded(k wire.Kind, msgs, bytes int64) {
	if ws == nil || !validKind(k) {
		return
	}
	ws.perKind[k].encMsgs.Add(msgs)
	ws.perKind[k].encBytes.Add(bytes)
	ws.enc[k].Add(msgs)
	ws.encB[k].Add(bytes)
}

// AddDecoded is the decode-side counterpart of AddEncoded.
func (ws *WireStats) AddDecoded(k wire.Kind, msgs, bytes int64) {
	if ws == nil || !validKind(k) {
		return
	}
	ws.perKind[k].decMsgs.Add(msgs)
	ws.perKind[k].decBytes.Add(bytes)
	ws.dec[k].Add(msgs)
	ws.decB[k].Add(bytes)
}

// KindTotals is one message type's accounting.
type KindTotals struct {
	Kind         string `json:"kind"`
	Encoded      int64  `json:"encoded"`
	EncodedBytes int64  `json:"encoded_bytes"`
	Decoded      int64  `json:"decoded"`
	DecodedBytes int64  `json:"decoded_bytes"`
}

// PerKind returns the non-zero per-kind totals in kind-tag order.
func (ws *WireStats) PerKind() []KindTotals {
	if ws == nil {
		return nil
	}
	var out []KindTotals
	for _, k := range wire.Kinds() {
		s := &ws.perKind[k]
		kt := KindTotals{
			Kind:         k.String(),
			Encoded:      s.encMsgs.Load(),
			EncodedBytes: s.encBytes.Load(),
			Decoded:      s.decMsgs.Load(),
			DecodedBytes: s.decBytes.Load(),
		}
		if kt.Encoded != 0 || kt.Decoded != 0 {
			out = append(out, kt)
		}
	}
	return out
}

// Encoded sums encode-side totals across every kind.
func (ws *WireStats) Encoded() (msgs, bytes int64) {
	if ws == nil {
		return 0, 0
	}
	for _, k := range wire.Kinds() {
		msgs += ws.perKind[k].encMsgs.Load()
		bytes += ws.perKind[k].encBytes.Load()
	}
	return msgs, bytes
}

// DataEncoded sums encode-side totals across the round-message kinds —
// everything except detector control traffic (heartbeats, pings, acks, ring
// digests), whose volume is a wall-clock artifact of the detector period
// rather than a property of the algorithm.
func (ws *WireStats) DataEncoded() (msgs, bytes int64) {
	if ws == nil {
		return 0, 0
	}
	for _, k := range wire.Kinds() {
		if k.Control() {
			continue
		}
		msgs += ws.perKind[k].encMsgs.Load()
		bytes += ws.perKind[k].encBytes.Load()
	}
	return msgs, bytes
}

// Heartbeats returns the encode-side detector control-message count —
// heartbeat beacons plus the zoo detectors' pings, acks and ring digests.
func (ws *WireStats) Heartbeats() int64 {
	if ws == nil {
		return 0
	}
	var msgs int64
	for _, k := range wire.Kinds() {
		if k.Control() {
			msgs += ws.perKind[k].encMsgs.Load()
		}
	}
	return msgs
}

// ControlEncoded sums encode-side totals across the detector control kinds
// — the detector zoo's message-cost figure (count and bytes).
func (ws *WireStats) ControlEncoded() (msgs, bytes int64) {
	if ws == nil {
		return 0, 0
	}
	for _, k := range wire.Kinds() {
		if !k.Control() {
			continue
		}
		msgs += ws.perKind[k].encMsgs.Load()
		bytes += ws.perKind[k].encBytes.Load()
	}
	return msgs, bytes
}

// Link is one ordered sender→receiver pair.
type Link struct {
	From, To model.ProcessID
}

// String renders the link as it appears in metric labels and flight
// records, e.g. "p1>p2".
func (l Link) String() string { return fmt.Sprintf("p%d>p%d", l.From, l.To) }

// LinkTotals is one link's (or one transport's aggregate) accounting.
type LinkTotals struct {
	MsgsSent, BytesSent         int64
	MsgsReceived, BytesReceived int64
	Dropped                     int64
	Reconnects, Retries         int64
	QueueHighWater              int64
}

// linkCounters pairs one link's registry instruments with its private
// totals. name is the link's label, rendered once: the taps run per packet.
type linkCounters struct {
	name                                         string
	msgsSent, bytesSent, msgsRecv, bytesRecv     atomic.Int64
	dropped, reconnects, retries                 atomic.Int64
	queueHW                                      obs.Gauge // raised with Max: several goroutines send on one link
	cMsgsSent, cBytesSent, cMsgsRecv, cBytesRecv *obs.Counter
	cReconnects, cRetries                        *obs.Counter
	gQueueHW                                     *obs.Gauge
}

// LinkTap is one transport flavour's telemetry: per-link counters plus the
// aggregate {transport="..."} families. The runtime networks own one each
// and report every send, receive, drop, queue depth, reconnect and retry
// through it; an optional Recorder sees the same stream as flight records.
type LinkTap struct {
	reg     *obs.Registry
	flavour string
	rec     *Recorder

	// Aggregate registry counters (the pre-existing metric surface).
	aSent, aSentB, aRecv, aRecvB, aDropped *obs.Counter
	aReconnects, aRetries                  *obs.Counter
	// Aggregate private totals for per-run cost accounting.
	tSent, tSentB, tRecv, tRecvB, tDropped atomic.Int64
	tReconnects, tRetries                  atomic.Int64

	mu    sync.RWMutex
	links map[Link]*linkCounters
}

// NewLinkTap builds the flavour's telemetry on reg ("chan", "tcp", ...),
// optionally mirroring every record into the flight recorder.
func NewLinkTap(reg *obs.Registry, flavour string, rec *Recorder) *LinkTap {
	label := func(name string) *obs.Counter {
		return reg.Counter(obs.Label(name, "transport", flavour))
	}
	return &LinkTap{
		reg:         reg,
		flavour:     flavour,
		rec:         rec,
		aSent:       label(MetricTransportMessagesSent),
		aSentB:      label(MetricTransportBytesSent),
		aRecv:       label(MetricTransportMessagesReceived),
		aRecvB:      label(MetricTransportBytesReceived),
		aDropped:    label(MetricTransportMessagesDropped),
		aReconnects: label(MetricTransportReconnects),
		aRetries:    label(MetricTransportRetries),
		links:       make(map[Link]*linkCounters),
	}
}

// SetRecorder attaches (or detaches, with nil) the flight recorder. Call
// before traffic flows; the field is not synchronized against concurrent
// taps.
func (lt *LinkTap) SetRecorder(rec *Recorder) {
	if lt == nil {
		return
	}
	lt.rec = rec
}

// link returns (creating on first use) the per-link instrument set.
func (lt *LinkTap) link(l Link) *linkCounters {
	lt.mu.RLock()
	lc := lt.links[l]
	lt.mu.RUnlock()
	if lc != nil {
		return lc
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lc = lt.links[l]; lc != nil {
		return lc
	}
	name := l.String()
	label := func(metric string) string {
		return obs.Label(obs.Label(metric, "transport", lt.flavour), "link", name)
	}
	lc = &linkCounters{
		name:        name,
		cMsgsSent:   lt.reg.Counter(label(MetricLinkMessagesSent)),
		cBytesSent:  lt.reg.Counter(label(MetricLinkBytesSent)),
		cMsgsRecv:   lt.reg.Counter(label(MetricLinkMessagesReceived)),
		cBytesRecv:  lt.reg.Counter(label(MetricLinkBytesReceived)),
		cReconnects: lt.reg.Counter(label(MetricTransportReconnects)),
		cRetries:    lt.reg.Counter(label(MetricTransportRetries)),
		gQueueHW:    lt.reg.Gauge(label(MetricLinkQueueHighWater)),
	}
	lt.links[l] = lc
	return lc
}

// Sent records one message handed to the transport for delivery.
func (lt *LinkTap) Sent(from, to model.ProcessID, bytes int) {
	if lt == nil {
		return
	}
	lc := lt.link(Link{from, to})
	lc.msgsSent.Add(1)
	lc.bytesSent.Add(int64(bytes))
	lc.cMsgsSent.Inc()
	lc.cBytesSent.Add(int64(bytes))
	lt.tSent.Add(1)
	lt.tSentB.Add(int64(bytes))
	lt.aSent.Inc()
	lt.aSentB.Add(int64(bytes))
	lt.rec.Record(Record{Cat: CatNet, Kind: "send", Transport: lt.flavour,
		Link: lc.name, Bytes: bytes})
}

// Received records one message delivered to its destination inbox.
func (lt *LinkTap) Received(from, to model.ProcessID, bytes int) {
	if lt == nil {
		return
	}
	lc := lt.link(Link{from, to})
	lc.msgsRecv.Add(1)
	lc.bytesRecv.Add(int64(bytes))
	lc.cMsgsRecv.Inc()
	lc.cBytesRecv.Add(int64(bytes))
	lt.tRecv.Add(1)
	lt.tRecvB.Add(int64(bytes))
	lt.aRecv.Inc()
	lt.aRecvB.Add(int64(bytes))
	lt.rec.Record(Record{Cat: CatNet, Kind: "recv", Transport: lt.flavour,
		Link: lc.name, Bytes: bytes})
}

// Dropped records one message the transport itself lost, labelled with the
// reason (DropLoss, DropOverflow, DropGiveUp, DropClosed).
func (lt *LinkTap) Dropped(from, to model.ProcessID, reason string) {
	if lt == nil {
		return
	}
	lc := lt.link(Link{from, to})
	lc.dropped.Add(1)
	lt.reg.Counter(obs.Label(obs.Label(obs.Label(MetricLinkMessagesDropped,
		"transport", lt.flavour), "link", lc.name), "reason", reason)).Inc()
	lt.tDropped.Add(1)
	lt.aDropped.Inc()
	lt.rec.Record(Record{Cat: CatNet, Kind: "drop", Transport: lt.flavour,
		Link: lc.name, Note: reason})
}

// QueueDepth records the link's queue occupancy after an enqueue; only the
// high-water mark is kept.
func (lt *LinkTap) QueueDepth(from, to model.ProcessID, depth int) {
	if lt == nil {
		return
	}
	lc := lt.link(Link{from, to})
	lc.queueHW.Max(int64(depth))
	lc.gQueueHW.Max(int64(depth))
}

// Reconnect records a (re-)established connection on the link.
func (lt *LinkTap) Reconnect(from, to model.ProcessID) {
	if lt == nil {
		return
	}
	lc := lt.link(Link{from, to})
	lc.reconnects.Add(1)
	lc.cReconnects.Inc()
	lt.tReconnects.Add(1)
	lt.aReconnects.Inc()
	lt.rec.Record(Record{Cat: CatNet, Kind: "reconnect", Transport: lt.flavour,
		Link: lc.name})
}

// Retry records one retransmission attempt on the link.
func (lt *LinkTap) Retry(from, to model.ProcessID) {
	if lt == nil {
		return
	}
	lc := lt.link(Link{from, to})
	lc.retries.Add(1)
	lc.cRetries.Inc()
	lt.tRetries.Add(1)
	lt.aRetries.Inc()
	lt.rec.Record(Record{Cat: CatNet, Kind: "retry", Transport: lt.flavour,
		Link: lc.name})
}

// Totals returns the transport's aggregate accounting.
func (lt *LinkTap) Totals() LinkTotals {
	if lt == nil {
		return LinkTotals{}
	}
	var hw int64
	lt.mu.RLock()
	for _, lc := range lt.links {
		hw = max(hw, lc.queueHW.Value())
	}
	lt.mu.RUnlock()
	return LinkTotals{
		MsgsSent:       lt.tSent.Load(),
		BytesSent:      lt.tSentB.Load(),
		MsgsReceived:   lt.tRecv.Load(),
		BytesReceived:  lt.tRecvB.Load(),
		Dropped:        lt.tDropped.Load(),
		Reconnects:     lt.tReconnects.Load(),
		Retries:        lt.tRetries.Load(),
		QueueHighWater: hw,
	}
}

// PerLink returns each link's accounting, keyed by link.
func (lt *LinkTap) PerLink() map[Link]LinkTotals {
	if lt == nil {
		return nil
	}
	lt.mu.RLock()
	defer lt.mu.RUnlock()
	out := make(map[Link]LinkTotals, len(lt.links))
	for l, lc := range lt.links {
		out[l] = LinkTotals{
			MsgsSent:       lc.msgsSent.Load(),
			BytesSent:      lc.bytesSent.Load(),
			MsgsReceived:   lc.msgsRecv.Load(),
			BytesReceived:  lc.bytesRecv.Load(),
			Dropped:        lc.dropped.Load(),
			Reconnects:     lc.reconnects.Load(),
			Retries:        lc.retries.Load(),
			QueueHighWater: lc.queueHW.Value(),
		}
	}
	return out
}

// SortedLinks returns the tap's links in canonical (from, to) order — the
// deterministic iteration order of reports.
func (lt *LinkTap) SortedLinks() []Link {
	if lt == nil {
		return nil
	}
	lt.mu.RLock()
	out := make([]Link, 0, len(lt.links))
	for l := range lt.links {
		out = append(out, l)
	}
	lt.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// ComputeCost derives a run's cost summary: transport-level totals from the
// link tap (nil: fall back to encode counts) and deterministic data-only
// figures from the wire stats, divided by the number of decisions.
func ComputeCost(decisions int, ws *WireStats, lt *LinkTap) *obs.CostSummary {
	c := &obs.CostSummary{Decisions: decisions}
	c.DataMessages, c.DataBytes = ws.DataEncoded()
	c.ControlMessages, c.ControlBytes = ws.ControlEncoded()
	c.Heartbeats = ws.Heartbeats()
	if lt != nil {
		t := lt.Totals()
		c.Messages, c.Bytes, c.Dropped = t.MsgsSent, t.BytesSent, t.Dropped
	} else {
		c.Messages, c.Bytes = ws.Encoded()
	}
	if decisions > 0 {
		d := float64(decisions)
		c.MessagesPerDecision = float64(c.Messages) / d
		c.BytesPerDecision = float64(c.Bytes) / d
		c.DataMessagesPerDecision = float64(c.DataMessages) / d
		c.DataBytesPerDecision = float64(c.DataBytes) / d
		c.ControlMessagesPerDecision = float64(c.ControlMessages) / d
		c.ControlBytesPerDecision = float64(c.ControlBytes) / d
	}
	return c
}

// PublishCost sets the run's cost gauges on the registry (per-decision
// ratios in milli-units; see the metric-name comment).
func PublishCost(reg *obs.Registry, c *obs.CostSummary) {
	if reg == nil || c == nil {
		return
	}
	reg.Gauge(MetricCostDecisions).Set(int64(c.Decisions))
	reg.Gauge(MetricCostMessagesPerDecisionMilli).Set(int64(c.MessagesPerDecision*1000 + 0.5))
	reg.Gauge(MetricCostBytesPerDecisionMilli).Set(int64(c.BytesPerDecision*1000 + 0.5))
}
