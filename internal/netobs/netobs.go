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
//     reconnect/retransmit counters, plus the aggregate
//     {transport="..."} families. Its totals are the sums of its links.
//   - Recorder (recorder.go) is the flight recorder: a fixed-size ring of
//     recent transport/FD records dumped as deterministic JSONL on crash,
//     conformance failure or SIGQUIT.
//
// Each fact is counted once, in a scoped obs.Counter: the instrument reads
// its own total from it (a single run's cost, even when the registry is
// shared across runs), and every Add also lands in the registry family
// the Prometheus exposition shows. A nil registry leaves the instrument
// its own totals. Everything is nil-receiver safe: an un-instrumented
// transport holds nil taps and pays only a branch.
package netobs

import (
	"fmt"
	"sort"
	"sync"

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

// WireStats counts codec traffic per message type: one scoped counter per
// kind and side (count and bytes), scoped under the {kind="..."} family.
// AddEncoded/AddDecoded are the only way in: the engine's data path tallies
// per packet and per sweep and folds the totals in bulk, a detector folds
// one control message per send. Only successful conversions are counted.
type WireStats struct {
	enc, encB, dec, decB [wire.MaxKind + 1]*obs.Counter
}

// NewWireStats registers the per-kind counter families on reg (they appear
// in the exposition immediately, at zero). A nil registry yields stats that
// only keep their own totals.
func NewWireStats(reg *obs.Registry) *WireStats {
	ws := &WireStats{}
	for _, k := range wire.Kinds() {
		label := func(name string) *obs.Counter {
			return reg.Counter(obs.Label(name, "kind", k.String())).Scoped()
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
	ws.enc[k].Add(msgs)
	ws.encB[k].Add(bytes)
}

// AddDecoded is the decode-side counterpart of AddEncoded.
func (ws *WireStats) AddDecoded(k wire.Kind, msgs, bytes int64) {
	if ws == nil || !validKind(k) {
		return
	}
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
		kt := KindTotals{
			Kind:         k.String(),
			Encoded:      ws.enc[k].Value(),
			EncodedBytes: ws.encB[k].Value(),
			Decoded:      ws.dec[k].Value(),
			DecodedBytes: ws.decB[k].Value(),
		}
		if kt.Encoded != 0 || kt.Decoded != 0 {
			out = append(out, kt)
		}
	}
	return out
}

// encoded sums encode-side totals across the kinds keep selects.
func (ws *WireStats) encoded(keep func(wire.Kind) bool) (msgs, bytes int64) {
	if ws == nil {
		return 0, 0
	}
	for _, k := range wire.Kinds() {
		if keep(k) {
			msgs += ws.enc[k].Value()
			bytes += ws.encB[k].Value()
		}
	}
	return msgs, bytes
}

// Encoded sums encode-side totals across every kind.
func (ws *WireStats) Encoded() (msgs, bytes int64) {
	return ws.encoded(func(wire.Kind) bool { return true })
}

// DataEncoded sums encode-side totals across the round-message kinds —
// everything except detector control traffic (heartbeats, pings, acks, ring
// digests), whose volume is a wall-clock artifact of the detector period
// rather than a property of the algorithm.
func (ws *WireStats) DataEncoded() (msgs, bytes int64) {
	return ws.encoded(func(k wire.Kind) bool { return !k.Control() })
}

// ControlEncoded sums encode-side totals across the detector control kinds
// — the detector zoo's message-cost figure (count and bytes).
func (ws *WireStats) ControlEncoded() (msgs, bytes int64) {
	return ws.encoded(wire.Kind.Control)
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

// linkCounters is one link's instruments. Each counter is scoped under the
// link's {transport,link} family, so the tap reads the link's totals from
// the counters the exposition sums. name is the link's label, rendered
// once: the taps run per packet.
type linkCounters struct {
	name                                     string
	msgsSent, bytesSent, msgsRecv, bytesRecv *obs.Counter
	reconnects, retries                      *obs.Counter
	drops                                    sync.Map  // reason → *obs.Counter, made at the link's first drop for it
	queueHW                                  obs.Gauge // raised with Max: several goroutines send on one link
	gQueueHW                                 *obs.Gauge
}

// dropped sums the link's drops over every reason.
func (lc *linkCounters) dropped() int64 {
	var n int64
	lc.drops.Range(func(_, c any) bool {
		n += c.(*obs.Counter).Value()
		return true
	})
	return n
}

// totals is the link's accounting.
func (lc *linkCounters) totals() LinkTotals {
	return LinkTotals{
		MsgsSent:       lc.msgsSent.Value(),
		BytesSent:      lc.bytesSent.Value(),
		MsgsReceived:   lc.msgsRecv.Value(),
		BytesReceived:  lc.bytesRecv.Value(),
		Dropped:        lc.dropped(),
		Reconnects:     lc.reconnects.Value(),
		Retries:        lc.retries.Value(),
		QueueHighWater: lc.queueHW.Value(),
	}
}

// LinkTap is one transport flavour's telemetry: per-link counters plus the
// aggregate {transport="..."} families. The runtime networks own one each
// and report every send, receive, drop, queue depth, reconnect and retry
// through it; an optional Recorder sees the same stream as flight records.
type LinkTap struct {
	reg     *obs.Registry
	flavour string
	rec     *Recorder

	// The aggregate families; the tap's own totals are its links' sums.
	aSent, aSentB, aRecv, aRecvB, aDropped *obs.Counter
	aReconnects, aRetries                  *obs.Counter

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
	scoped := func(metric string) *obs.Counter {
		return lt.reg.Counter(lt.linkLabel(metric, name)).Scoped()
	}
	lc = &linkCounters{
		name:       name,
		msgsSent:   scoped(MetricLinkMessagesSent),
		bytesSent:  scoped(MetricLinkBytesSent),
		msgsRecv:   scoped(MetricLinkMessagesReceived),
		bytesRecv:  scoped(MetricLinkBytesReceived),
		reconnects: scoped(MetricTransportReconnects),
		retries:    scoped(MetricTransportRetries),
		gQueueHW:   lt.reg.Gauge(lt.linkLabel(MetricLinkQueueHighWater, name)),
	}
	lt.links[l] = lc
	return lc
}

// linkLabel labels metric with the tap's flavour and the link's name.
func (lt *LinkTap) linkLabel(metric, link string) string {
	return obs.Label(obs.Label(metric, "transport", lt.flavour), "link", link)
}

// Sent records one message handed to the transport for delivery.
func (lt *LinkTap) Sent(from, to model.ProcessID, bytes int) {
	if lt == nil {
		return
	}
	lc := lt.link(Link{from, to})
	lc.msgsSent.Inc()
	lc.bytesSent.Add(int64(bytes))
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
	lc.msgsRecv.Inc()
	lc.bytesRecv.Add(int64(bytes))
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
	c, ok := lc.drops.Load(reason)
	if !ok {
		c, _ = lc.drops.LoadOrStore(reason, lt.reg.Counter(obs.Label(
			lt.linkLabel(MetricLinkMessagesDropped, lc.name), "reason", reason)).Scoped())
	}
	c.(*obs.Counter).Inc()
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
	lc.reconnects.Inc()
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
	lc.retries.Inc()
	lt.aRetries.Inc()
	lt.rec.Record(Record{Cat: CatNet, Kind: "retry", Transport: lt.flavour,
		Link: lc.name})
}

// Totals returns the transport's aggregate accounting: the sums of its
// links' (the high-water mark is the highest link's).
func (lt *LinkTap) Totals() LinkTotals {
	var t LinkTotals
	if lt == nil {
		return t
	}
	lt.mu.RLock()
	defer lt.mu.RUnlock()
	for _, lc := range lt.links {
		l := lc.totals()
		t.MsgsSent += l.MsgsSent
		t.BytesSent += l.BytesSent
		t.MsgsReceived += l.MsgsReceived
		t.BytesReceived += l.BytesReceived
		t.Dropped += l.Dropped
		t.Reconnects += l.Reconnects
		t.Retries += l.Retries
		t.QueueHighWater = max(t.QueueHighWater, l.QueueHighWater)
	}
	return t
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
		out[l] = lc.totals()
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
	c.Heartbeats = c.ControlMessages
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
