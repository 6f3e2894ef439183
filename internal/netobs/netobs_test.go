package netobs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/runtime"
	"repro/internal/wire"
)

func findAlg(t *testing.T, name string) rounds.Algorithm {
	t.Helper()
	for _, a := range consensus.All() {
		if a.Name() == name {
			return a
		}
	}
	t.Fatalf("algorithm %q not registered", name)
	return nil
}

func TestWireStatsPerKind(t *testing.T) {
	reg := obs.NewRegistry()
	ws := netobs.NewWireStats(reg)

	envs := []wire.Envelope{
		{From: 1, To: 2, Round: 1, Kind: wire.KindNull},
		{From: 1, To: 2, Round: 1, Kind: wire.KindHeartbeat},
		{From: 1, To: 2, Round: 1, Kind: wire.KindW, Payload: consensus.WMsg{W: model.NewValueSet(0, 1, 2)}},
		{From: 1, To: 2, Round: 1, Kind: wire.KindD, Payload: consensus.DMsg{V: 5}},
	}
	var wantMsgs, wantBytes int64
	for _, e := range envs {
		data, err := wire.Encode(e)
		if err != nil {
			t.Fatalf("encode %v: %v", e.Kind, err)
		}
		wantMsgs++
		wantBytes += int64(len(data))
		ws.AddEncoded(e.Kind, 1, int64(len(data)))
		ws.AddDecoded(e.Kind, 1, int64(len(data)))
	}

	msgs, b := ws.Encoded()
	if msgs != wantMsgs || b != wantBytes {
		t.Fatalf("Encoded() = (%d, %d), want (%d, %d)", msgs, b, wantMsgs, wantBytes)
	}
	dm, db := ws.DataEncoded()
	if dm != wantMsgs-1 {
		t.Fatalf("DataEncoded msgs = %d, want %d (heartbeat excluded)", dm, wantMsgs-1)
	}
	if db >= b {
		t.Fatalf("DataEncoded bytes %d should be below total %d", db, b)
	}
	if hb, _ := ws.ControlEncoded(); hb != 1 {
		t.Fatalf("ControlEncoded msgs = %d, want 1 (the heartbeat)", hb)
	}

	per := ws.PerKind()
	if len(per) != 4 {
		t.Fatalf("PerKind() has %d entries, want 4: %+v", len(per), per)
	}
	for _, kt := range per {
		if kt.Encoded != 1 || kt.Decoded != 1 {
			t.Fatalf("kind %s: encoded=%d decoded=%d, want 1/1", kt.Kind, kt.Encoded, kt.Decoded)
		}
		if kt.EncodedBytes != kt.DecodedBytes {
			t.Fatalf("kind %s: encode/decode byte mismatch: %d vs %d", kt.Kind, kt.EncodedBytes, kt.DecodedBytes)
		}
	}

	// The registry families show the stats' own counts.
	snap := reg.Snapshot()
	if got := snap.Counter(obs.Label(netobs.MetricWireEncoded, "kind", "W")); got != 1 {
		t.Fatalf("registry W encode counter = %d, want 1", got)
	}

	// A nil receiver and an unknown kind are both safely ignored.
	var nilWS *netobs.WireStats
	nilWS.AddEncoded(wire.KindW, 1, 3)
	nilWS.AddDecoded(wire.KindW, 1, 3)
	ws.AddEncoded(wire.Kind(200), 1, 3)
	ws.AddDecoded(wire.Kind(200), 1, 3)
	if m, _ := ws.Encoded(); m != wantMsgs {
		t.Fatalf("unknown kind leaked into totals: %d", m)
	}
	if nilWS.PerKind() != nil {
		t.Fatal("nil WireStats should have no kinds")
	}
}

// TestSharedRegistryKeepsOwnTotals: two runs' instruments on one registry
// each report their own counts while the families sum both, and
// instruments without a registry still count.
func TestSharedRegistryKeepsOwnTotals(t *testing.T) {
	reg := obs.NewRegistry()
	for _, r := range []*obs.Registry{reg, nil} {
		ws1, ws2 := netobs.NewWireStats(r), netobs.NewWireStats(r)
		lt1, lt2 := netobs.NewLinkTap(r, "chan"), netobs.NewLinkTap(r, "chan")
		ws1.AddEncoded(wire.KindW, 2, 20)
		ws2.AddEncoded(wire.KindW, 3, 30)
		lt1.Sent(1, 2, 10)
		lt2.Sent(1, 2, 7)
		lt2.Sent(2, 1, 5)
		lt1.Dropped(1, 2, netobs.DropLoss)
		lt2.Dropped(1, 2, netobs.DropLoss)
		lt2.Dropped(1, 2, netobs.DropOverflow)
		if m, b := ws1.Encoded(); m != 2 || b != 20 {
			t.Errorf("registry %v: ws1 = (%d, %d), want (2, 20)", r != nil, m, b)
		}
		if got := lt2.Totals(); got.MsgsSent != 2 || got.BytesSent != 12 || got.Dropped != 2 {
			t.Errorf("registry %v: lt2 totals = %+v, want 2 msgs, 12 B, 2 dropped", r != nil, got)
		}
		if got := lt2.PerLink()[netobs.Link{From: 1, To: 2}]; got.MsgsSent != 1 || got.Dropped != 2 {
			t.Errorf("registry %v: lt2 p1>p2 = %+v, want 1 sent, 2 dropped", r != nil, got)
		}
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		obs.Label(netobs.MetricWireEncoded, "kind", "W"):                                                                                   5,
		obs.Label(netobs.MetricTransportMessagesSent, "transport", "chan"):                                                                 3,
		obs.Label(netobs.MetricTransportMessagesDropped, "transport", "chan"):                                                              3,
		obs.Label(obs.Label(obs.Label(netobs.MetricLinkMessagesDropped, "transport", "chan"), "link", "p1>p2"), "reason", netobs.DropLoss): 2,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestClusterCostConservation is the no-faults conservation property: with
// every encode followed by exactly one transport send, the sum of per-link
// bytes equals the sum over message types of size × count, and after the
// network has closed, sends equal deliveries plus transport drops (what was
// still in flight counts as dropped, reason "closed").
func TestClusterCostConservation(t *testing.T) {
	for _, kind := range []rounds.ModelKind{rounds.RS, rounds.RWS} {
		t.Run(kind.String(), func(t *testing.T) {
			alg := findAlg(t, "FloodSet")
			if kind == rounds.RWS {
				alg = findAlg(t, "FloodSetWS")
			}
			cfg := runtime.EngineConfig{
				Kind: kind, T: 1,
				Metrics: obs.NewRegistry(),
			}
			if kind == rounds.RS {
				cfg.RoundDuration = 10 * time.Millisecond
			}
			cr, err := runtime.RunCluster(alg, cfg, []model.Value{3, 1, 2}, runtime.OpenOptions{})
			if err != nil {
				t.Fatalf("RunCluster: %v", err)
			}
			if cr.Stats.Cost == nil {
				t.Fatal("run reported no cost summary")
			}
			if cr.Stats.Cost.Decisions != 3 {
				t.Fatalf("decisions = %d, want 3", cr.Stats.Cost.Decisions)
			}
			if cr.Stats.Cost.MessagesPerDecision <= 0 || cr.Stats.Cost.BytesPerDecision <= 0 {
				t.Fatalf("per-decision figures not populated: %+v", cr.Stats.Cost)
			}

			// Conservation: Σ per-link bytes == Σ per-type size × count.
			var wireMsgs, wireBytes int64
			for _, kt := range cr.WireKinds {
				wireMsgs += kt.Encoded
				wireBytes += kt.EncodedBytes
			}
			tot := cr.Links.Totals()
			if tot.MsgsSent != wireMsgs || tot.BytesSent != wireBytes {
				t.Fatalf("transport sent (%d msgs, %d B) != wire encoded (%d msgs, %d B)",
					tot.MsgsSent, tot.BytesSent, wireMsgs, wireBytes)
			}
			var linkMsgs, linkBytes int64
			for _, l := range cr.Links.SortedLinks() {
				lt := cr.Links.PerLink()[l]
				linkMsgs += lt.MsgsSent
				linkBytes += lt.BytesSent
			}
			if linkMsgs != wireMsgs || linkBytes != wireBytes {
				t.Fatalf("per-link sums (%d msgs, %d B) != wire encoded (%d msgs, %d B)",
					linkMsgs, linkBytes, wireMsgs, wireBytes)
			}
			if tot.MsgsSent != tot.MsgsReceived+tot.Dropped {
				t.Fatalf("sent %d != received %d + dropped %d",
					tot.MsgsSent, tot.MsgsReceived, tot.Dropped)
			}

			// The cost gauges landed on the run's registry.
			snap := cfg.Metrics.Snapshot()
			if got := snap.Gauges[netobs.MetricCostDecisions]; got != 3 {
				t.Fatalf("decisions gauge = %d, want 3", got)
			}
			if snap.Gauges[netobs.MetricCostMessagesPerDecisionMilli] <= 0 {
				t.Fatal("messages/decision gauge not set")
			}
		})
	}
}

// TestInjectorConservation drives a deterministic send sequence through a
// drop+dup injector and checks the injector-level conservation law:
// transport sends == logical sends − injected drops + injected dups, and
// every transport send resolves into a delivery or, if the network closed
// first, a drop.
func TestInjectorConservation(t *testing.T) {
	reg := obs.NewRegistry()
	nw := runtime.NewChanNetwork(2, runtime.ChanConfig{
		MaxDelay: 100 * time.Microsecond, Metrics: reg,
	})
	inj := faults.NewInjector(faults.Config{
		Seed:    42,
		Default: faults.LinkFaults{Drop: 0.3, Duplicate: 0.2},
		Metrics: reg,
	})
	ep := inj.Wrap(nw.Endpoint(1).(faults.Transport))

	const sends = 500
	payload := []byte{1, 2, 0, byte(wire.KindNull)}
	for i := 0; i < sends; i++ {
		if err := ep.Send(2, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := inj.Close(); err != nil {
		t.Fatalf("injector close: %v", err)
	}
	if err := nw.Close(); err != nil {
		t.Fatalf("network close: %v", err)
	}

	snap := reg.Snapshot()
	drops := snap.Counter(obs.Label(faults.MetricDropped, "reason", "loss"))
	dups := snap.Counter(faults.MetricDuplicated)
	if drops == 0 || dups == 0 {
		t.Fatalf("seeded injector fired no faults (drops=%d dups=%d)", drops, dups)
	}
	tot := nw.Telemetry().Totals()
	if want := int64(sends) - drops + dups; tot.MsgsSent != want {
		t.Fatalf("transport sends = %d, want %d (%d logical − %d drops + %d dups)",
			tot.MsgsSent, want, sends, drops, dups)
	}
	if tot.MsgsReceived+tot.Dropped != tot.MsgsSent {
		t.Fatalf("received %d + dropped %d != sent %d", tot.MsgsReceived, tot.Dropped, tot.MsgsSent)
	}
}

func TestLinkTapQueueHighWaterAndResilience(t *testing.T) {
	reg := obs.NewRegistry()
	lt := netobs.NewLinkTap(reg, "test")
	lt.QueueDepth(1, 2, 3)
	lt.QueueDepth(1, 2, 9)
	lt.QueueDepth(1, 2, 5) // high water stays 9
	lt.Reconnect(1, 2)
	lt.Retry(1, 2)
	lt.Retry(1, 2)
	lt.Dropped(1, 2, netobs.DropGiveUp)

	tot := lt.Totals()
	if tot.QueueHighWater != 9 {
		t.Fatalf("queue high water = %d, want 9", tot.QueueHighWater)
	}
	if tot.Reconnects != 1 || tot.Retries != 2 || tot.Dropped != 1 {
		t.Fatalf("resilience totals: %+v", tot)
	}
	per := lt.PerLink()[netobs.Link{From: 1, To: 2}]
	if per.QueueHighWater != 9 || per.Retries != 2 {
		t.Fatalf("per-link totals: %+v", per)
	}
	snap := reg.Snapshot()
	name := obs.Label(obs.Label(netobs.MetricLinkQueueHighWater, "transport", "test"), "link", "p1>p2")
	if got := snap.Gauges[name]; got != 9 {
		t.Fatalf("high-water gauge = %d, want 9", got)
	}
	dropName := obs.Label(obs.Label(obs.Label(netobs.MetricLinkMessagesDropped,
		"transport", "test"), "link", "p1>p2"), "reason", netobs.DropGiveUp)
	if got := snap.Counter(dropName); got != 1 {
		t.Fatalf("reasoned drop counter = %d, want 1", got)
	}

	// Concurrent senders on one link (a node's detector and each worker's
	// batcher send on it): the largest depth any of them reports is the high
	// water, in the totals and in the gauge alike. Every sender reports a
	// rising ramp with a shallow depth between its steps, so a racing
	// shallow report would undercut a deeper one until the very end.
	const senders, reports = 8, 20000
	const top = senders*reports - 1
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < reports; i++ {
				lt.QueueDepth(2, 1, i*senders+g)
				lt.QueueDepth(2, 1, 1)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if got := lt.PerLink()[netobs.Link{From: 2, To: 1}].QueueHighWater; got != top {
		t.Fatalf("concurrent per-link high water = %d, want %d", got, top)
	}
	if got := lt.Totals().QueueHighWater; got != top {
		t.Fatalf("concurrent total high water = %d, want %d", got, top)
	}
	gname := obs.Label(obs.Label(netobs.MetricLinkQueueHighWater, "transport", "test"), "link", "p2>p1")
	if got := reg.Snapshot().Gauges[gname]; got != top {
		t.Fatalf("concurrent high-water gauge = %d, want %d", got, top)
	}

	// Nil taps absorb everything.
	var nilTap *netobs.LinkTap
	nilTap.Sent(1, 2, 4)
	nilTap.Received(1, 2, 4)
	nilTap.Dropped(1, 2, netobs.DropLoss)
	nilTap.QueueDepth(1, 2, 1)
	nilTap.Reconnect(1, 2)
	nilTap.Retry(1, 2)
	if nilTap.PerLink() != nil || nilTap.SortedLinks() != nil {
		t.Fatal("nil tap should report nothing")
	}
	if (nilTap.Totals() != netobs.LinkTotals{}) {
		t.Fatal("nil tap totals should be zero")
	}
}

func TestComputeCost(t *testing.T) {
	reg := obs.NewRegistry()
	ws := netobs.NewWireStats(reg)
	ws.AddEncoded(wire.KindNull, 4, 16)
	ws.AddEncoded(wire.KindHeartbeat, 1, 4)

	// Without a link tap the encode totals stand in for transport totals.
	cost := netobs.ComputeCost(2, ws, nil)
	if cost.Messages != 5 || cost.DataMessages != 4 || cost.Heartbeats != 1 {
		t.Fatalf("cost totals: %+v", cost)
	}
	if cost.MessagesPerDecision != 2.5 || cost.DataMessagesPerDecision != 2 {
		t.Fatalf("per-decision: %+v", cost)
	}
	// The control split carries the amortization headline: the lone
	// heartbeat is control traffic, spread over both decisions.
	if cost.ControlMessages != 1 || cost.ControlBytes == 0 {
		t.Fatalf("control totals: %+v", cost)
	}
	if cost.ControlMessagesPerDecision != 0.5 {
		t.Fatalf("control per-decision: %+v", cost)
	}
	if !strings.Contains(cost.String(), "msgs/decision") || !strings.Contains(cost.String(), "control:") {
		t.Fatalf("String() = %q", cost.String())
	}

	// Zero decisions: totals reported, ratios zero.
	zero := netobs.ComputeCost(0, ws, nil)
	if zero.MessagesPerDecision != 0 || !strings.Contains(zero.String(), "no decisions") {
		t.Fatalf("zero-decision cost: %+v / %q", zero, zero.String())
	}
	var nilCost *obs.CostSummary
	if nilCost.String() != "cost: (not measured)" {
		t.Fatalf("nil cost String() = %q", nilCost.String())
	}

	netobs.PublishCost(reg, cost)
	snap := reg.Snapshot()
	if got := snap.Gauges[netobs.MetricCostMessagesPerDecisionMilli]; got != 2500 {
		t.Fatalf("messages/decision milli gauge = %d, want 2500", got)
	}
	netobs.PublishCost(nil, cost) // no-op
	netobs.PublishCost(reg, nil)  // no-op
}

func TestLinkString(t *testing.T) {
	if s := (netobs.Link{From: 3, To: 1}).String(); s != "p3>p1" {
		t.Fatalf("Link.String() = %q", s)
	}
}

// TestFlightThroughCluster: a seeded faulty cluster's flight dump carries
// its events and, from the registry, exact transport and fault totals: the
// per-link sends sum to the run's cost.
func TestFlightThroughCluster(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(nil, reg)
	cfg := runtime.EngineConfig{
		Kind: rounds.RS, T: 1,
		RoundDuration: 10 * time.Millisecond,
		Metrics:       reg,
		Events:        rec,
		Faults: &faults.Config{
			Seed:    11,
			Default: faults.LinkFaults{Drop: 0.2, Duplicate: 0.1},
		},
	}
	cr, err := runtime.RunCluster(findAlg(t, "FloodSet"), cfg, []model.Value{0, 1, 2}, runtime.OpenOptions{})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	if cr.Stats.Cost == nil || cr.Stats.Cost.Decisions == 0 {
		t.Fatalf("faulty run still decides under RS; cost = %+v", cr.Stats.Cost)
	}
	// Count from the dump file a post-mortem reads, not from the ring.
	path := t.TempDir() + "/flight.jsonl"
	if err := rec.DumpTo(path); err != nil {
		t.Fatal(err)
	}
	dump, err := obs.ReadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	decides := 0
	for _, ev := range dump.Events {
		if ev.Type == obs.EventDecide {
			decides++
		}
	}
	var sent, injected int64
	for name, v := range dump.Header.Counters {
		switch {
		case strings.HasPrefix(name, netobs.MetricLinkMessagesSent+"{"):
			sent += v
		case strings.HasPrefix(name, "ssfd_faults_"):
			injected += v
		}
	}
	if decides != 3 || injected == 0 || sent != cr.Stats.Cost.Messages {
		t.Fatalf("flight dump: %d decides (want 3), %d injected faults (want >0), %d per-link sends (want the cost's %d)",
			decides, injected, sent, cr.Stats.Cost.Messages)
	}
}

// TestKindLabelsExhaustive: every wire kind pre-registers its counter
// families so a scrape sees the full table at zero.
func TestKindLabelsExhaustive(t *testing.T) {
	reg := obs.NewRegistry()
	netobs.NewWireStats(reg)
	snap := reg.Snapshot()
	for _, k := range wire.Kinds() {
		name := obs.Label(netobs.MetricWireEncoded, "kind", k.String())
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("kind %v not pre-registered (%s missing)", k, name)
		}
	}
	if len(wire.Kinds()) != 10 {
		t.Fatalf("wire.Kinds() = %d entries, want 10", len(wire.Kinds()))
	}
}

func TestSortedLinksOrder(t *testing.T) {
	lt := netobs.NewLinkTap(obs.NewRegistry(), "chan")
	for _, l := range []netobs.Link{{From: 2, To: 1}, {From: 1, To: 3}, {From: 1, To: 2}} {
		lt.Sent(l.From, l.To, 1)
	}
	got := lt.SortedLinks()
	want := []netobs.Link{{From: 1, To: 2}, {From: 1, To: 3}, {From: 2, To: 1}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SortedLinks() = %v, want %v", got, want)
	}
}
