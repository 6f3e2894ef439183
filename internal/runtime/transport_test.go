package runtime

import (
	"math/rand"
	goruntime "runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// hookDelay is a Delay hook that reads each packet's delay off its first
// byte, in units of 10ms; 0xff means one hour and 0xfe a drop.
func hookDelay(_, _ model.ProcessID, data []byte) time.Duration {
	switch data[0] {
	case 0xff:
		return time.Hour
	case 0xfe:
		return -1
	}
	return time.Duration(data[0]) * 10 * time.Millisecond
}

// recvWithin returns the next packet of ep, or fails the test.
func recvWithin(t *testing.T, ep Transport, d time.Duration) Packet {
	t.Helper()
	select {
	case pkt := <-ep.Recv():
		return pkt
	case <-time.After(d):
		t.Fatalf("no packet within %v", d)
		return Packet{}
	}
}

// dropsByReason reads the p1>p2 link's drop counter for one reason.
func dropsByReason(reg *obs.Registry, reason string) int64 {
	return reg.Counter(obs.Label(obs.Label(obs.Label(netobs.MetricLinkMessagesDropped,
		"transport", "chan"), "link", "p1>p2"), "reason", reason)).Value()
}

// waitGoroutines polls until the goroutine count is back to at most want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d, want ≤ %d\n%s", goruntime.NumGoroutine(), want, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// heartbeat is one bare control frame from p1 to p2, as a detector sends it.
func heartbeat(t *testing.T, seq int) []byte {
	t.Helper()
	frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: seq, Kind: wire.KindHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// pacerStarts reads how many pacing goroutines nw has started so far.
func pacerStarts(nw *ChanNetwork) int {
	nw.paceMu.Lock()
	defer nw.paceMu.Unlock()
	return nw.pacerStarts
}

// awaitPaced waits until inbox to's drain goroutine has registered a due time
// with the pacer, and returns it.
func awaitPaced(t *testing.T, nw *ChanNetwork, to model.ProcessID) time.Duration {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if due := nw.queues[to].paced.Load(); due != 0 {
			return time.Duration(due)
		}
		if time.Now().After(deadline) {
			t.Fatalf("inbox %v never registered with the pacer", to)
		}
	}
}

// roundsInFlight reads inbox to's count of undelivered round packets and its
// heap size.
func roundsInFlight(nw *ChanNetwork, to model.ProcessID) (rounds, queued int) {
	q := &nw.queues[to]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rounds, len(q.heap)
}

// TestDeliveryQueueOrder: the heap pops by due time, and by send order among
// equal due times.
func TestDeliveryQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q deliveryQueue
	var want []delivery
	for seq := uint64(1); seq <= 500; seq++ {
		d := delivery{due: time.Duration(rng.Intn(20)), seq: seq} // 20 due times: ties everywhere
		want = append(want, d)
		first := q.push(d)
		if first != (q.heap[0].seq == seq) {
			t.Fatalf("push(%+v) reported earliest=%v with %+v on top", d, first, q.heap[0])
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].due < want[j].due })
	for i, w := range want {
		if got := q.pop(); got.due != w.due || got.seq != w.seq {
			t.Fatalf("pop %d = (due %v, seq %d), want (due %v, seq %d)", i, got.due, got.seq, w.due, w.seq)
		}
	}
	if len(q.heap) != 0 {
		t.Fatalf("%d deliveries left after popping everything", len(q.heap))
	}
}

// TestChanNetworkDeliversInDueOrder: packets arrive by due time whatever
// order they were sent in, and in send order when their delays are equal.
func TestChanNetworkDeliversInDueOrder(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Delay: hookDelay, Metrics: obs.NewRegistry()})
	defer func() { _ = nw.Close() }()
	src, dst := nw.Endpoint(1), nw.Endpoint(2)
	for _, p := range []string{"\x06a", "\x02b", "\x04c", "\x02d", "\x00e", "\x04f"} {
		if err := src.Send(2, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	var got string
	for i := 0; i < 6; i++ {
		got += string(recvWithin(t, dst, 5*time.Second).Data[1:])
	}
	if got != "ebdcfa" {
		t.Errorf("arrival order %q, want %q", got, "ebdcfa")
	}
}

// TestChanNetworkLongDelayHoldsNothingBack: a packet an hour out does not
// delay one sent after it, and a dropped one (negative delay) is counted as
// loss and never arrives.
func TestChanNetworkLongDelayHoldsNothingBack(t *testing.T) {
	reg := obs.NewRegistry()
	nw := NewChanNetwork(2, ChanConfig{Delay: hookDelay, Metrics: reg})
	src, dst := nw.Endpoint(1), nw.Endpoint(2)
	for _, p := range []string{"\xffhour", "\xfelost", "\x00now"} {
		if err := src.Send(2, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if pkt := recvWithin(t, dst, 5*time.Second); string(pkt.Data[1:]) != "now" || pkt.From != 1 {
		t.Errorf("first arrival %+v, want the zero-delay packet from p1", pkt)
	}
	select {
	case pkt := <-dst.Recv():
		t.Errorf("a second packet arrived: %q", pkt.Data)
	case <-time.After(30 * time.Millisecond):
	}
	if got := dropsByReason(reg, netobs.DropLoss); got != 1 {
		t.Errorf("loss drops = %d, want 1", got)
	}
	if tot := nw.Telemetry().Totals(); tot.MsgsSent != 3 || tot.MsgsReceived != 1 || tot.Dropped != 1 {
		t.Errorf("totals %+v, want 3 sent, 1 received, 1 dropped (one still in flight)", tot)
	}
	closed := make(chan struct{})
	go func() { _ = nw.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited for the packet an hour out")
	}
}

// TestChanNetworkOverflowThenRecovers: with a 1-deep inbox and nobody
// receiving, the excess is counted as overflow — and the queue keeps
// delivering once the receiver is back.
func TestChanNetworkOverflowThenRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	nw := NewChanNetwork(2, ChanConfig{Delay: hookDelay, Buffer: 1, Metrics: reg})
	defer func() { _ = nw.Close() }()
	src, dst := nw.Endpoint(1), nw.Endpoint(2)
	for i := 0; i < 5; i++ {
		if err := src.Send(2, []byte{0, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); dropsByReason(reg, netobs.DropOverflow) < 4; {
		if time.Now().After(deadline) {
			t.Fatalf("overflow drops = %d, want 4", dropsByReason(reg, netobs.DropOverflow))
		}
		time.Sleep(time.Millisecond)
	}
	if pkt := recvWithin(t, dst, time.Second); pkt.Data[1] != 0 {
		t.Errorf("the inbox held packet %d, want the first", pkt.Data[1])
	}
	for i := 5; i < 8; i++ {
		if err := src.Send(2, []byte{0, byte(i)}); err != nil {
			t.Fatal(err)
		}
		if pkt := recvWithin(t, dst, 5*time.Second); pkt.Data[1] != byte(i) {
			t.Errorf("after the overflow: got packet %d, want %d", pkt.Data[1], i)
		}
	}
	if got := dropsByReason(reg, netobs.DropOverflow); got != 4 {
		t.Errorf("overflow drops = %d, want 4", got)
	}
	if got := dropsByReason(reg, netobs.DropLoss); got != 0 {
		t.Errorf("loss drops = %d, want 0", got)
	}
}

// TestChanNetworkSeedPinsDelays: a seed still means the delay sequence it
// meant when every packet had its own goroutine — one Int63n(MaxDelay −
// MinDelay) per accepted packet, in send order.
func TestChanNetworkSeedPinsDelays(t *testing.T) {
	pinned := []time.Duration{43955, 531224, 473942, 557379, 786506, 117713} // seed 7, span 1ms
	for _, lo := range []time.Duration{0, 3 * time.Millisecond} {
		nw := NewChanNetwork(3, ChanConfig{Seed: 7, MinDelay: lo, MaxDelay: lo + time.Millisecond, Metrics: obs.NewRegistry()})
		for i, want := range pinned {
			nw.mu.Lock()
			got := nw.delay(1, model.ProcessID(2+i%2), nil)
			nw.mu.Unlock()
			if got != lo+want {
				t.Errorf("MinDelay %v, draw %d = %v, want %v", lo, i, got, lo+want)
			}
		}
		_ = nw.Close()
	}
}

// TestChanNetworkGoroutinesBoundedByInboxes: ten thousand packets in flight
// hold one goroutine per inbox and one pacer, not one each; Close drops them,
// returns at once and leaves no goroutine behind; Send afterwards is refused.
func TestChanNetworkGoroutinesBoundedByInboxes(t *testing.T) {
	const n, packets = 4, 10000
	goruntime.GC()
	before := goruntime.NumGoroutine()
	nw := NewChanNetwork(n, ChanConfig{Delay: hookDelay, Metrics: obs.NewRegistry()})
	nw.paceBelow = 2 * time.Hour // every inbox waits on the pacer, not on its timer
	if got := goruntime.NumGoroutine(); got != before {
		t.Errorf("an idle network holds %d goroutines", got-before)
	}
	for i := 0; i < packets; i++ {
		from := model.ProcessID(1 + i%n)
		if err := nw.Endpoint(from).Send(model.ProcessID(1+(i+1)%n), []byte{0xff}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		awaitPaced(t, nw, model.ProcessID(i))
	}
	if got := goruntime.NumGoroutine() - before; got > n+1 {
		t.Errorf("%d packets in flight hold %d goroutines, want ≤ %d", packets, got, n+1)
	}
	if got := pacerStarts(nw); got != 1 {
		t.Errorf("%d pacers were started for %d waiting inboxes, want 1", got, n)
	}
	start := time.Now()
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close with %d packets in flight took %v", packets, took)
	}
	if err := nw.Endpoint(1).Send(2, []byte{0}); err != ErrClosed {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	waitGoroutines(t, before)
}

// TestChanNetworkIdleQueueHoldsNoGoroutine: once nothing is in flight the
// drain goroutine is gone, and the next packet still gets delivered.
func TestChanNetworkIdleQueueHoldsNoGoroutine(t *testing.T) {
	goruntime.GC()
	before := goruntime.NumGoroutine()
	nw := NewChanNetwork(2, ChanConfig{Delay: hookDelay, Metrics: obs.NewRegistry()})
	defer func() { _ = nw.Close() }()
	for i := 0; i < 3; i++ {
		if err := nw.Endpoint(1).Send(2, []byte{0, byte(i)}); err != nil {
			t.Fatal(err)
		}
		if pkt := recvWithin(t, nw.Endpoint(2), 5*time.Second); pkt.Data[1] != byte(i) {
			t.Errorf("got packet %d, want %d", pkt.Data[1], i)
		}
		waitGoroutines(t, before)
	}
}

// TestChanNetworkControlNeverPaces: heartbeats alone are delivered off the
// timer — no pacer is ever started for them, however wide the pacing window —
// and the network is back to no goroutine once they have arrived.
func TestChanNetworkControlNeverPaces(t *testing.T) {
	goruntime.GC()
	before := goruntime.NumGoroutine()
	nw := NewChanNetwork(2, ChanConfig{Seed: 3, Metrics: obs.NewRegistry()})
	defer func() { _ = nw.Close() }()
	nw.paceBelow = time.Hour
	const beats = 50
	for seq := 1; seq <= beats; seq++ {
		if err := nw.Endpoint(1).Send(2, heartbeat(t, seq)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < beats; i++ {
		if pkt := recvWithin(t, nw.Endpoint(2), 5*time.Second); !wire.PeekControl(pkt.Data) {
			t.Fatalf("received %x, want a heartbeat", pkt.Data)
		}
	}
	if got := pacerStarts(nw); got != 0 {
		t.Errorf("control-only traffic started the pacer %d times", got)
	}
	waitGoroutines(t, before)
}

// TestChanNetworkRoundBehindControlIsPaced: an inbox holding one heartbeat
// sleeps on its timer; a round packet filed behind it — not the earliest, so
// no wake-up on that account — takes the inbox off the timer, and what it
// registers with the pacer is the heartbeat's due time, the earliest.
func TestChanNetworkRoundBehindControlIsPaced(t *testing.T) {
	goruntime.GC()
	before := goruntime.NumGoroutine()
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), Delay: func(_, _ model.ProcessID, data []byte) time.Duration {
		if wire.PeekControl(data) {
			return 10 * time.Minute
		}
		return 20 * time.Minute
	}})
	nw.paceBelow = time.Hour
	if err := nw.Endpoint(1).Send(2, heartbeat(t, 1)); err != nil {
		t.Fatal(err)
	}
	if rounds, queued := roundsInFlight(nw, 2); rounds != 0 || queued != 1 {
		t.Fatalf("after one heartbeat: %d round packets of %d queued, want 0 of 1", rounds, queued)
	}
	if due, starts := nw.queues[2].paced.Load(), pacerStarts(nw); due != 0 || starts != 0 {
		t.Fatalf("a heartbeat alone registered due time %v and started %d pacers", time.Duration(due), starts)
	}

	frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: 1, Kind: wire.KindNull, Instance: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Endpoint(1).Send(2, frame); err != nil {
		t.Fatal(err)
	}
	due := awaitPaced(t, nw, 2)
	if lo, hi := 9*time.Minute, 11*time.Minute; due < lo || due > hi {
		t.Errorf("registered due time %v, want the heartbeat's (about 10m), not the round packet's", due)
	}
	if rounds, queued := roundsInFlight(nw, 2); rounds != 1 || queued != 2 {
		t.Errorf("%d round packets of %d queued, want 1 of 2", rounds, queued)
	}
	if got := pacerStarts(nw); got != 1 {
		t.Errorf("%d pacers started, want 1", got)
	}

	// Close in the middle of the paced wait returns promptly and joins both
	// the drain goroutine and the pacer.
	closed := make(chan struct{})
	go func() { _ = nw.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited out a paced wait")
	}
	waitGoroutines(t, before)
}

// TestChanNetworkRoundCountSettles: the count of round packets in flight is
// back to zero once the last of them was delivered, dropped on a full inbox
// or lost to the delay hook — and the drain goroutine and the pacer leave
// with it.
func TestChanNetworkRoundCountSettles(t *testing.T) {
	goruntime.GC()
	before := goruntime.NumGoroutine()
	nw := NewChanNetwork(2, ChanConfig{Delay: hookDelay, Buffer: 2, Metrics: obs.NewRegistry()})
	defer func() { _ = nw.Close() }()
	nw.paceBelow = time.Hour
	// Five round packets 10ms out into a 2-deep inbox nobody reads (two
	// delivered, three overflow) and one lost outright.
	for _, p := range []string{"\x01a", "\x01b", "\x01c", "\xfelost", "\x01d", "\x01e"} {
		if err := nw.Endpoint(1).Send(2, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, before) // nothing is in flight any more
	if rounds, queued := roundsInFlight(nw, 2); rounds != 0 || queued != 0 {
		t.Errorf("settled: %d round packets of %d queued, want 0 of 0", rounds, queued)
	}
	if tot := nw.Telemetry().Totals(); tot.MsgsSent != 6 || tot.MsgsReceived != 2 || tot.Dropped != 4 {
		t.Errorf("totals %+v, want 6 sent, 2 received, 4 dropped", tot)
	}
}
