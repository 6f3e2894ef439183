package runtime

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
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

// haveClock reports whether the platform makes kernel clocks.
func haveClock() bool {
	c, err := newClock()
	if err == nil {
		_ = c.Close()
	}
	return err == nil
}

// needClock skips the test where the platform has no kernel clock.
func needClock(t *testing.T) {
	t.Helper()
	if !haveClock() {
		t.Skip("no kernel clock on this platform")
	}
}

// clockOf reads inbox to's clock and whether its drainer is blocked on it.
func clockOf(nw *ChanNetwork, to model.ProcessID) (c *os.File, ticking bool) {
	q := &nw.queues[to]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.clock, q.ticking
}

// awaitTicking waits until inbox to's drain goroutine is blocked on its
// clock, and returns the clock.
func awaitTicking(t *testing.T, nw *ChanNetwork, to model.ProcessID) *os.File {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if c, ticking := clockOf(nw, to); ticking {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("inbox %v never waited on its clock", to)
		}
	}
}

// clockRemaining reads how long c has to run, off the timerfd's fdinfo.
func clockRemaining(t *testing.T, c *os.File) time.Duration {
	t.Helper()
	info, err := os.ReadFile(fmt.Sprintf("/proc/self/fdinfo/%d", c.Fd()))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		var sec, nsec int64
		if _, err := fmt.Sscanf(line, "it_value: (%d, %d)", &sec, &nsec); err == nil {
			return time.Duration(sec)*time.Second + time.Duration(nsec)
		}
	}
	t.Fatalf("no it_value in the clock's fdinfo:\n%s", info)
	return 0
}

// openFDs counts the process's open file descriptors; ok is false where
// /proc/self/fd does not exist.
func openFDs() (n int, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	return len(fds), err == nil
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
// loss and never arrives. Close drops the packet still in flight and counts
// it, so sends equal deliveries plus drops.
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
	if got := dropsByReason(reg, netobs.DropClosed); got != 1 {
		t.Errorf("closed drops = %d, want 1", got)
	}
	if tot := nw.Telemetry().Totals(); tot.MsgsSent != tot.MsgsReceived+tot.Dropped {
		t.Errorf("totals %+v after Close, want sent = received + dropped", tot)
	}
}

// TestChanNetworkSendAfter: a packet held back with extra delay waits in the
// delivery queue, so a plain send right behind it overtakes it, and it
// arrives no sooner than its extra delay.
func TestChanNetworkSendAfter(t *testing.T) {
	const extra = 2 * time.Millisecond
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), Delay: func(_, _ model.ProcessID, _ []byte) time.Duration {
		return 0
	}})
	defer func() { _ = nw.Close() }()
	src, dst := nw.Endpoint(1).(faults.Transport), nw.Endpoint(2)
	sent := time.Now()
	if err := src.SendAfter(2, []byte("held"), extra); err != nil {
		t.Fatal(err)
	}
	if err := src.Send(2, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if pkt := recvWithin(t, dst, 5*time.Second); string(pkt.Data) != "plain" {
		t.Errorf("first arrival %q, want the plain send", pkt.Data)
	}
	if pkt := recvWithin(t, dst, 5*time.Second); string(pkt.Data) != "held" {
		t.Errorf("second arrival %q, want the held packet", pkt.Data)
	}
	if waited := time.Since(sent); waited < extra {
		t.Errorf("held packet arrived %v after it was sent, want ≥ %v", waited, extra)
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
// meant when every packet had its own goroutine — one Int63n(MaxDelay) per
// accepted packet, in send order.
func TestChanNetworkSeedPinsDelays(t *testing.T) {
	pinned := []time.Duration{43955, 531224, 473942, 557379, 786506, 117713} // seed 7, MaxDelay 1ms
	nw := NewChanNetwork(3, ChanConfig{Seed: 7, MaxDelay: time.Millisecond, Metrics: obs.NewRegistry()})
	defer nw.Close()
	for i, want := range pinned {
		nw.mu.Lock()
		got := nw.delay(1, model.ProcessID(2+i%2), nil)
		nw.mu.Unlock()
		if got != want {
			t.Errorf("draw %d = %v, want %v", i, got, want)
		}
	}
}

// TestChanNetworkGoroutinesBoundedByInboxes: ten thousand packets in flight
// hold one goroutine per inbox, not one each, and one clock; Close drops
// them, returns at once and leaves no goroutine or file descriptor behind;
// Send afterwards is refused.
func TestChanNetworkGoroutinesBoundedByInboxes(t *testing.T) {
	const n, packets = 4, 10000
	goruntime.GC()
	before := goruntime.NumGoroutine()
	fdsBefore, haveFDs := openFDs()
	nw := NewChanNetwork(n, ChanConfig{Delay: hookDelay, Metrics: obs.NewRegistry()})
	if got := goruntime.NumGoroutine(); got != before {
		t.Errorf("an idle network holds %d goroutines", got-before)
	}
	for i := 0; i < packets; i++ {
		from := model.ProcessID(1 + i%n)
		if err := nw.Endpoint(from).Send(model.ProcessID(1+(i+1)%n), []byte{0xff}); err != nil {
			t.Fatal(err)
		}
	}
	if haveClock() { // round traffic an hour out: every inbox waits on its clock
		for i := 1; i <= n; i++ {
			awaitTicking(t, nw, model.ProcessID(i))
		}
	}
	if got := goruntime.NumGoroutine() - before; got > n {
		t.Errorf("%d packets in flight hold %d goroutines, want ≤ %d", packets, got, n)
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
	if fds, _ := openFDs(); haveFDs && fds != fdsBefore {
		t.Errorf("%d file descriptors open after Close, want the %d before the network", fds, fdsBefore)
	}
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
// timer — no clock is ever made for them — and the network is back to no
// goroutine once they have arrived.
func TestChanNetworkControlNeverPaces(t *testing.T) {
	goruntime.GC()
	before := goruntime.NumGoroutine()
	nw := NewChanNetwork(2, ChanConfig{Seed: 3, Metrics: obs.NewRegistry()})
	defer func() { _ = nw.Close() }()
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
	waitGoroutines(t, before)
	if c, _ := clockOf(nw, 2); c != nil {
		t.Error("control-only traffic made the inbox a clock")
	}
}

// TestChanNetworkRoundBehindControlIsPaced: an inbox holding one heartbeat
// sleeps on its timer; a round packet filed behind it — not the earliest, so
// no wake-up on that account — moves the inbox onto its clock, armed to the
// heartbeat's due time, the earliest. Close in the middle of that wait
// returns promptly and joins the drain goroutine.
func TestChanNetworkRoundBehindControlIsPaced(t *testing.T) {
	needClock(t)
	goruntime.GC()
	before := goruntime.NumGoroutine()
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), Delay: func(_, _ model.ProcessID, data []byte) time.Duration {
		if wire.PeekControl(data) {
			return 10 * time.Minute
		}
		return 20 * time.Minute
	}})
	if err := nw.Endpoint(1).Send(2, heartbeat(t, 1)); err != nil {
		t.Fatal(err)
	}
	if rounds, queued := roundsInFlight(nw, 2); rounds != 0 || queued != 1 {
		t.Fatalf("after one heartbeat: %d round packets of %d queued, want 0 of 1", rounds, queued)
	}
	if c, _ := clockOf(nw, 2); c != nil {
		t.Fatal("a heartbeat alone made the inbox a clock")
	}

	frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: 1, Kind: wire.KindNull, Instance: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Endpoint(1).Send(2, frame); err != nil {
		t.Fatal(err)
	}
	c := awaitTicking(t, nw, 2)
	if left, lo, hi := clockRemaining(t, c), 9*time.Minute, 10*time.Minute; left < lo || left > hi {
		t.Errorf("the clock expires in %v, want the heartbeat's due time (under 10m), not the round packet's", left)
	}
	if rounds, queued := roundsInFlight(nw, 2); rounds != 1 || queued != 2 {
		t.Errorf("%d round packets of %d queued, want 1 of 2", rounds, queued)
	}

	closed := make(chan struct{})
	go func() { _ = nw.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited out a clock's wait")
	}
	waitGoroutines(t, before)
}

// TestChanNetworkRoundCountSettles: the count of round packets in flight is
// back to zero once the last of them was delivered, dropped on a full inbox
// or lost to the delay hook — and the drain goroutine leaves with it.
func TestChanNetworkRoundCountSettles(t *testing.T) {
	goruntime.GC()
	before := goruntime.NumGoroutine()
	nw := NewChanNetwork(2, ChanConfig{Delay: hookDelay, Buffer: 2, Metrics: obs.NewRegistry()})
	defer func() { _ = nw.Close() }()
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

// TestChanNetworkRoundTrafficOnTime: in an idle process, round traffic is
// handed over when it falls due. A timer there fires ≈ 800µs late at this
// delay, so the bound fails if round traffic falls back to the timer.
func TestChanNetworkRoundTrafficOnTime(t *testing.T) {
	needClock(t)
	const delay, packets = 300 * time.Microsecond, 200
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), Delay: func(_, _ model.ProcessID, _ []byte) time.Duration {
		return delay
	}})
	defer func() { _ = nw.Close() }()
	late := make([]time.Duration, packets)
	for i := range late {
		sent := time.Now()
		if err := nw.Endpoint(1).Send(2, []byte{0, byte(i)}); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, nw.Endpoint(2), 5*time.Second)
		late[i] = time.Since(sent) - delay
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if p50 := late[packets/2]; p50 >= 250*time.Microsecond {
		t.Errorf("median lateness %v at a %v delay, want < 250µs (p90 %v)", p50, delay, late[packets*9/10])
	}
}

// TestChanNetworkCloseRacesSend: senders re-arm their destinations' clocks
// while Close closes them, and no arm or read ever fails — a timerfd_settime
// on a closed descriptor would (EBADF), and the inbox would give its clock
// up. No descriptor outlives its network.
func TestChanNetworkCloseRacesSend(t *testing.T) {
	needClock(t)
	const n = 3
	fdsBefore, _ := openFDs()
	clocks := 0
	for iter := 0; iter < 30; iter++ {
		nw := NewChanNetwork(n, ChanConfig{MaxDelay: 500 * time.Microsecond, Buffer: 64, Metrics: obs.NewRegistry()})
		var senders sync.WaitGroup
		for from := 1; from <= n; from++ {
			senders.Add(1)
			go func(ep Transport) {
				defer senders.Done()
				for i := 0; ; i++ {
					if err := ep.Send(model.ProcessID(1+i%n), []byte{0}); err != nil {
						return
					}
				}
			}(nw.Endpoint(model.ProcessID(from)))
		}
		time.Sleep(time.Duration(iter%4) * time.Millisecond)
		_ = nw.Close()
		senders.Wait()
		for to := 1; to <= n; to++ {
			q := &nw.queues[to]
			q.mu.Lock()
			if q.noClock {
				t.Errorf("run %d: inbox %d gave up its clock: an arm or read failed", iter, to)
			}
			if q.clock != nil {
				clocks++
			}
			q.mu.Unlock()
		}
	}
	if clocks == 0 {
		t.Fatal("no inbox ever waited on its clock")
	}
	if fds, ok := openFDs(); ok && fds != fdsBefore {
		t.Errorf("%d file descriptors open after the networks closed, want %d", fds, fdsBefore)
	}
}

// listenHandover checks Listen's handover on a two-node network: a packet
// that reached Recv's channel before Listen reaches the function exactly
// once, and after Listen the channel receives nothing.
func listenHandover(t *testing.T, nw interface {
	Endpoint(model.ProcessID) Transport
}) {
	t.Helper()
	src, dst := nw.Endpoint(1), nw.Endpoint(2)
	if err := src.Send(2, []byte("early")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(dst.Recv()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the early packet never reached the channel")
		}
	}
	var mu sync.Mutex
	got := map[string]int{}
	dst.Listen(func(pkt Packet) {
		mu.Lock()
		got[string(pkt.Data)]++
		mu.Unlock()
	})
	if err := src.Send(2, []byte("late")); err != nil {
		t.Fatal(err)
	}
	seen := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(got)
	}
	for deadline := time.Now().Add(5 * time.Second); seen()["late"] == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the late packet never reached the function")
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a stray second delivery
	if g := seen(); g["early"] != 1 || g["late"] != 1 || len(g) != 2 {
		t.Errorf("the function received %v, want early and late once each", g)
	}
	if n := len(dst.Recv()); n != 0 {
		t.Errorf("Recv's channel holds %d packets after Listen, want 0", n)
	}
}

func TestChanNetworkListenHandover(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry()})
	defer func() { _ = nw.Close() }()
	listenHandover(t, nw)
}

func TestTCPNetworkListenHandover(t *testing.T) {
	nw, err := NewTCPNetwork(2, WithTCPMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nw.Close() }()
	listenHandover(t, nw)
}
