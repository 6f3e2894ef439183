package runtime

import (
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// recvFrames drains one packet from t and splits it into frames.
func recvFrames(tb testing.TB, tr Transport, timeout time.Duration) [][]byte {
	tb.Helper()
	select {
	case pkt := <-tr.Recv():
		var frames [][]byte
		if err := wire.SplitBatch(pkt.Data, func(f []byte) error {
			frames = append(frames, append([]byte(nil), f...))
			return nil
		}); err != nil {
			tb.Fatalf("split received packet: %v", err)
		}
		return frames
	case <-time.After(timeout):
		tb.Fatalf("no packet within %v", timeout)
		return nil
	}
}

// TestBatcherCountFlush: a link flushes itself at its 32nd pending frame, in
// one packet that carries the frames unaltered and in order.
func TestBatcherCountFlush(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), MaxDelay: 100 * time.Microsecond})
	defer nw.Close()
	reg := obs.NewRegistry()
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{Metrics: reg})
	defer b.Close()
	countFlushes := reg.Counter(obs.Label(MetricBatcherFlushes, "reason", "count"))

	var sent [][]byte
	for i := 1; i <= 32; i++ {
		frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: i, Kind: wire.KindNull, Instance: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, frame)
		if err := b.Send(2, frame); err != nil {
			t.Fatal(err)
		}
		if want := int64(i / 32); countFlushes.Value() != want {
			t.Fatalf("after %d frames: %d count flushes, want %d", i, countFlushes.Value(), want)
		}
	}
	frames := recvFrames(t, nw.Endpoint(2), 2*time.Second)
	if len(frames) != 32 {
		t.Fatalf("received %d frames, want 32 in one batch", len(frames))
	}
	for i, f := range frames {
		if string(f) != string(sent[i]) {
			t.Fatalf("frame %d altered in flight", i)
		}
	}
}

func TestBatcherExplicitFlush(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), MaxDelay: 100 * time.Microsecond})
	defer nw.Close()
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{Metrics: obs.NewRegistry()})
	defer b.Close()

	for i := 1; i <= 2; i++ {
		frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: i, Kind: wire.KindNull})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Send(2, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	frames := recvFrames(t, nw.Endpoint(2), 2*time.Second)
	if len(frames) != 2 {
		t.Fatalf("explicit flush delivered %d frames, want 2", len(frames))
	}
}

// recordingTransport keeps every packet sent through it and starts no
// goroutine.
type recordingTransport struct{ sent [][]byte }

func (r *recordingTransport) LocalID() model.ProcessID { return 1 }
func (r *recordingTransport) Listen(func(Packet))      {}
func (r *recordingTransport) Recv() <-chan Packet      { return nil }
func (r *recordingTransport) Close() error             { return nil }
func (r *recordingTransport) Send(_ model.ProcessID, data []byte) error {
	r.sent = append(r.sent, data)
	return nil
}

// TestBatcherFlushSingleFrameIsBare: a lone frame leaves at the owner's
// Flush, bare — the container wrapper would cost 2 bytes on every unbatched
// message — and each flush is labelled by what triggered it.
func TestBatcherFlushSingleFrameIsBare(t *testing.T) {
	reg := obs.NewRegistry()
	tr := &recordingTransport{}
	b := NewBatcher(tr, BatcherConfig{Metrics: reg})
	frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: 9, Kind: wire.KindNull})
	if err != nil {
		t.Fatal(err)
	}
	send := func(to model.ProcessID) {
		if err := b.Send(to, frame); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxBatch; i++ { // the last fills link 2, which flushes itself
		send(2)
	}
	send(3)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(tr.sent) != 2 || !wire.IsBatch(tr.sent[0]) || string(tr.sent[1]) != string(frame) {
		t.Fatalf("after the count flush and a Flush: packets %x, want a batch then the bare frame %x", tr.sent, frame)
	}
	send(2)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if len(tr.sent) != 3 || string(tr.sent[2]) != string(frame) {
		t.Fatalf("Close sent %x, want the pending bare frame", tr.sent[2:])
	}
	for reason, want := range map[string]int64{"count": 1, "sweep": 1, "close": 1} {
		if got := reg.Counter(obs.Label(MetricBatcherFlushes, "reason", reason)).Value(); got != want {
			t.Errorf("%s flushes = %d, want %d", reason, got, want)
		}
	}
	if got := reg.Counter(MetricBatcherFrames).Value(); got != maxBatch+2 {
		t.Errorf("frames = %d, want %d", got, maxBatch+2)
	}
}

// TestBatcherOneAllocPerBatch: a link stages its frames in a buffer it keeps,
// so a full batch costs the one exactly sized packet it surrenders to the
// transport and nothing else.
func TestBatcherOneAllocPerBatch(t *testing.T) {
	b := NewBatcher(discardTransport{}, BatcherConfig{Metrics: obs.NewRegistry()})
	frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: 1, Kind: wire.KindD, Instance: 1 << 20,
		Payload: consensus.DMsg{V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < maxBatch; i++ {
			if err := b.Send(2, frame); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 1 {
		t.Errorf("%v allocations per %d-frame batch, want 1", allocs, maxBatch)
	}
	tr := &recordingTransport{}
	b = NewBatcher(tr, BatcherConfig{Metrics: obs.NewRegistry()})
	for i := 0; i < maxBatch+1; i++ {
		if err := b.Send(2, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, pkt := range tr.sent {
		if cap(pkt) != len(pkt) {
			t.Errorf("a %d-byte packet carries a %d-byte buffer", len(pkt), cap(pkt))
		}
	}
	if len(tr.sent) != 2 || wire.BatchLen(tr.sent[0]) != maxBatch || string(tr.sent[1]) != string(frame) {
		t.Errorf("packets %x, want a full batch then the bare frame", tr.sent)
	}
}

// discardTransport drops every packet.
type discardTransport struct{}

func (discardTransport) Close() error                       { return nil }
func (discardTransport) Send(model.ProcessID, []byte) error { return nil }

// goroutinesRunning counts the scheduled goroutines, other than the
// caller's, whose stack mentions fn.
func goroutinesRunning(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:goruntime.Stack(buf, true)]
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // the caller's stack comes first
		if strings.Contains(g, fn) {
			count++
		}
	}
	return count
}

// TestBatcherStartsNoGoroutine: the batcher is its owner's code, not a
// service — construction, Send, Flush and Close run on the caller's
// goroutine and leave none behind.
func TestBatcherStartsNoGoroutine(t *testing.T) {
	before := goruntime.NumGoroutine()
	b := NewBatcher(&recordingTransport{}, BatcherConfig{Metrics: obs.NewRegistry()})
	frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: 1, Kind: wire.KindNull})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := b.Send(model.ProcessID(2+i%3), frame); err != nil {
			t.Fatal(err)
		}
	}
	if n := goroutinesRunning("Batcher"); n != 0 || goruntime.NumGoroutine() > before {
		t.Errorf("after 100 Sends: %d goroutines in the batcher, %d in all (%d before)", n, goruntime.NumGoroutine(), before)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if goruntime.NumGoroutine() > before {
		t.Errorf("after Close: %d goroutines, %d before", goruntime.NumGoroutine(), before)
	}
}

func TestBatcherCloseFlushesAndRejects(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), MaxDelay: 100 * time.Microsecond})
	defer nw.Close()
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{Metrics: obs.NewRegistry()})

	frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: 1, Kind: wire.KindNull})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recvFrames(t, nw.Endpoint(2), 2*time.Second); len(got) != 1 {
		t.Fatalf("close flushed %d frames, want 1", len(got))
	}
	if err := b.Send(2, frame); err != ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestBatcherInFlightIsolation: a flushed buffer must not be reused while
// the transport may still reference it — later Sends into the same link
// must not corrupt an in-flight batch (run under -race to make the
// aliasing visible).
func TestBatcherInFlightIsolation(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), MaxDelay: 200 * time.Microsecond})
	defer nw.Close()
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{Metrics: obs.NewRegistry()})
	defer b.Close()

	const batches = 50
	want := make([][]byte, 0, maxBatch*batches)
	for i := 0; i < batches; i++ {
		for j := 0; j < maxBatch; j++ {
			frame, err := wire.Encode(wire.Envelope{
				From: 1, To: 2, Round: maxBatch*i + j + 1, Kind: wire.KindNull, Instance: uint64(i),
			})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, frame)
			if err := b.Send(2, frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := make([][]byte, 0, len(want))
	deadline := time.After(5 * time.Second)
	for len(got) < len(want) {
		select {
		case pkt := <-nw.Endpoint(2).Recv():
			if err := wire.SplitBatch(pkt.Data, func(f []byte) error {
				got = append(got, append([]byte(nil), f...))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("received %d/%d frames", len(got), len(want))
		}
	}
	// The channel network delivers packets with independent random delays,
	// so batches may reorder in flight — compare as multisets.
	counts := map[string]int{}
	for _, f := range want {
		counts[string(f)]++
	}
	for _, f := range got {
		counts[string(f)]--
	}
	for frame, c := range counts {
		if c != 0 {
			t.Fatalf("frame %x count off by %d — in-flight corruption", frame, c)
		}
	}
}
