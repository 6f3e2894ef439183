package runtime

import (
	"testing"
	"time"

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

func TestBatcherCountFlush(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), MaxDelay: 100 * time.Microsecond})
	defer nw.Close()
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{
		MaxBatch:   3,
		FlushEvery: time.Hour, // the timer must not fire; only the count threshold may flush
		Metrics:    obs.NewRegistry(),
	})
	defer b.Close()

	var sent [][]byte
	for i := 1; i <= 3; i++ {
		frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: i, Kind: wire.KindNull, Instance: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, frame)
		if err := b.Send(2, frame); err != nil {
			t.Fatal(err)
		}
	}
	frames := recvFrames(t, nw.Endpoint(2), 2*time.Second)
	if len(frames) != 3 {
		t.Fatalf("received %d frames, want 3 in one batch", len(frames))
	}
	for i, f := range frames {
		if string(f) != string(sent[i]) {
			t.Fatalf("frame %d altered in flight", i)
		}
	}
}

func TestBatcherTimerFlushSingleFrameIsBare(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), MaxDelay: 100 * time.Microsecond})
	defer nw.Close()
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{
		MaxBatch:   100,
		FlushEvery: time.Millisecond,
		Metrics:    obs.NewRegistry(),
	})
	defer b.Close()

	frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: 9, Kind: wire.KindNull})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-nw.Endpoint(2).Recv():
		// A lone frame must be flushed by the timer AND travel bare: the
		// container wrapper would cost 2 bytes on every unbatched message.
		if wire.IsBatch(pkt.Data) {
			t.Fatalf("single-frame flush arrived wrapped: %x", pkt.Data)
		}
		if string(pkt.Data) != string(frame) {
			t.Fatalf("frame altered: %x vs %x", pkt.Data, frame)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer flush never delivered the frame")
	}
}

func TestBatcherExplicitFlush(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), MaxDelay: 100 * time.Microsecond})
	defer nw.Close()
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{
		MaxBatch:   100,
		FlushEvery: time.Hour,
		Metrics:    obs.NewRegistry(),
	})
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

func TestBatcherCloseFlushesAndRejects(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), MaxDelay: 100 * time.Microsecond})
	defer nw.Close()
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{
		MaxBatch:   100,
		FlushEvery: time.Hour,
		Metrics:    obs.NewRegistry(),
	})

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
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{
		MaxBatch:   2,
		FlushEvery: time.Hour,
		Metrics:    obs.NewRegistry(),
	})
	defer b.Close()

	const batches = 50
	want := make([][]byte, 0, 2*batches)
	for i := 0; i < batches; i++ {
		for j := 0; j < 2; j++ {
			frame, err := wire.Encode(wire.Envelope{
				From: 1, To: 2, Round: 2*i + j + 1, Kind: wire.KindNull, Instance: uint64(i),
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

// awaitParked waits until b's flusher has stopped its ticker for want of
// traffic.
func awaitParked(t *testing.T, b *Batcher) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		parked := b.parked
		b.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the flusher never parked on an idle batcher")
		}
	}
}

// TestBatcherParksAndRestarts: a batcher nobody sends through parks its
// flusher; a frame sent to a parked batcher is still flushed by the timer,
// with no Flush call and no second frame to fill the batch; and Close on a
// parked batcher joins the flusher.
func TestBatcherParksAndRestarts(t *testing.T) {
	nw := NewChanNetwork(2, ChanConfig{Metrics: obs.NewRegistry(), MaxDelay: 100 * time.Microsecond})
	defer nw.Close()
	reg := obs.NewRegistry()
	b := NewBatcher(nw.Endpoint(1), BatcherConfig{MaxBatch: 100, FlushEvery: time.Millisecond, Metrics: reg})
	for round := 1; round <= 3; round++ {
		awaitParked(t, b)
		frame, err := wire.Encode(wire.Envelope{From: 1, To: 2, Round: round, Kind: wire.KindNull})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Send(2, frame); err != nil {
			t.Fatal(err)
		}
		if got := recvFrames(t, nw.Endpoint(2), 5*time.Second); len(got) != 1 || string(got[0]) != string(frame) {
			t.Fatalf("round %d: received %x, want the one frame %x", round, got, frame)
		}
	}
	if got := reg.Counter(obs.Label(MetricBatcherFlushes, "reason", "timer")).Value(); got != 3 {
		t.Errorf("timer flushes = %d, want 3: one per frame, none for an empty tick", got)
	}
	awaitParked(t, b)
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close on a parked batcher did not return")
	}
}
