package runtime

import (
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Batcher metric names. Flushes are labelled by what triggered them so the
// exposition endpoint shows whether a workload is count-bound (healthy
// amortization) or timer-bound (traffic too sparse to batch).
const (
	MetricBatcherFlushes = "ssfd_batcher_flushes_total" // labelled {reason="count"|"timer"|"close"}
	MetricBatcherFrames  = "ssfd_batcher_frames_total"
)

// BatcherConfig tunes per-link send batching.
type BatcherConfig struct {
	// MaxBatch flushes a link once this many frames are pending
	// (default 32).
	MaxBatch int
	// FlushEvery is the period of the background flusher, which sends
	// whatever is pending at each tick (default 500µs): a frame nothing else
	// flushes waits one period for company, plus however late the tick
	// fires — up to a millisecond in an otherwise idle process. The flusher
	// parks after a tick that saw no Send and the next Send restarts it, so
	// an idle batcher wakes nobody.
	FlushEvery time.Duration
	// Metrics receives the batcher's counters. Nil uses obs.Default.
	Metrics *obs.Registry
}

// Batcher wraps a Transport and coalesces outbound frames per destination
// into wire batch containers, flushing a link when MaxBatch frames are
// pending or the FlushEvery timer fires. A flush holding a single frame is
// sent bare — un-batched traffic is byte-identical with or without the
// wrapper, so a Batcher can front any envelope stream whose receiver drains
// packets through wire.SplitBatch.
//
// The engine routes per-instance round traffic through a Batcher but gives
// the shared failure detector the raw endpoint: control traffic is
// latency-sensitive (a delayed heartbeat is a false suspicion) and already
// amortized by being per-process.
type Batcher struct {
	inner Transport
	cfg   BatcherConfig

	mu      sync.Mutex
	pending []linkPending // indexed by destination process id
	closed  bool
	sent    bool // a Send since the flusher's last tick
	parked  bool // the flusher stopped its ticker and waits for kick

	kick chan struct{} // 1-buffered: the Send that found the flusher parked
	done chan struct{}
	wg   sync.WaitGroup

	flushCount *obs.Counter
	flushTimer *obs.Counter
	flushClose *obs.Counter
	frames     *obs.Counter
}

// linkPending is one destination's unsent frames. The first frame is kept
// bare so a single-frame flush skips the container; the second arrival
// promotes both into a batch buffer.
type linkPending struct {
	first []byte
	batch []byte
	count int
}

// detach hands the pending buffer to the caller and resets the link. The
// flushed slice is surrendered (not recycled): the inner transport may hold
// a reference to it until delivery, so reusing it for the next batch would
// corrupt in-flight packets.
func (p *linkPending) detach() []byte {
	var out []byte
	if p.count == 1 {
		out, p.first = p.first, nil
	} else {
		out, p.batch = p.batch, nil
	}
	p.count = 0
	return out
}

var _ Transport = (*Batcher)(nil)

// NewBatcher wraps inner with per-link send batching. The wrapper owns a
// background flusher goroutine; Close joins it and flushes what is pending.
func NewBatcher(inner Transport, cfg BatcherConfig) *Batcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 500 * time.Microsecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	l := func(reason string) *obs.Counter {
		return reg.Counter(obs.Label(MetricBatcherFlushes, "reason", reason))
	}
	b := &Batcher{
		inner:      inner,
		cfg:        cfg,
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		flushCount: l("count"),
		flushTimer: l("timer"),
		flushClose: l("close"),
		frames:     reg.Counter(MetricBatcherFrames),
	}
	b.wg.Add(1)
	go b.flushLoop()
	return b
}

// LocalID implements Transport.
func (b *Batcher) LocalID() model.ProcessID { return b.inner.LocalID() }

// Recv implements Transport. Receiving is untouched — batching is a
// send-side concern; the peer's Batcher (or bare sender) decides what
// arrives here.
func (b *Batcher) Recv() <-chan Packet { return b.inner.Recv() }

// Send implements Transport. The frame is copied into the destination's
// pending buffer, so the caller may reuse data immediately.
func (b *Batcher) Send(to model.ProcessID, data []byte) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	for int(to) >= len(b.pending) {
		b.pending = append(b.pending, linkPending{})
	}
	p := &b.pending[to]
	switch p.count {
	case 0:
		p.first = append(p.first[:0], data...)
	case 1:
		p.batch = wire.AppendToBatch(p.batch[:0], p.first)
		p.batch = wire.AppendToBatch(p.batch, data)
	default:
		p.batch = wire.AppendToBatch(p.batch, data)
	}
	p.count++
	b.frames.Inc()
	b.sent = true
	if b.parked {
		b.parked = false
		b.kick <- struct{}{} // never blocks: one kick per park
	}
	if p.count >= b.cfg.MaxBatch {
		return b.flushLocked(to, b.flushCount)
	}
	b.mu.Unlock()
	return nil
}

// Flush sends every pending frame immediately. The engine calls it at the
// end of a shard sweep so a round's last messages never wait out the timer.
func (b *Batcher) Flush() error {
	b.mu.Lock()
	return b.flushAllLocked(b.flushCount)
}

// Close flushes pending traffic, stops the flusher and closes the inner
// transport.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	err := b.flushAllLocked(b.flushClose)
	close(b.done)
	b.wg.Wait()
	if cerr := b.inner.Close(); err == nil {
		err = cerr
	}
	return err
}

// flushLocked sends destination to's pending buffer. It is called with
// b.mu held and releases it (the inner Send must not run under the lock:
// a TCP endpoint can block there, and the flusher would deadlock with
// concurrent Sends).
func (b *Batcher) flushLocked(to model.ProcessID, reason *obs.Counter) error {
	out := b.pending[to].detach()
	b.mu.Unlock()
	reason.Inc()
	return b.inner.Send(to, out)
}

// flushAllLocked drains every destination with pending frames. Called with
// b.mu held; releases it.
func (b *Batcher) flushAllLocked(reason *obs.Counter) error {
	type out struct {
		to   model.ProcessID
		data []byte
	}
	var outs []out
	for to := range b.pending {
		p := &b.pending[to]
		if p.count == 0 {
			continue
		}
		outs = append(outs, out{model.ProcessID(to), p.detach()})
	}
	b.mu.Unlock()
	var err error
	for _, o := range outs {
		reason.Inc()
		if serr := b.inner.Send(o.to, o.data); err == nil {
			err = serr
		}
	}
	return err
}

// flushLoop is the background timer flush. Everything sent before a tick is
// flushed by it, so a tick that saw no Send since the one before leaves
// nothing pending: the flusher stops its ticker and parks until the next
// Send kicks it.
func (b *Batcher) flushLoop() {
	defer b.wg.Done()
	ticker := time.NewTicker(b.cfg.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			b.mu.Lock()
			if b.closed {
				b.mu.Unlock()
				return
			}
			if b.sent {
				b.sent = false
				_ = b.flushAllLocked(b.flushTimer)
				continue
			}
			b.parked = true
			b.mu.Unlock()
			ticker.Stop()
			select {
			case <-b.kick:
				ticker.Reset(b.cfg.FlushEvery)
			case <-b.done:
				return
			}
		case <-b.done:
			return
		}
	}
}
