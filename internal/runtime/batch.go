package runtime

import (
	"encoding/binary"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Batcher metric names. Flushes are labelled by what triggered them so the
// exposition endpoint shows whether a workload is count-bound (healthy
// amortization) or sweep-bound (traffic too sparse to fill a batch).
const (
	MetricBatcherFlushes = "ssfd_batcher_flushes_total" // labelled {reason="count"|"sweep"|"close"}
	MetricBatcherFrames  = "ssfd_batcher_frames_total"
)

// maxBatch flushes a link once this many frames are pending. Anything short
// of it waits for the owner's Flush.
const maxBatch = 32

// BatcherConfig configures a Batcher.
type BatcherConfig struct {
	// Metrics receives the batcher's counters. Nil uses obs.Default.
	Metrics *obs.Registry
}

// Batcher is one sender's outbound link buffer: it coalesces frames per
// destination into wire batch containers and sends them on the endpoint it
// was built over. A link is flushed when maxBatch frames are pending, at the
// owner's Flush and at Close — there is no timer, so a frame waits for
// whichever comes first. A flush holding a single frame is sent bare:
// un-batched traffic is byte-identical with or without the Batcher, so any
// receiver that drains packets through wire.SplitBatch reads either.
//
// Each link appends its frames to one staging buffer that it reuses for
// every batch; a flush copies the container out into an exactly sized
// packet and surrenders that to the transport, so a batch costs one
// allocation of the bytes it sends. The staging buffer never leaves the
// Batcher.
//
// A Batcher has one owner and is not safe for concurrent use: it holds no
// lock and starts no goroutine. The engine gives every shard worker its own
// Batcher per node, so a round packet only ever carries the frames of one
// worker's instances, and the shared failure detector keeps the raw
// endpoint: control traffic is latency-sensitive (a delayed heartbeat is a
// false suspicion) and already amortized by being per-process.
type Batcher struct {
	inner   packetSender
	pending []linkPending // indexed by destination process id
	closed  bool

	flushCount *obs.Counter
	flushSweep *obs.Counter
	flushClose *obs.Counter
	frames     *obs.Counter
}

// linkPending is one destination's unsent frames: a batch container being
// built in a staging buffer the link keeps across flushes.
type linkPending struct {
	staged []byte
	count  int
}

// packet copies the pending frames out into a fresh, exactly sized packet —
// the lone frame bare, several in their container — and empties the
// staging buffer for the next batch. The packet is surrendered (not
// recycled): the inner transport may hold a reference to it until
// delivery.
func (p *linkPending) packet() []byte {
	out := p.staged
	if p.count == 1 {
		_, n := binary.Uvarint(out[1:]) // skip the marker and the frame's length
		out = out[1+n:]
	}
	pkt := make([]byte, len(out))
	copy(pkt, out)
	p.staged, p.count = p.staged[:0], 0
	return pkt
}

// packetSender is the part of a Transport a Batcher uses.
type packetSender interface {
	Send(to model.ProcessID, data []byte) error
	Close() error
}

// NewBatcher buffers sends to inner per link.
func NewBatcher(inner packetSender, cfg BatcherConfig) *Batcher {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	l := func(reason string) *obs.Counter {
		return reg.Counter(obs.Label(MetricBatcherFlushes, "reason", reason))
	}
	return &Batcher{
		inner:      inner,
		flushCount: l("count"),
		flushSweep: l("sweep"),
		flushClose: l("close"),
		frames:     reg.Counter(MetricBatcherFrames),
	}
}

// Send queues one frame for to. The frame is copied into the destination's
// staging buffer, so the caller may reuse data immediately.
func (b *Batcher) Send(to model.ProcessID, data []byte) error {
	if b.closed {
		return ErrClosed
	}
	for int(to) >= len(b.pending) {
		b.pending = append(b.pending, linkPending{})
	}
	p := &b.pending[to]
	p.staged = wire.AppendToBatch(p.staged, data)
	p.count++
	if p.count >= maxBatch {
		return b.flush(to, b.flushCount)
	}
	return nil
}

// Flush sends every pending frame now. The engine's shard worker calls it
// at the end of each sweep, so a round's messages leave together.
func (b *Batcher) Flush() error { return b.flushAll(b.flushSweep) }

// Close flushes pending traffic and closes the inner transport.
func (b *Batcher) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	err := b.flushAll(b.flushClose)
	if cerr := b.inner.Close(); err == nil {
		err = cerr
	}
	return err
}

// flush sends destination to's pending frames as one packet.
func (b *Batcher) flush(to model.ProcessID, reason *obs.Counter) error {
	p := &b.pending[to]
	reason.Inc()
	b.frames.Add(int64(p.count))
	return b.inner.Send(to, p.packet())
}

// flushAll flushes every destination with pending frames.
func (b *Batcher) flushAll(reason *obs.Counter) error {
	var err error
	for to := range b.pending {
		if b.pending[to].count == 0 {
			continue
		}
		if ferr := b.flush(model.ProcessID(to), reason); err == nil {
			err = ferr
		}
	}
	return err
}
