// Package runtime is the live realization of the paper's models: processes
// are goroutines, links are channels (or TCP connections), failure
// detection is a real heartbeat timeout, and the round structures of RS and
// RWS are driven by wall-clock deadlines and receive-or-suspect loops
// respectively. Where the simulation packages (rounds, step, emul) give
// exact adversarial control, this package shows the same algorithms — and
// the same separations — running under real concurrency.
//
// Lifecycle discipline: every goroutine started by this package is owned by
// a struct and joined on Close/Wait; nothing is fire-and-forget.
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Packet is a raw message as seen by a transport. It is an alias of
// wire.Packet so that transport middleware (package faults) interoperates
// with this package without an import cycle.
type Packet = wire.Packet

// Transport is one endpoint of a network: a node sends encoded envelopes
// and receives packets on a channel.
type Transport interface {
	// LocalID returns the endpoint's process identity.
	LocalID() model.ProcessID
	// Send transmits data to the destination. It never blocks on the
	// receiver; delivery is asynchronous. The caller surrenders data: a
	// transport may hold the slice until delivery (ChanNetwork does, and
	// observers keep captured packets), so it is never written or reused
	// after the call. Batcher, which copies, is the one exception.
	Send(to model.ProcessID, data []byte) error
	// Recv returns the endpoint's delivery channel. The channel is closed
	// when the transport closes.
	Recv() <-chan Packet
	// Close shuts the endpoint down and releases its goroutines.
	Close() error
}

// ErrClosed is returned by Send after the network or endpoint closed.
var ErrClosed = errors.New("runtime: transport closed")

// DelayFunc decides the in-flight delay of one message. Returning a
// negative duration drops the message (used to emulate link loss toward
// crashed processes; the models here never lose messages between live
// processes).
type DelayFunc func(from, to model.ProcessID, data []byte) time.Duration

// ChanConfig configures an in-process network.
type ChanConfig struct {
	// MinDelay and MaxDelay bound the uniform random per-message delay.
	// The defaults (0, 1ms) model a fast synchronous network. Round traffic
	// is delivered when it falls due (see paceBelow); a control packet with
	// no round traffic in flight to its inbox waits on a timer, which an
	// idle process fires up to a millisecond late.
	MinDelay, MaxDelay time.Duration
	// Seed drives the random delays.
	Seed int64
	// Delay, if set, overrides the random delay entirely — the hook tests
	// use to play the SP adversary against specific messages.
	Delay DelayFunc
	// Buffer is each endpoint's delivery queue capacity (default 1024).
	Buffer int
	// Metrics receives the transport's message/byte counters (labelled
	// {transport="chan"}). Nil uses the process-wide obs.Default registry.
	Metrics *obs.Registry
	// Flight, if set, mirrors every transport record into the flight
	// recorder.
	Flight *netobs.Recorder
}

// paceBelow is the wait a drain goroutine does not sleep through while round
// traffic is in flight: an idle Go process sleeps in the netpoller with a
// whole-millisecond timeout, so a sub-millisecond timer fires up to a
// millisecond late. It is that rounding plus margin; a longer wait arms its
// timer this much early and hands the remainder to the pacer.
const paceBelow = 1500 * time.Microsecond

// ChanNetwork is a fully connected in-process network with per-message
// delivery delays. Each destination has one delivery queue — a min-heap on
// (due time, send order) — drained by at most one goroutine per inbox. A
// queue holding only control packets sleeps on one timer armed to the
// earliest due time; one holding round traffic registers that due time with
// the network's one pacing goroutine instead, which yields in a loop and
// wakes each queue as its time comes. The goroutine count is bounded by n+1
// however many packets are in flight.
type ChanNetwork struct {
	n     int
	cfg   ChanConfig
	start time.Time // due times are offsets from it (monotonic clock)

	mu     sync.Mutex
	rng    *rand.Rand
	seq    uint64 // packets accepted so far: the send order
	closed bool

	inboxes []chan Packet
	queues  []deliveryQueue // by destination
	done    chan struct{}
	wg      sync.WaitGroup // the running drain goroutines and the pacer

	paceBelow   time.Duration // the constant of that name; tests widen it to hold a paced wait still
	paceMu      sync.Mutex
	pacing      bool // the pacer is running
	pacerStarts int  // pacers started so far (tests read it)

	tm *netobs.LinkTap
}

// delivery is one packet in flight.
type delivery struct {
	due     time.Duration // since ChanNetwork.start
	seq     uint64
	from    model.ProcessID
	control bool // one bare control frame: never worth pacing for
	data    []byte
}

func (d *delivery) before(o *delivery) bool {
	return d.due < o.due || (d.due == o.due && d.seq < o.seq)
}

// deliveryQueue is one inbox's packets in flight, earliest first. The heap is
// written out because container/heap would box every delivery through an
// interface — an allocation per packet on the path this type exists to trim.
type deliveryQueue struct {
	mu      sync.Mutex
	heap    []delivery
	rounds  int           // packets in the heap that are not control
	running bool          // a drain goroutine owns the queue
	closed  bool          // the network closed: nothing is queued or started any more
	wake    chan struct{} // 1-buffered: a push the drainer must look at, or the pacer's call
	// paced is the due time (since ChanNetwork.start, never zero) the drain
	// goroutine is waiting out on the pacer; zero when it is not.
	paced atomic.Int64
}

// signal wakes the queue's drain goroutine, if it is waiting.
func (q *deliveryQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// push files d and reports whether it is now the earliest.
func (q *deliveryQueue) push(d delivery) bool {
	if !d.control {
		q.rounds++
	}
	h := append(q.heap, d)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.heap = h
	return i == 0
}

// pop removes and returns the earliest delivery.
func (q *deliveryQueue) pop() delivery {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0], h[last] = h[last], delivery{} // drop the vacated slot's data reference
	h = h[:last]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	q.heap = h
	if !top.control {
		q.rounds--
	}
	return top
}

// NewChanNetwork builds an n-endpoint in-process network. It holds no
// goroutine until a packet is in flight.
func NewChanNetwork(n int, cfg ChanConfig) *ChanNetwork {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	nw := &ChanNetwork{
		n:       n,
		cfg:     cfg,
		start:   time.Now(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		inboxes: make([]chan Packet, n+1),
		queues:  make([]deliveryQueue, n+1),
		done:    make(chan struct{}),
		tm:      netobs.NewLinkTap(reg, "chan", cfg.Flight),

		paceBelow: paceBelow,
	}
	for i := 1; i <= n; i++ {
		nw.inboxes[i] = make(chan Packet, cfg.Buffer)
		nw.queues[i].wake = make(chan struct{}, 1)
	}
	return nw
}

// Telemetry returns the network's per-link telemetry tap.
func (nw *ChanNetwork) Telemetry() *netobs.LinkTap { return nw.tm }

// Endpoint returns process id's transport.
func (nw *ChanNetwork) Endpoint(id model.ProcessID) Transport {
	return &chanEndpoint{nw: nw, id: id}
}

// MaxDelay returns the network's delay bound — the Δ that timeout-based
// failure detection builds on. Round traffic meets it; a control packet with
// no round traffic in flight to its inbox can arrive about 1.2ms past it
// (its timer's lateness in an idle process), which a suspicion timeout of
// tens of milliseconds absorbs.
func (nw *ChanNetwork) MaxDelay() time.Duration { return nw.cfg.MaxDelay }

// delay draws one packet's in-flight delay: the hook's answer, or the next
// value of the seeded generator. Called with nw.mu held, in send order, so a
// seed fixes the delay sequence.
func (nw *ChanNetwork) delay(from, to model.ProcessID, data []byte) time.Duration {
	if nw.cfg.Delay != nil {
		return nw.cfg.Delay(from, to, data)
	}
	d := nw.cfg.MinDelay
	if span := nw.cfg.MaxDelay - nw.cfg.MinDelay; span > 0 {
		d += time.Duration(nw.rng.Int63n(int64(span)))
	}
	return d
}

// send queues a delayed delivery. The network keeps data until it is
// delivered: the caller surrenders the slice.
func (nw *ChanNetwork) send(from, to model.ProcessID, data []byte) error {
	if !to.Valid(nw.n) {
		return fmt.Errorf("runtime: send to invalid destination %v", to)
	}
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return ErrClosed
	}
	delay := nw.delay(from, to, data)
	if delay < 0 {
		nw.mu.Unlock()
		nw.tm.Sent(from, to, len(data))
		nw.tm.Dropped(from, to, netobs.DropLoss) // injected link loss: sent but never delivered
		return nil
	}
	nw.seq++
	d := delivery{due: time.Since(nw.start) + delay, seq: nw.seq, from: from, data: data}
	nw.mu.Unlock()
	d.control = wire.PeekControl(data)

	// The queue has its own lock, taken after nw.mu is released: a sender
	// waiting out a drain goroutine's pops must not stall every other link.
	q := &nw.queues[to]
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	// A drainer sleeping on its timer must look again when this packet is
	// the earliest, or the first round traffic behind a control packet.
	look := q.push(d) || (!d.control && q.rounds == 1)
	spawn := !q.running
	if spawn {
		q.running = true
		nw.wg.Add(1) // under q.mu and before q.closed: Close waits for it
	}
	q.mu.Unlock()
	nw.tm.Sent(from, to, len(data))

	switch {
	case spawn:
		go nw.drain(to)
	case look:
		q.signal()
	}
	return nil
}

// drain delivers inbox to's packets as they fall due and exits when none is
// left in flight (the next send starts another) or the network closes.
func (nw *ChanNetwork) drain(to model.ProcessID) {
	defer nw.wg.Done()
	q := &nw.queues[to]
	var timer *time.Timer // created on the first wait: a lone packet pays for one timer, armed once
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	var due []delivery
	for {
		q.mu.Lock()
		now := time.Since(nw.start)
		for len(q.heap) > 0 && q.heap[0].due <= now {
			due = append(due, q.pop())
		}
		if len(due) == 0 && len(q.heap) == 0 {
			q.running = false
			q.mu.Unlock()
			return
		}
		var wait, paced time.Duration // paced: the due time to wait out on the pacer, if any
		if len(due) == 0 {
			wait = q.heap[0].due - now
			// Round traffic in flight: the pacer takes the last paceBelow of
			// the wait, the timer whatever comes before it.
			switch {
			case q.rounds == 0:
			case wait < nw.paceBelow:
				paced = q.heap[0].due
			default:
				wait -= nw.paceBelow
			}
		}
		q.mu.Unlock()

		if len(due) > 0 {
			for i := range due {
				nw.deliver(to, &due[i])
				due[i] = delivery{}
			}
			due = due[:0]
			select {
			case <-nw.done:
				return
			default:
				continue
			}
		}
		if paced != 0 {
			q.paced.Store(int64(paced))
			nw.startPacer()
			select {
			case <-q.wake:
			case <-nw.done:
				return
			}
			q.paced.Store(0)
			continue
		}
		if timer == nil {
			timer = time.NewTimer(wait)
		} else {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
		}
		select {
		case <-timer.C:
		case <-q.wake:
		case <-nw.done:
			return
		}
	}
}

// startPacer makes sure the pacer is running. Its caller is a drain
// goroutine that has registered its due time: the pacer either sees it or
// has already given up paceMu on its way out.
func (nw *ChanNetwork) startPacer() {
	nw.paceMu.Lock()
	if !nw.pacing {
		nw.pacing = true
		nw.pacerStarts++
		nw.wg.Add(1) // the caller is itself counted, so Close cannot have finished waiting
		go nw.pace()
	}
	nw.paceMu.Unlock()
}

// pace is the network's one spinning goroutine: it wakes each registered
// queue when its due time comes, yields the processor between looks, and
// exits once no queue is registered or the network closes.
func (nw *ChanNetwork) pace() {
	defer nw.wg.Done()
	for {
		if !nw.wakeDue() {
			nw.paceMu.Lock()
			if !nw.wakeDue() {
				nw.pacing = false
				nw.paceMu.Unlock()
				return
			}
			nw.paceMu.Unlock()
		}
		select {
		case <-nw.done:
			return
		default:
		}
		goruntime.Gosched()
	}
}

// wakeDue wakes the registered queues whose time has come and reports
// whether any is still waiting.
func (nw *ChanNetwork) wakeDue() (waiting bool) {
	now := int64(time.Since(nw.start))
	for i := 1; i <= nw.n; i++ {
		q := &nw.queues[i]
		switch due := q.paced.Load(); {
		case due == 0:
		case due > now:
			waiting = true
		case q.paced.CompareAndSwap(due, 0):
			q.signal()
		}
	}
	return waiting
}

// deliver hands one due packet to its inbox.
func (nw *ChanNetwork) deliver(to model.ProcessID, d *delivery) {
	select {
	case nw.inboxes[to] <- Packet{From: d.from, Data: d.data}:
		nw.tm.Received(d.from, to, len(d.data))
		nw.tm.QueueDepth(d.from, to, len(nw.inboxes[to]))
	default:
		// Inbox full: a stalled receiver must not wedge the delivery
		// goroutine (and, transitively, Close) forever. The overflow is
		// documented link loss, visible in the dropped counter.
		nw.tm.Dropped(d.from, to, netobs.DropOverflow)
	}
}

// Close shuts the network down, dropping what is still in flight, and joins
// the drain goroutines and the pacer.
func (nw *ChanNetwork) Close() error {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil
	}
	nw.closed = true
	close(nw.done)
	nw.mu.Unlock()
	// A send that passed the closed check above may still be on its way to a
	// queue: closing each queue under its lock means it either started its
	// drain goroutine before this point or never will.
	for i := range nw.queues {
		q := &nw.queues[i]
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
	}
	nw.wg.Wait()
	return nil
}

type chanEndpoint struct {
	nw *ChanNetwork
	id model.ProcessID
}

var _ Transport = (*chanEndpoint)(nil)

// LocalID implements Transport.
func (e *chanEndpoint) LocalID() model.ProcessID { return e.id }

// Send implements Transport.
func (e *chanEndpoint) Send(to model.ProcessID, data []byte) error {
	return e.nw.send(e.id, to, data)
}

// Recv implements Transport.
func (e *chanEndpoint) Recv() <-chan Packet { return e.nw.inboxes[e.id] }

// Close implements Transport. Endpoints share the network's lifetime; a
// single endpoint close is a no-op so that one crashing node does not tear
// the network down for the others.
func (e *chanEndpoint) Close() error { return nil }
