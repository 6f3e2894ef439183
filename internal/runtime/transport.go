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
	"os"
	stdruntime "runtime"
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

// Transport is one endpoint of a network: a node sends encoded envelopes,
// and the network hands every packet delivered to the node to the endpoint's
// receiver.
type Transport interface {
	// LocalID returns the endpoint's process identity.
	LocalID() model.ProcessID
	// Send transmits data to the destination. It never blocks on the
	// receiver; delivery is asynchronous. The caller surrenders data: a
	// transport may hold the slice until delivery (ChanNetwork does, and
	// observers keep captured packets), so it is never written or reused
	// after the call. Batcher, which copies, is the one exception.
	Send(to model.ProcessID, data []byte) error
	// Listen makes fn the endpoint's receiver and hands it what Recv's
	// channel held; the channel receives nothing after. The network calls fn
	// on its delivery goroutines — concurrently over TCPNetwork, one per peer
	// connection — so fn must be safe for concurrent calls and never block.
	Listen(fn func(Packet))
	// Recv returns the channel an endpoint's first receiver fills; a packet
	// that finds it full is dropped as overflow. It is never closed.
	Recv() <-chan Packet
	// Close shuts the endpoint down and releases its goroutines.
	Close() error
}

// inbox is one endpoint's receive side in either network: the channel Recv
// returns, until Listen installs a function.
type inbox struct {
	id model.ProcessID
	tm *netobs.LinkTap
	ch chan Packet

	fn atomic.Pointer[func(Packet)] // nil: fill ch
	mu sync.Mutex                   // orders a fill of ch against Listen's swap and handover
}

func newInbox(id model.ProcessID, tm *netobs.LinkTap, buffer int) *inbox {
	return &inbox{id: id, tm: tm, ch: make(chan Packet, buffer)}
}

// deliver hands one packet to the current receiver and counts it. A full
// channel drops it as overflow: a stalled reader must not wedge the delivery
// goroutine (and, transitively, Close) forever.
func (in *inbox) deliver(from model.ProcessID, data []byte) {
	fn := in.fn.Load()
	if fn == nil {
		in.mu.Lock()
		if fn = in.fn.Load(); fn == nil {
			select {
			case in.ch <- Packet{From: from, Data: data}:
				in.tm.Received(from, in.id, len(data))
				in.tm.QueueDepth(from, in.id, len(in.ch))
			default:
				in.tm.Dropped(from, in.id, netobs.DropOverflow)
			}
			in.mu.Unlock()
			return
		}
		in.mu.Unlock() // Listen swapped a function in meanwhile
	}
	in.tm.Received(from, in.id, len(data))
	(*fn)(Packet{From: from, Data: data})
}

// Listen implements Transport.
func (in *inbox) Listen(fn func(Packet)) {
	var held []Packet
	in.mu.Lock()
	in.fn.Store(&fn)
	for drained := false; !drained; {
		select {
		case pkt := <-in.ch:
			held = append(held, pkt)
		default:
			drained = true
		}
	}
	in.mu.Unlock()
	for _, pkt := range held {
		fn(pkt)
	}
}

// Recv implements Transport.
func (in *inbox) Recv() <-chan Packet { return in.ch }

// ErrClosed is returned by Send after the network or endpoint closed.
var ErrClosed = errors.New("runtime: transport closed")

// DelayFunc decides the in-flight delay of one message. Returning a
// negative duration drops the message (used to emulate link loss toward
// crashed processes; the models here never lose messages between live
// processes).
type DelayFunc func(from, to model.ProcessID, data []byte) time.Duration

// ChanConfig configures an in-process network.
type ChanConfig struct {
	// MaxDelay bounds the uniform random per-message delay, drawn from
	// [0, MaxDelay). The default 1ms models a fast synchronous network.
	// Round traffic is delivered when it falls due, off a kernel clock
	// (newClock); other waits use a timer, which an idle process fires up to
	// 1ms late.
	MaxDelay time.Duration
	// Seed drives the random delays.
	Seed int64
	// Delay, if set, overrides the random delay entirely — the hook tests
	// use to play the SP adversary against specific messages.
	Delay DelayFunc
	// Buffer is the capacity of the channel each endpoint's Recv returns
	// (default 1024).
	Buffer int
	// Metrics receives the transport's message/byte counters (labelled
	// {transport="chan"}). Nil uses the process-wide obs.Default registry.
	Metrics *obs.Registry
}

// ChanNetwork is a fully connected in-process network with per-message
// delivery delays. Each destination has one delivery queue — a min-heap on
// (due time, send order) — drained by at most one goroutine per inbox, which
// hands each packet to the endpoint's receiver as it falls due; a packet a
// fault injector holds back (SendAfter) waits in the same heap. A
// queue holding only control packets sleeps on a timer armed to the earliest
// due time; one holding round traffic blocks on its own kernel clock, whose
// expiry wakes the netpoller to the microsecond, not the whole millisecond a
// timer rounds to in an idle process, and armed clockLead early. The
// goroutine count is bounded by n however many packets are in flight, held
// back or not.
type ChanNetwork struct {
	n     int
	cfg   ChanConfig
	start time.Time // due times are offsets from it (monotonic clock)

	mu     sync.Mutex
	rng    *rand.Rand
	seq    uint64 // packets accepted so far: the send order
	closed bool

	inboxes []*inbox
	queues  []deliveryQueue // by destination
	wg      sync.WaitGroup  // the running drain goroutines

	tm *netobs.LinkTap
}

// clockLead arms the kernel clock this far ahead of the earliest round
// packet: a goroutine parked on it wakes ≈ 15µs after expiry on a virtualized
// host, so waking early and yielding out the rest hands packets over nearer
// their due time, for a spin no longer than the lead.
const clockLead = 10 * time.Microsecond

// delivery is one packet in flight.
type delivery struct {
	due     time.Duration // since ChanNetwork.start
	seq     uint64
	from    model.ProcessID
	control bool // one bare control frame: never worth the kernel clock
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
	wake    chan struct{} // 1-buffered: a push the drainer on its timer must look at, or Close
	// clock is the inbox's kernel timer, made on its first wait with round
	// traffic in flight and armed or closed under mu only while the queue is
	// open; noClock: none could be made or used, so the timer it is.
	clock   *os.File
	noClock bool
	ticking bool // the drainer is blocked on clock: a push that becomes the earliest re-arms it
}

// armClock arms the queue's clock to expire wait from now, making it on
// first use, and returns it; nil means wait on the timer. Called with q.mu held.
func (q *deliveryQueue) armClock(wait time.Duration) *os.File {
	if q.clock == nil && !q.noClock {
		q.clock, _ = newClock() // nil where none can be made, given up below
	}
	if q.clock == nil || setClock(q.clock, wait) != nil {
		q.dropClock()
		return nil
	}
	q.ticking = true
	return q.clock
}

// dropClock gives the queue's clock up for good: a drainer blocked on it
// wakes and waits on its timer instead. Called with q.mu held.
func (q *deliveryQueue) dropClock() {
	_ = q.clock.Close() // a nil *os.File refuses with ErrInvalid
	q.clock, q.noClock = nil, true
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
		inboxes: make([]*inbox, n+1),
		queues:  make([]deliveryQueue, n+1),
		tm:      netobs.NewLinkTap(reg, "chan"),
	}
	for i := 1; i <= n; i++ {
		nw.inboxes[i] = newInbox(model.ProcessID(i), nw.tm, cfg.Buffer)
		nw.queues[i].wake = make(chan struct{}, 1)
	}
	return nw
}

// Telemetry returns the network's per-link telemetry tap.
func (nw *ChanNetwork) Telemetry() *netobs.LinkTap { return nw.tm }

// Endpoint returns process id's transport.
func (nw *ChanNetwork) Endpoint(id model.ProcessID) Transport {
	return &chanEndpoint{nw: nw, inbox: nw.inboxes[id]}
}

// delay draws one packet's in-flight delay: the hook's answer, or the next
// value of the seeded generator. Called with nw.mu held, in send order, so a
// seed fixes the delay sequence.
func (nw *ChanNetwork) delay(from, to model.ProcessID, data []byte) time.Duration {
	if nw.cfg.Delay != nil {
		return nw.cfg.Delay(from, to, data)
	}
	return time.Duration(nw.rng.Int63n(int64(nw.cfg.MaxDelay)))
}

// send queues a delivery due after the drawn delay plus extra. The network
// keeps data until it is delivered: the caller surrenders the slice.
func (nw *ChanNetwork) send(from, to model.ProcessID, data []byte, extra time.Duration) error {
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
	d := delivery{due: time.Since(nw.start) + delay + extra, seq: nw.seq, from: from, data: data}
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
	// A drainer blocked on its clock has it re-armed when this packet is the
	// earliest; one sleeping on its timer must look again then, or at the
	// first round traffic behind a control packet.
	first := q.push(d)
	spawn := !q.running
	switch {
	case spawn:
		q.running = true
		nw.wg.Add(1) // under q.mu and before q.closed: Close waits for it
	case q.ticking:
		if first {
			q.armClock(d.due - time.Since(nw.start) - clockLead)
		}
	case first || (!d.control && q.rounds == 1):
		q.signal()
	}
	q.mu.Unlock()
	nw.tm.Sent(from, to, len(data))
	if spawn {
		go nw.drain(to)
	}
	return nil
}

// drain hands inbox to's packets to its receiver as they fall due and exits
// when none is left in flight (the next send starts another) or the network
// closes.
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
	var ticks [8]byte // a clock read: the count of expirations, unused
	for {
		q.mu.Lock()
		q.ticking = false
		if q.closed {
			q.mu.Unlock()
			return
		}
		now := time.Since(nw.start)
		for len(q.heap) > 0 && q.heap[0].due <= now {
			due = append(due, q.pop())
		}
		if len(due) == 0 && len(q.heap) == 0 {
			q.running = false
			q.mu.Unlock()
			return
		}
		if len(due) > 0 {
			q.mu.Unlock()
			in := nw.inboxes[to]
			for i := range due {
				in.deliver(due[i].from, due[i].data)
				due[i] = delivery{}
			}
			due = due[:0]
			// Let the goroutines the receiver woke run before this one re-arms
			// its clock and blocks.
			stdruntime.Gosched()
			continue
		}
		wait := q.heap[0].due - now
		var c *os.File // round traffic in flight: wait on the kernel clock
		if q.rounds > 0 {
			if wait <= clockLead {
				// Too close to park: yield until it falls due.
				q.mu.Unlock()
				stdruntime.Gosched()
				continue
			}
			c = q.armClock(wait - clockLead)
		}
		q.mu.Unlock()

		if c != nil {
			if _, err := c.Read(ticks[:]); err != nil {
				q.mu.Lock()
				if !q.closed {
					q.dropClock() // closed by a failed re-arm, or unusable
				}
				q.mu.Unlock()
			}
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
		}
	}
}

// Close shuts the network down, dropping what is still in flight (counted
// with reason DropClosed), and joins the drain goroutines.
func (nw *ChanNetwork) Close() error {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil
	}
	nw.closed = true
	nw.mu.Unlock()
	// A send that passed the closed check above may still be on its way to a
	// queue: closing each queue under its lock means it either started its
	// drain goroutine before this point or never will. Then the drainer is
	// woken wherever it waits, and no arm follows.
	for i := range nw.queues {
		q := &nw.queues[i]
		q.mu.Lock()
		q.closed = true
		_ = q.clock.Close() // nil-safe, as in dropClock
		for j := range q.heap {
			nw.tm.Dropped(q.heap[j].from, model.ProcessID(i), netobs.DropClosed)
		}
		q.heap, q.rounds = nil, 0
		q.mu.Unlock()
		q.signal()
	}
	nw.wg.Wait()
	return nil
}

type chanEndpoint struct {
	nw *ChanNetwork
	*inbox
}

var _ Transport = (*chanEndpoint)(nil)

// LocalID implements Transport.
func (e *chanEndpoint) LocalID() model.ProcessID { return e.id }

// Send implements Transport.
func (e *chanEndpoint) Send(to model.ProcessID, data []byte) error {
	return e.nw.send(e.id, to, data, 0)
}

// SendAfter is Send with extra in-flight delay on top of the drawn one
// (faults.Transport): the packet waits in its inbox's delivery queue.
func (e *chanEndpoint) SendAfter(to model.ProcessID, data []byte, extra time.Duration) error {
	return e.nw.send(e.id, to, data, extra)
}

// Close implements Transport. Endpoints share the network's lifetime; a
// single endpoint close is a no-op so that one crashing node does not tear
// the network down for the others.
func (e *chanEndpoint) Close() error { return nil }
