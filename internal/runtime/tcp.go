package runtime

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
)

// TCPNetwork is a full-mesh TCP realization of Transport over localhost:
// every endpoint listens on an ephemeral port; connections are dialed
// lazily on first send and identified by a uvarint handshake carrying the
// dialer's process id. Each frame is a uvarint length prefix followed by
// the payload bytes. Each inbound connection's reader hands its packets to
// the endpoint's receiver.
//
// Resilience: each ordered link is owned by a writer goroutine with a
// bounded send queue. A failed dial or write closes the connection and
// retries with exponential backoff plus seeded jitter, re-dialing and
// draining the queue on reconnect; a frame that exhausts its retry budget
// is dropped and counted ({transport="tcp"} dropped/retries/reconnects
// counters). Send therefore never blocks on a sick peer — the queue
// absorbs the outage, and overflow is documented link loss.
//
// The live experiments default to ChanNetwork (deterministic delays); the
// TCP transport exists to demonstrate the same protocols over a real
// network stack and is exercised by the integration tests, the chaos
// tests, and the livecluster example.
type TCPNetwork struct {
	n int

	mu        sync.Mutex
	closed    bool
	listeners []net.Listener
	addrs     []string
	inboxes   []*inbox
	links     map[linkKey]*tcpLink
	wg        sync.WaitGroup
	done      chan struct{}

	tm *netobs.LinkTap
}

type linkKey struct{ from, to model.ProcessID }

// A frame gets maxAttempts dial+write attempts before it is dropped. The
// first retry waits baseBackoff, doubling per attempt up to maxBackoff; each
// delay gets ±50% jitter, seeded from the link's identity, so a mesh of
// retrying links does not thunder in lock-step. Close interrupts a backoff.
const (
	maxAttempts = 8
	baseBackoff = 2 * time.Millisecond
	maxBackoff  = 250 * time.Millisecond
)

// TCPOption configures a TCPNetwork.
type TCPOption func(*tcpOptions)

type tcpOptions struct {
	metrics *obs.Registry
}

// WithTCPMetrics redirects the mesh's message/byte counters (labelled
// {transport="tcp"}) to reg instead of obs.Default.
func WithTCPMetrics(reg *obs.Registry) TCPOption {
	return func(o *tcpOptions) { o.metrics = reg }
}

// NewTCPNetwork starts n listeners on 127.0.0.1 and returns the mesh.
func NewTCPNetwork(n int, opts ...TCPOption) (*TCPNetwork, error) {
	options := tcpOptions{metrics: obs.Default}
	for _, opt := range opts {
		opt(&options)
	}
	nw := &TCPNetwork{
		n:         n,
		listeners: make([]net.Listener, n+1),
		addrs:     make([]string, n+1),
		inboxes:   make([]*inbox, n+1),
		links:     make(map[linkKey]*tcpLink),
		done:      make(chan struct{}),
		tm:        netobs.NewLinkTap(options.metrics, "tcp", nil),
	}
	for i := 1; i <= n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = nw.Close()
			return nil, fmt.Errorf("runtime: TCP listen: %w", err)
		}
		nw.listeners[i] = l
		nw.addrs[i] = l.Addr().String()
		nw.inboxes[i] = newInbox(model.ProcessID(i), nw.tm, 1024)
		nw.wg.Add(1)
		go nw.acceptLoop(model.ProcessID(i), l)
	}
	return nw, nil
}

// Telemetry returns the mesh's per-link telemetry tap.
func (nw *TCPNetwork) Telemetry() *netobs.LinkTap { return nw.tm }

// acceptLoop accepts inbound connections for endpoint id and spawns reader
// goroutines.
func (nw *TCPNetwork) acceptLoop(id model.ProcessID, l net.Listener) {
	defer nw.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		nw.wg.Add(1)
		go nw.readLoop(id, conn)
	}
}

// readLoop reads the handshake then frames, handing each packet to the
// endpoint's receiver. A read error (remote close, reset mid-frame) just ends
// the loop: the sending side owns reconnection.
func (nw *TCPNetwork) readLoop(id model.ProcessID, conn net.Conn) {
	defer nw.wg.Done()
	defer func() { _ = conn.Close() }()
	nw.wg.Add(1)
	go func() { // owned watchdog: unblock pending reads on mesh teardown
		defer nw.wg.Done()
		<-nw.done
		_ = conn.Close()
	}()
	br := bufio.NewReader(conn) // an io.ByteReader for ReadUvarint, an io.Reader for ReadFull
	from64, err := binary.ReadUvarint(br)
	if err != nil {
		return
	}
	from := model.ProcessID(from64)
	for {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return
		}
		buf := make([]byte, l)
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		nw.inboxes[id].deliver(from, buf)
	}
}

// Endpoint returns process id's transport.
func (nw *TCPNetwork) Endpoint(id model.ProcessID) Transport {
	return &tcpEndpoint{nw: nw, inbox: nw.inboxes[id]}
}

// Close tears the mesh down: listeners, links, readers, writers.
func (nw *TCPNetwork) Close() error {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil
	}
	nw.closed = true
	close(nw.done)
	for i := 1; i <= nw.n; i++ {
		if nw.listeners[i] != nil {
			_ = nw.listeners[i].Close()
		}
	}
	links := make([]*tcpLink, 0, len(nw.links))
	for _, l := range nw.links {
		links = append(links, l)
	}
	nw.mu.Unlock()
	for _, l := range links {
		l.closeConn()
	}
	nw.wg.Wait()
	return nil
}

// BreakConnections abruptly closes every established outgoing connection —
// the chaos hook the adversity tests (and experiments) use to exercise
// reconnection. In-flight frames may be lost; subsequent sends re-dial
// with backoff and drain their queues.
func (nw *TCPNetwork) BreakConnections() {
	nw.mu.Lock()
	links := make([]*tcpLink, 0, len(nw.links))
	for _, l := range nw.links {
		links = append(links, l)
	}
	nw.mu.Unlock()
	for _, l := range links {
		l.closeConn()
	}
}

// send routes one frame onto the link's queue. It never blocks: a full
// queue (a peer down longer than the queue absorbs) drops the frame with a
// counter, mirroring what a real bounded send buffer does.
func (nw *TCPNetwork) send(from, to model.ProcessID, data []byte) error {
	if !to.Valid(nw.n) {
		return fmt.Errorf("runtime: TCP send to invalid destination %v", to)
	}
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return ErrClosed
	}
	key := linkKey{from, to}
	link := nw.links[key]
	if link == nil {
		link = newTCPLink(nw, from, to)
		nw.links[key] = link
		nw.wg.Add(1)
		go link.writeLoop()
	}
	nw.mu.Unlock()

	frame := binary.AppendUvarint(nil, uint64(len(data)))
	frame = append(frame, data...)
	select {
	case link.queue <- frame:
		nw.tm.Sent(from, to, len(data))
		nw.tm.QueueDepth(from, to, len(link.queue))
		return nil
	default:
		nw.tm.Dropped(from, to, netobs.DropOverflow)
		return nil
	}
}

// tcpLink is one ordered sender→receiver connection, owned by its
// writeLoop goroutine; connMu only guards the conn pointer so Close and
// BreakConnections can sever it from outside.
type tcpLink struct {
	nw       *TCPNetwork
	from, to model.ProcessID
	queue    chan []byte
	rng      *rand.Rand // jitter; only touched by writeLoop

	connMu sync.Mutex
	conn   net.Conn
}

func newTCPLink(nw *TCPNetwork, from, to model.ProcessID) *tcpLink {
	seed := (int64(from) * 7919) ^ (int64(to) * 104729)
	return &tcpLink{
		nw:    nw,
		from:  from,
		to:    to,
		queue: make(chan []byte, 1024), // absorbs a peer's outage; overflow drops the newest frame (send)
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// closeConn severs the link's current connection (if any).
func (l *tcpLink) closeConn() {
	l.connMu.Lock()
	if l.conn != nil {
		_ = l.conn.Close()
		l.conn = nil
	}
	l.connMu.Unlock()
}

// setConn publishes a fresh connection.
func (l *tcpLink) setConn(c net.Conn) {
	l.connMu.Lock()
	l.conn = c
	l.connMu.Unlock()
}

// current returns the published connection.
func (l *tcpLink) current() net.Conn {
	l.connMu.Lock()
	defer l.connMu.Unlock()
	return l.conn
}

// backoff sleeps the attempt's jittered exponential delay; false on mesh
// close.
func (l *tcpLink) backoff(attempt int) bool {
	d := baseBackoff << uint(attempt)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	// ±50% jitter, seeded per link.
	d = d/2 + time.Duration(l.rng.Int63n(int64(d)))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-l.nw.done:
		return false
	}
}

// ensureConn returns the live connection, dialing (with handshake) if the
// link is down.
func (l *tcpLink) ensureConn() (net.Conn, error) {
	if c := l.current(); c != nil {
		return c, nil
	}
	c, err := net.Dial("tcp", l.nw.addrs[l.to])
	if err != nil {
		return nil, err
	}
	hs := binary.AppendUvarint(nil, uint64(l.from))
	if _, err := c.Write(hs); err != nil {
		_ = c.Close()
		return nil, err
	}
	l.setConn(c)
	l.nw.tm.Reconnect(l.from, l.to)
	return c, nil
}

// writeLoop drains the queue, dialing and re-dialing as needed. Each frame
// gets maxAttempts tries across connection generations; then it is dropped
// with a counter and the loop moves on — one poisoned frame must not dam
// the link forever.
func (l *tcpLink) writeLoop() {
	defer l.nw.wg.Done()
	for {
		var frame []byte
		select {
		case <-l.nw.done:
			return
		case frame = <-l.queue:
		}
		for attempt := 0; ; attempt++ {
			if attempt >= maxAttempts {
				l.nw.tm.Dropped(l.from, l.to, netobs.DropGiveUp)
				break
			}
			if attempt > 0 {
				l.nw.tm.Retry(l.from, l.to)
				if !l.backoff(attempt - 1) {
					return
				}
			}
			conn, err := l.ensureConn()
			if err != nil {
				continue
			}
			if _, err := conn.Write(frame); err != nil {
				l.closeConn()
				continue
			}
			break
		}
	}
}

type tcpEndpoint struct {
	nw *TCPNetwork
	*inbox
}

var _ Transport = (*tcpEndpoint)(nil)

// LocalID implements Transport.
func (e *tcpEndpoint) LocalID() model.ProcessID { return e.id }

// Send implements Transport.
func (e *tcpEndpoint) Send(to model.ProcessID, data []byte) error {
	return e.nw.send(e.id, to, data)
}

// SendAfter is Send with extra in-flight delay (faults.Transport): the frame
// waits on a runtime timer, with no goroutine, for its link's queue. Close
// waits the timer out, and the send it then makes is refused.
func (e *tcpEndpoint) SendAfter(to model.ProcessID, data []byte, extra time.Duration) error {
	nw := e.nw
	if extra <= 0 || !to.Valid(nw.n) {
		return nw.send(e.id, to, data) // refuses an invalid destination
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.closed {
		return ErrClosed
	}
	nw.wg.Add(1) // under nw.mu and before closed: Close waits for the timer
	time.AfterFunc(extra, func() {
		defer nw.wg.Done()
		_ = nw.send(e.id, to, data)
	})
	return nil
}

// Close implements Transport (endpoints share the mesh's lifetime).
func (e *tcpEndpoint) Close() error { return nil }
