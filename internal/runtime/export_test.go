package runtime

// BreakConnections abruptly closes every established outgoing connection,
// so the reconnect tests can exercise re-dialing. In-flight frames may be
// lost; subsequent sends re-dial with backoff and drain their queues.
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
