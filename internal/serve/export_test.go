package serve

// Draining reports whether the server has stopped admitting proposals.
func (s *Server) Draining() bool { return s.draining.Load() }

// Clean reports whether no safety predicate ever failed.
func (m *Monitor) Clean() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.agreement == 0 && m.validity == 0
}
