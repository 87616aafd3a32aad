package rpc

// queuedLen reads the admission queue depth under the admitter's lock.
func (s *Server) queuedLen() int {
	s.adm.mu.Lock()
	defer s.adm.mu.Unlock()
	return s.adm.queued
}
