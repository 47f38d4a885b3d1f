package dbl

// Reset opens a new sampling window (the paper's hourly boundary).
func (s *Sampler) Reset() {
	s.mu.Lock()
	s.seen = make(map[string]struct{})
	s.mu.Unlock()
}

// Size returns the number of distinct domains seen this window.
func (s *Sampler) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}
