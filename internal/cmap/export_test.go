package cmap

// SetIfAbsent stores value under key only if the key is not already present.
// It reports whether the value was stored.
func (m *Map) SetIfAbsent(key, value string) bool {
	s := m.shardForHash(fnv32(key))
	s.mu.Lock()
	_, ok := s.m[key]
	if !ok {
		s.m[key] = entry{v: value}
		m.count.Add(1)
	}
	s.mu.Unlock()
	return !ok
}
