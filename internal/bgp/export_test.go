package bgp

// Frozen reports whether Freeze has been called.
func (t *Table) Frozen() bool { return t.frozen.Load() }
