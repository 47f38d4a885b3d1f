package resolvers

import (
	"net/netip"
)

// EmptySet returns a set with no entries, for tests and custom lists.
func EmptySet() *Set { return &Set{m: make(map[netip.Addr]struct{})} }
