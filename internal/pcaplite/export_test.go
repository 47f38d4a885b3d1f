package pcaplite

import (
	"net/netip"
)

// Truth returns the ground-truth website for a flow's source address, or ""
// when the trace never labelled it. When websites share an address, use
// TruthFor with the full flow instead.
func (t *Trace) Truth(src netip.Addr) string {
	for i := range t.Packets {
		p := &t.Packets[i]
		if !p.IsDNS && p.SrcIP == src {
			return p.Truth
		}
	}
	return ""
}
