// Package netflow implements NetFlow v5 and v9 wire codecs.
//
// FlowDNS consumes "Netflow records captured at the network ingress
// interfaces" (paper §2); each record carries at least srcIP, dstIP, a
// timestamp, and packet/byte counters. This package provides:
//
//   - a NetFlow v5 decoder (fixed 24-byte header, 48-byte records,
//     RFC-less but ubiquitous Cisco format) converting straight into
//     neutral records;
//   - a NetFlow v9 (RFC 3954) encoder/decoder with template FlowSets, data
//     FlowSets, and a per-exporter template cache, the format actually
//     exported by ISP-grade routers;
//   - the neutral FlowRecord type the correlator consumes, so that — as the
//     paper notes — "the system is not bound to NetFlow data and can be
//     adapted to use other data formats containing IP addresses and
//     timestamps".
package netflow

import (
	"net/netip"
	"time"
)

// FlowRecord is the format-neutral flow observation handed to the
// correlator. Only the fields FlowDNS uses are first-class; everything else
// stays in the wire structs.
type FlowRecord struct {
	// Timestamp is when the exporter emitted the record. Clear-up intervals
	// in the correlator advance on these timestamps, so offline replays
	// rotate exactly like live runs.
	Timestamp time.Time
	SrcIP     netip.Addr
	DstIP     netip.Addr
	SrcPort   uint16
	DstPort   uint16
	Proto     uint8
	Packets   uint64
	Bytes     uint64
}

// IsValid reports whether the record carries the fields the correlator
// needs. This is the paper's §3.3 step (2) "filter to check if they are
// valid Netflow records".
func (r *FlowRecord) IsValid() bool {
	return r.SrcIP.IsValid() && r.DstIP.IsValid() && !r.Timestamp.IsZero()
}

// Protocol numbers used across the workload and experiments.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Well-known ports for the coverage analysis (§4): DNS and DNS-over-TLS.
const (
	PortDNS = 53
	PortDoT = 853
)
