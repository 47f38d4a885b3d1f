package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// NetFlow v5 wire constants.
const (
	v5Version    = 5
	v5HeaderLen  = 24
	v5RecordLen  = 48
	v5MaxRecords = 30 // per Cisco spec, keeps datagrams under typical MTU
)

// Errors returned by the v5 codec.
var (
	ErrV5Short   = errors.New("netflow: v5 packet shorter than header")
	ErrV5Version = errors.New("netflow: not a v5 packet")
	ErrV5Count   = errors.New("netflow: v5 count disagrees with length")
	ErrV5TooMany = errors.New("netflow: v5 count exceeds 30 records")
)

// AppendV5Flows parses a v5 export datagram and appends its records to dst
// as neutral FlowRecords, converted straight off the wire — the collector's
// ingest path. It never stages a record through the full 48-byte wire
// layout (most of whose fields the neutral record never carries) and
// rebuilds the header timestamp once per datagram instead of once per
// record; at line rate, where batched reads have already amortized the
// syscall, that staging copy is a measurable share of the per-record cost.
// On error dst is returned exactly as passed in, never partially extended.
func AppendV5Flows(pkt []byte, dst []FlowRecord) ([]FlowRecord, error) {
	if len(pkt) < v5HeaderLen {
		return dst, ErrV5Short
	}
	if binary.BigEndian.Uint16(pkt) != v5Version {
		return dst, ErrV5Version
	}
	count := binary.BigEndian.Uint16(pkt[2:])
	if count > v5MaxRecords {
		return dst, ErrV5TooMany
	}
	want := v5HeaderLen + int(count)*v5RecordLen
	if len(pkt) != want {
		return dst, fmt.Errorf("%w: have %d bytes, count %d wants %d", ErrV5Count, len(pkt), count, want)
	}
	ts := time.Unix(int64(binary.BigEndian.Uint32(pkt[8:])), int64(binary.BigEndian.Uint32(pkt[12:])))
	for i := 0; i < int(count); i++ {
		o := v5HeaderLen + i*v5RecordLen
		dst = append(dst, FlowRecord{
			Timestamp: ts,
			SrcIP:     netip.AddrFrom4([4]byte(pkt[o : o+4])),
			DstIP:     netip.AddrFrom4([4]byte(pkt[o+4 : o+8])),
			SrcPort:   binary.BigEndian.Uint16(pkt[o+32:]),
			DstPort:   binary.BigEndian.Uint16(pkt[o+34:]),
			Proto:     pkt[o+38],
			Packets:   uint64(binary.BigEndian.Uint32(pkt[o+16:])),
			Bytes:     uint64(binary.BigEndian.Uint32(pkt[o+20:])),
		})
	}
	return dst, nil
}
