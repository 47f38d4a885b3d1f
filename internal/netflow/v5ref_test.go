package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// The staged v5 codec: the full 48-byte wire record, an encoder and a
// decoder that fills it. The collector decodes with AppendV5Flows; this
// codec is the independent reference its tests and fuzzer compare against,
// and the exporter side the tests build datagrams with.

var (
	ErrV5IPv6        = errors.New("netflow: v5 cannot carry IPv6 addresses")
	ErrV5RecordCount = errors.New("netflow: more than 30 records per v5 export")
)

// V5Header is the 24-byte NetFlow v5 export header.
type V5Header struct {
	Count        uint16
	SysUptimeMs  uint32
	UnixSecs     uint32
	UnixNsecs    uint32
	FlowSequence uint32
	EngineType   uint8
	EngineID     uint8
	SamplingInfo uint16
}

// V5Record is one 48-byte NetFlow v5 flow record.
type V5Record struct {
	SrcAddr  [4]byte
	DstAddr  [4]byte
	NextHop  [4]byte
	InputIf  uint16
	OutputIf uint16
	Packets  uint32
	Octets   uint32
	FirstMs  uint32 // sysuptime at flow start
	LastMs   uint32 // sysuptime at flow end
	SrcPort  uint16
	DstPort  uint16
	TCPFlags uint8
	Proto    uint8
	TOS      uint8
	SrcAS    uint16
	DstAS    uint16
	SrcMask  uint8
	DstMask  uint8
}

// EncodeV5 serializes a v5 export datagram carrying the given records.
// len(records) must be <= 30.
func EncodeV5(h V5Header, records []V5Record) ([]byte, error) {
	if len(records) > v5MaxRecords {
		return nil, ErrV5RecordCount
	}
	h.Count = uint16(len(records))
	buf := make([]byte, 0, v5HeaderLen+len(records)*v5RecordLen)
	buf = binary.BigEndian.AppendUint16(buf, v5Version)
	buf = binary.BigEndian.AppendUint16(buf, h.Count)
	buf = binary.BigEndian.AppendUint32(buf, h.SysUptimeMs)
	buf = binary.BigEndian.AppendUint32(buf, h.UnixSecs)
	buf = binary.BigEndian.AppendUint32(buf, h.UnixNsecs)
	buf = binary.BigEndian.AppendUint32(buf, h.FlowSequence)
	buf = append(buf, h.EngineType, h.EngineID)
	buf = binary.BigEndian.AppendUint16(buf, h.SamplingInfo)
	for i := range records {
		r := &records[i]
		buf = append(buf, r.SrcAddr[:]...)
		buf = append(buf, r.DstAddr[:]...)
		buf = append(buf, r.NextHop[:]...)
		buf = binary.BigEndian.AppendUint16(buf, r.InputIf)
		buf = binary.BigEndian.AppendUint16(buf, r.OutputIf)
		buf = binary.BigEndian.AppendUint32(buf, r.Packets)
		buf = binary.BigEndian.AppendUint32(buf, r.Octets)
		buf = binary.BigEndian.AppendUint32(buf, r.FirstMs)
		buf = binary.BigEndian.AppendUint32(buf, r.LastMs)
		buf = binary.BigEndian.AppendUint16(buf, r.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, r.DstPort)
		buf = append(buf, 0 /* pad1 */, r.TCPFlags, r.Proto, r.TOS)
		buf = binary.BigEndian.AppendUint16(buf, r.SrcAS)
		buf = binary.BigEndian.AppendUint16(buf, r.DstAS)
		buf = append(buf, r.SrcMask, r.DstMask, 0, 0 /* pad2 */)
	}
	return buf, nil
}

// DecodeV5 parses a v5 export datagram, allocating a fresh record slice.
func DecodeV5(pkt []byte) (V5Header, []V5Record, error) {
	return DecodeV5Into(pkt, nil)
}

// DecodeV5Into is DecodeV5 reusing dst's capacity for the decoded records:
// dst is truncated and appended to, so a collector passing its scratch back
// in (`wire, _ = DecodeV5Into(pkt, wire[:0])` style) decodes every datagram
// after the first with zero allocations. On error the returned slice is
// dst truncated — never partially filled.
func DecodeV5Into(pkt []byte, dst []V5Record) (V5Header, []V5Record, error) {
	var h V5Header
	dst = dst[:0]
	if len(pkt) < v5HeaderLen {
		return h, dst, ErrV5Short
	}
	if binary.BigEndian.Uint16(pkt) != v5Version {
		return h, dst, ErrV5Version
	}
	h.Count = binary.BigEndian.Uint16(pkt[2:])
	h.SysUptimeMs = binary.BigEndian.Uint32(pkt[4:])
	h.UnixSecs = binary.BigEndian.Uint32(pkt[8:])
	h.UnixNsecs = binary.BigEndian.Uint32(pkt[12:])
	h.FlowSequence = binary.BigEndian.Uint32(pkt[16:])
	h.EngineType = pkt[20]
	h.EngineID = pkt[21]
	h.SamplingInfo = binary.BigEndian.Uint16(pkt[22:])
	if h.Count > v5MaxRecords {
		return h, dst, ErrV5TooMany
	}
	want := v5HeaderLen + int(h.Count)*v5RecordLen
	if len(pkt) != want {
		return h, dst, fmt.Errorf("%w: have %d bytes, count %d wants %d", ErrV5Count, len(pkt), h.Count, want)
	}
	var records []V5Record
	if cap(dst) >= int(h.Count) {
		records = dst[:h.Count]
	} else {
		records = make([]V5Record, h.Count)
	}
	for i := range records {
		o := v5HeaderLen + i*v5RecordLen
		r := &records[i]
		copy(r.SrcAddr[:], pkt[o:o+4])
		copy(r.DstAddr[:], pkt[o+4:o+8])
		copy(r.NextHop[:], pkt[o+8:o+12])
		r.InputIf = binary.BigEndian.Uint16(pkt[o+12:])
		r.OutputIf = binary.BigEndian.Uint16(pkt[o+14:])
		r.Packets = binary.BigEndian.Uint32(pkt[o+16:])
		r.Octets = binary.BigEndian.Uint32(pkt[o+20:])
		r.FirstMs = binary.BigEndian.Uint32(pkt[o+24:])
		r.LastMs = binary.BigEndian.Uint32(pkt[o+28:])
		r.SrcPort = binary.BigEndian.Uint16(pkt[o+32:])
		r.DstPort = binary.BigEndian.Uint16(pkt[o+34:])
		r.TCPFlags = pkt[o+37]
		r.Proto = pkt[o+38]
		r.TOS = pkt[o+39]
		r.SrcAS = binary.BigEndian.Uint16(pkt[o+40:])
		r.DstAS = binary.BigEndian.Uint16(pkt[o+42:])
		r.SrcMask = pkt[o+44]
		r.DstMask = pkt[o+45]
	}
	return h, records, nil
}

// ToFlowRecord converts a wire v5 record plus its header timestamp into the
// neutral FlowRecord.
func (r *V5Record) ToFlowRecord(h V5Header) FlowRecord {
	ts := time.Unix(int64(h.UnixSecs), int64(h.UnixNsecs))
	return FlowRecord{
		Timestamp: ts,
		SrcIP:     netip.AddrFrom4(r.SrcAddr),
		DstIP:     netip.AddrFrom4(r.DstAddr),
		SrcPort:   r.SrcPort,
		DstPort:   r.DstPort,
		Proto:     r.Proto,
		Packets:   uint64(r.Packets),
		Bytes:     uint64(r.Octets),
	}
}

// FromFlowRecord builds a wire v5 record from a neutral record. IPv6
// addresses cannot be represented in v5 and return an error.
func FromFlowRecord(fr FlowRecord) (V5Record, error) {
	if !fr.SrcIP.Is4() || !fr.DstIP.Is4() {
		return V5Record{}, ErrV5IPv6
	}
	return V5Record{
		SrcAddr: fr.SrcIP.As4(),
		DstAddr: fr.DstIP.As4(),
		Packets: uint32(min64(fr.Packets, 0xFFFFFFFF)),
		Octets:  uint32(min64(fr.Bytes, 0xFFFFFFFF)),
		SrcPort: fr.SrcPort,
		DstPort: fr.DstPort,
		Proto:   fr.Proto,
	}, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
