package ipfix

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/netflow"
)

// The exporter side of the codec: the collector only decodes, so the
// encoder the round-trip tests and the fuzz corpus build messages with
// lives here.

// Variable-length information elements the tests exercise.
const (
	IEInterfaceName   = 82
	IEApplicationName = 96
)

var ErrTemplateScope = errors.New("ipfix: template id below 256")

// StandardTemplate is the IPv4 flow template FlowDNS's IPFIX exporters use
// (template 256).
func StandardTemplate() Template {
	return Template{
		ID: 256,
		Fields: []FieldSpec{
			{ID: IESourceIPv4Address, Length: 4},
			{ID: IEDestIPv4Address, Length: 4},
			{ID: IESourceTransportPort, Length: 2},
			{ID: IEDestTransportPort, Length: 2},
			{ID: IEProtocolIdentifier, Length: 1},
			{ID: IEPacketDeltaCount, Length: 8},
			{ID: IEOctetDeltaCount, Length: 8},
			{ID: IEFlowStartMillis, Length: 8},
		},
	}
}

// StandardTemplateV6 mirrors StandardTemplate for IPv6 (template 257).
func StandardTemplateV6() Template {
	t := StandardTemplate()
	t.ID = 257
	t.Fields[0] = FieldSpec{ID: IESourceIPv6Address, Length: 16}
	t.Fields[1] = FieldSpec{ID: IEDestIPv6Address, Length: 16}
	return t
}

// Encode builds one IPFIX message carrying a template set announcing t and
// one data set of records encoded under it.
func Encode(h Header, t Template, records []netflow.FlowRecord) ([]byte, error) {
	if t.ID < minDataSetID {
		return nil, ErrTemplateScope
	}
	buf := make([]byte, headerLen)

	// Template set.
	setStart := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, templateSetID)
	buf = binary.BigEndian.AppendUint16(buf, 0) // backfilled
	buf = binary.BigEndian.AppendUint16(buf, t.ID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(t.Fields)))
	for _, f := range t.Fields {
		id := f.ID
		if f.Enterprise != 0 {
			id |= 0x8000
		}
		buf = binary.BigEndian.AppendUint16(buf, id)
		buf = binary.BigEndian.AppendUint16(buf, f.Length)
		if f.Enterprise != 0 {
			buf = binary.BigEndian.AppendUint32(buf, f.Enterprise)
		}
	}
	binary.BigEndian.PutUint16(buf[setStart+2:], uint16(len(buf)-setStart))

	// Data set.
	if len(records) > 0 {
		setStart = len(buf)
		buf = binary.BigEndian.AppendUint16(buf, t.ID)
		buf = binary.BigEndian.AppendUint16(buf, 0)
		for i := range records {
			var err error
			buf, err = appendRecord(buf, t, &records[i])
			if err != nil {
				return nil, err
			}
		}
		binary.BigEndian.PutUint16(buf[setStart+2:], uint16(len(buf)-setStart))
	}

	// Header.
	binary.BigEndian.PutUint16(buf[0:], Version)
	binary.BigEndian.PutUint16(buf[2:], uint16(len(buf)))
	binary.BigEndian.PutUint32(buf[4:], h.ExportTime)
	binary.BigEndian.PutUint32(buf[8:], h.SequenceNumber)
	binary.BigEndian.PutUint32(buf[12:], h.DomainID)
	return buf, nil
}

func appendRecord(buf []byte, t Template, r *netflow.FlowRecord) ([]byte, error) {
	for _, f := range t.Fields {
		switch f.ID {
		case IESourceIPv4Address:
			if !r.SrcIP.Is4() {
				return nil, fmt.Errorf("ipfix: template %d needs IPv4 src, have %v", t.ID, r.SrcIP)
			}
			a := r.SrcIP.As4()
			buf = append(buf, a[:]...)
		case IEDestIPv4Address:
			if !r.DstIP.Is4() {
				return nil, fmt.Errorf("ipfix: template %d needs IPv4 dst, have %v", t.ID, r.DstIP)
			}
			a := r.DstIP.As4()
			buf = append(buf, a[:]...)
		case IESourceIPv6Address:
			a := r.SrcIP.As16()
			buf = append(buf, a[:]...)
		case IEDestIPv6Address:
			a := r.DstIP.As16()
			buf = append(buf, a[:]...)
		case IESourceTransportPort:
			buf = binary.BigEndian.AppendUint16(buf, r.SrcPort)
		case IEDestTransportPort:
			buf = binary.BigEndian.AppendUint16(buf, r.DstPort)
		case IEProtocolIdentifier:
			buf = append(buf, r.Proto)
		case IEPacketDeltaCount:
			buf = binary.BigEndian.AppendUint64(buf, r.Packets)
		case IEOctetDeltaCount:
			buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
		case IEFlowStartMillis:
			buf = binary.BigEndian.AppendUint64(buf, uint64(r.Timestamp.UnixMilli()))
		default:
			if f.Variable() {
				// Unknown variable-length elements encode as empty.
				buf = append(buf, 0)
				continue
			}
			for i := 0; i < int(f.Length); i++ {
				buf = append(buf, 0)
			}
		}
	}
	return buf, nil
}
