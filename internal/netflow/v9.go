package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"
)

// NetFlow v9 (RFC 3954) constants.
const (
	v9Version       = 9
	v9HeaderLen     = 20
	v9TemplateSetID = 0
	v9OptionsSetID  = 1
	v9MinDataSetID  = 256
)

// RFC 3954 field types used by the FlowDNS-relevant template.
const (
	FieldInBytes     = 1
	FieldInPkts      = 2
	FieldProtocol    = 4
	FieldL4SrcPort   = 7
	FieldIPv4SrcAddr = 8
	FieldL4DstPort   = 11
	FieldIPv4DstAddr = 12
	FieldIPv6SrcAddr = 27
	FieldIPv6DstAddr = 28
	FieldFlowStartMs = 152 // IPFIX-style absolute ms, exported by many v9 stacks
	FieldTotalBytes  = 85
	FieldTotalPkts   = 86
)

// Errors returned by the v9 codec.
var (
	ErrV9Short        = errors.New("netflow: v9 packet shorter than header")
	ErrV9Version      = errors.New("netflow: not a v9 packet")
	ErrV9SetShort     = errors.New("netflow: v9 flowset shorter than declared")
	ErrV9SetLength    = errors.New("netflow: v9 flowset length below minimum")
	ErrV9BadTemplate  = errors.New("netflow: malformed template flowset")
	ErrV9ZeroLenField = errors.New("netflow: template field with zero length")
)

// V9Header is the 20-byte NetFlow v9 export header.
type V9Header struct {
	Count       uint16 // total records (template + data) in this packet
	SysUptimeMs uint32
	UnixSecs    uint32
	SequenceNum uint32
	SourceID    uint32 // exporter observation domain
}

// TemplateField is one (type, length) pair in a template record.
type TemplateField struct {
	Type   uint16
	Length uint16
}

// Template is a v9 template record: an ID >= 256 and an ordered field list.
type Template struct {
	ID     uint16
	Fields []TemplateField
}

// recordLen returns the wire length of one data record under t.
func (t *Template) recordLen() int {
	n := 0
	for _, f := range t.Fields {
		n += int(f.Length)
	}
	return n
}

// StandardTemplate is the template FlowDNS's synthetic exporters use: IPv4
// 5-tuple plus byte/packet counters and absolute-millisecond timestamps.
// Template ID 256 is the first legal data template ID.
func StandardTemplate() Template {
	return Template{
		ID: 256,
		Fields: []TemplateField{
			{FieldIPv4SrcAddr, 4},
			{FieldIPv4DstAddr, 4},
			{FieldL4SrcPort, 2},
			{FieldL4DstPort, 2},
			{FieldProtocol, 1},
			{FieldInPkts, 8},
			{FieldInBytes, 8},
			{FieldFlowStartMs, 8},
		},
	}
}

// StandardTemplateV6 mirrors StandardTemplate for IPv6 flows (ID 257).
func StandardTemplateV6() Template {
	return Template{
		ID: 257,
		Fields: []TemplateField{
			{FieldIPv6SrcAddr, 16},
			{FieldIPv6DstAddr, 16},
			{FieldL4SrcPort, 2},
			{FieldL4DstPort, 2},
			{FieldProtocol, 1},
			{FieldInPkts, 8},
			{FieldInBytes, 8},
			{FieldFlowStartMs, 8},
		},
	}
}

// TemplateCache stores templates per (sourceID, templateID), as RFC 3954
// requires: template IDs are scoped to the exporter's observation domain.
// It is safe for concurrent use; multiple stream-reader goroutines share one
// cache per listening socket.
type TemplateCache struct {
	mu sync.RWMutex
	m  map[uint64]Template
}

// NewTemplateCache returns an empty cache.
func NewTemplateCache() *TemplateCache {
	return &TemplateCache{m: make(map[uint64]Template)}
}

func cacheKey(sourceID uint32, templateID uint16) uint64 {
	return uint64(sourceID)<<16 | uint64(templateID)
}

// Put stores a template announcement.
func (c *TemplateCache) Put(sourceID uint32, t Template) {
	c.mu.Lock()
	c.m[cacheKey(sourceID, t.ID)] = t
	c.mu.Unlock()
}

// Get looks a template up.
func (c *TemplateCache) Get(sourceID uint32, templateID uint16) (Template, bool) {
	c.mu.RLock()
	t, ok := c.m[cacheKey(sourceID, templateID)]
	c.mu.RUnlock()
	return t, ok
}

// Len returns the number of cached templates.
func (c *TemplateCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// V9Packet is a decoded v9 export packet: any templates it announced and the
// flow records its data sets carried.
type V9Packet struct {
	Header    V9Header
	Templates []Template
	Records   []FlowRecord
	// UnknownDataSets counts data FlowSets skipped because no template was
	// cached yet; exporters re-announce templates periodically so this heals.
	UnknownDataSets int
}

// EncodeV9 builds an export packet containing a template FlowSet announcing
// t followed by one data FlowSet with the given records (all encoded under
// t). Records must fit the standard templates' field layout (IPv4 or IPv6
// source/dest, ports, proto, counters, start-ms).
func EncodeV9(h V9Header, t Template, records []FlowRecord) ([]byte, error) {
	buf := make([]byte, 0, v9HeaderLen+64+len(records)*t.recordLen())
	return AppendV9(buf, h, t, records)
}

// AppendV9 is EncodeV9 into a caller-supplied buffer: the packet is
// appended to dst and the extended slice returned. A caller that reuses
// dst across packets (the forwarder's per-node fanout path) encodes at
// zero allocations once the buffer has grown to the datagram size. On an
// encode error dst may hold a partial packet; callers reusing the buffer
// re-slice to [:0] anyway.
func AppendV9(dst []byte, h V9Header, t Template, records []FlowRecord) ([]byte, error) {
	buf := dst
	// Header; Count = 1 template record + len(records) data records.
	buf = binary.BigEndian.AppendUint16(buf, v9Version)
	buf = binary.BigEndian.AppendUint16(buf, uint16(1+len(records)))
	buf = binary.BigEndian.AppendUint32(buf, h.SysUptimeMs)
	buf = binary.BigEndian.AppendUint32(buf, h.UnixSecs)
	buf = binary.BigEndian.AppendUint32(buf, h.SequenceNum)
	buf = binary.BigEndian.AppendUint32(buf, h.SourceID)

	// Template FlowSet.
	buf = binary.BigEndian.AppendUint16(buf, v9TemplateSetID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(4+4+4*len(t.Fields)))
	buf = binary.BigEndian.AppendUint16(buf, t.ID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(t.Fields)))
	for _, f := range t.Fields {
		buf = binary.BigEndian.AppendUint16(buf, f.Type)
		buf = binary.BigEndian.AppendUint16(buf, f.Length)
	}

	// Data FlowSet.
	if len(records) > 0 {
		setLen := 4 + len(records)*t.recordLen()
		pad := (4 - setLen%4) % 4
		buf = binary.BigEndian.AppendUint16(buf, t.ID)
		buf = binary.BigEndian.AppendUint16(buf, uint16(setLen+pad))
		for i := range records {
			var err error
			buf, err = appendV9Record(buf, t, &records[i])
			if err != nil {
				return nil, err
			}
		}
		for i := 0; i < pad; i++ {
			buf = append(buf, 0)
		}
	}
	return buf, nil
}

func appendV9Record(buf []byte, t Template, r *FlowRecord) ([]byte, error) {
	for _, f := range t.Fields {
		switch f.Type {
		case FieldIPv4SrcAddr:
			if !r.SrcIP.Is4() {
				return nil, fmt.Errorf("netflow: template %d needs IPv4 src, have %v", t.ID, r.SrcIP)
			}
			a := r.SrcIP.As4()
			buf = append(buf, a[:]...)
		case FieldIPv4DstAddr:
			if !r.DstIP.Is4() {
				return nil, fmt.Errorf("netflow: template %d needs IPv4 dst, have %v", t.ID, r.DstIP)
			}
			a := r.DstIP.As4()
			buf = append(buf, a[:]...)
		case FieldIPv6SrcAddr:
			a := r.SrcIP.As16()
			buf = append(buf, a[:]...)
		case FieldIPv6DstAddr:
			a := r.DstIP.As16()
			buf = append(buf, a[:]...)
		case FieldL4SrcPort:
			buf = binary.BigEndian.AppendUint16(buf, r.SrcPort)
		case FieldL4DstPort:
			buf = binary.BigEndian.AppendUint16(buf, r.DstPort)
		case FieldProtocol:
			buf = append(buf, r.Proto)
		case FieldInPkts:
			buf = binary.BigEndian.AppendUint64(buf, r.Packets)
		case FieldInBytes:
			buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
		case FieldFlowStartMs:
			buf = binary.BigEndian.AppendUint64(buf, uint64(r.Timestamp.UnixMilli()))
		default:
			// Fields the neutral record does not carry are zero-filled.
			for i := 0; i < int(f.Length); i++ {
				buf = append(buf, 0)
			}
		}
	}
	return buf, nil
}

// DecodeV9 parses a v9 export packet, resolving data FlowSets against cache
// (which is also updated with any templates the packet announces, keyed by
// the header's SourceID).
func DecodeV9(pkt []byte, cache *TemplateCache) (*V9Packet, error) {
	if len(pkt) < v9HeaderLen {
		return nil, ErrV9Short
	}
	if binary.BigEndian.Uint16(pkt) != v9Version {
		return nil, ErrV9Version
	}
	out := &V9Packet{
		Header: V9Header{
			Count:       binary.BigEndian.Uint16(pkt[2:]),
			SysUptimeMs: binary.BigEndian.Uint32(pkt[4:]),
			UnixSecs:    binary.BigEndian.Uint32(pkt[8:]),
			SequenceNum: binary.BigEndian.Uint32(pkt[12:]),
			SourceID:    binary.BigEndian.Uint32(pkt[16:]),
		},
	}
	off := v9HeaderLen
	for off+4 <= len(pkt) {
		setID := binary.BigEndian.Uint16(pkt[off:])
		setLen := int(binary.BigEndian.Uint16(pkt[off+2:]))
		if setLen < 4 {
			return nil, ErrV9SetLength
		}
		if off+setLen > len(pkt) {
			return nil, ErrV9SetShort
		}
		body := pkt[off+4 : off+setLen]
		switch {
		case setID == v9TemplateSetID:
			if err := decodeTemplateSet(body, out, cache); err != nil {
				return nil, err
			}
		case setID == v9OptionsSetID:
			// Options templates are accepted and skipped; FlowDNS does not
			// consume option data.
		case setID >= v9MinDataSetID:
			decodeDataSet(setID, body, out, cache)
		default:
			// Set IDs 2..255 are reserved; skip per RFC 3954 §5.
		}
		off += setLen
	}
	return out, nil
}

func decodeTemplateSet(body []byte, out *V9Packet, cache *TemplateCache) error {
	off := 0
	for off+4 <= len(body) {
		id := binary.BigEndian.Uint16(body[off:])
		fieldCount := int(binary.BigEndian.Uint16(body[off+2:]))
		off += 4
		if id < v9MinDataSetID || fieldCount == 0 {
			return ErrV9BadTemplate
		}
		if off+fieldCount*4 > len(body) {
			return ErrV9BadTemplate
		}
		t := Template{ID: id, Fields: make([]TemplateField, fieldCount)}
		for i := 0; i < fieldCount; i++ {
			t.Fields[i] = TemplateField{
				Type:   binary.BigEndian.Uint16(body[off:]),
				Length: binary.BigEndian.Uint16(body[off+2:]),
			}
			if t.Fields[i].Length == 0 {
				return ErrV9ZeroLenField
			}
			off += 4
		}
		out.Templates = append(out.Templates, t)
		if cache != nil {
			cache.Put(out.Header.SourceID, t)
		}
	}
	return nil
}

func decodeDataSet(setID uint16, body []byte, out *V9Packet, cache *TemplateCache) {
	var t Template
	ok := false
	if cache != nil {
		t, ok = cache.Get(out.Header.SourceID, setID)
	}
	if !ok {
		// Also try templates announced earlier in this same packet.
		for _, cand := range out.Templates {
			if cand.ID == setID {
				t, ok = cand, true
				break
			}
		}
	}
	if !ok {
		out.UnknownDataSets++
		return
	}
	rl := t.recordLen()
	if rl == 0 {
		out.UnknownDataSets++
		return
	}
	hdrTime := time.Unix(int64(out.Header.UnixSecs), 0)
	for off := 0; off+rl <= len(body); off += rl {
		rec := decodeV9Record(body[off:off+rl], t)
		if rec.Timestamp.IsZero() {
			rec.Timestamp = hdrTime
		}
		out.Records = append(out.Records, rec)
	}
}

func decodeV9Record(b []byte, t Template) FlowRecord {
	var r FlowRecord
	off := 0
	for _, f := range t.Fields {
		v := b[off : off+int(f.Length)]
		switch f.Type {
		case FieldIPv4SrcAddr:
			if len(v) == 4 {
				r.SrcIP = netip.AddrFrom4([4]byte(v))
			}
		case FieldIPv4DstAddr:
			if len(v) == 4 {
				r.DstIP = netip.AddrFrom4([4]byte(v))
			}
		case FieldIPv6SrcAddr:
			if len(v) == 16 {
				r.SrcIP = netip.AddrFrom16([16]byte(v))
			}
		case FieldIPv6DstAddr:
			if len(v) == 16 {
				r.DstIP = netip.AddrFrom16([16]byte(v))
			}
		case FieldL4SrcPort:
			r.SrcPort = uint16(beUint(v))
		case FieldL4DstPort:
			r.DstPort = uint16(beUint(v))
		case FieldProtocol:
			r.Proto = uint8(beUint(v))
		case FieldInPkts, FieldTotalPkts:
			r.Packets = beUint(v)
		case FieldInBytes, FieldTotalBytes:
			r.Bytes = beUint(v)
		case FieldFlowStartMs:
			if ms := beUint(v); ms != 0 {
				r.Timestamp = time.UnixMilli(int64(ms))
			}
		}
		off += int(f.Length)
	}
	return r
}

// beUint reads a big-endian unsigned integer of 1..8 bytes, the v9 rule for
// variable-width counter fields.
func beUint(b []byte) uint64 {
	var n uint64
	if len(b) > 8 {
		b = b[len(b)-8:]
	}
	for _, c := range b {
		n = n<<8 | uint64(c)
	}
	return n
}
