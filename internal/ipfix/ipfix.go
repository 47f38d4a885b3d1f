// Package ipfix implements an IPFIX (RFC 7011) message decoder.
//
// The paper's introduction names IPFIX alongside NetFlow as the flow
// protocols ISPs export ("e.g. Netflow [7], IPFIX [2]"), and §3 notes the
// system "is not bound to NetFlow data and can be adapted to use other
// data formats containing IP addresses and timestamps". This package is
// that adaptation for IPFIX: message header, template sets (set ID 2),
// options template sets (ID 3, accepted and skipped), data sets (ID ≥ 256),
// enterprise-number field specifiers, variable-length fields (RFC 7011
// §7), and a template cache scoped per observation domain.
//
// The information elements FlowDNS consumes are the IANA standard ones:
// sourceIPv4Address(8), destinationIPv4Address(12), sourceIPv6Address(27),
// destinationIPv6Address(28), sourceTransportPort(7),
// destinationTransportPort(11), protocolIdentifier(4), octetDeltaCount(1),
// packetDeltaCount(2), flowStartMilliseconds(152).
package ipfix

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"sync"
	"time"

	"repro/internal/netflow"
)

// Wire constants (RFC 7011 §3).
const (
	Version            = 10
	headerLen          = 16
	setHeaderLen       = 4
	templateSetID      = 2
	optionsTemplateSet = 3
	minDataSetID       = 256
	// varLen marks a variable-length information element in a template.
	varLen = 0xFFFF
)

// IANA information element IDs used by FlowDNS.
const (
	IEOctetDeltaCount     = 1
	IEPacketDeltaCount    = 2
	IEProtocolIdentifier  = 4
	IESourceTransportPort = 7
	IESourceIPv4Address   = 8
	IEDestTransportPort   = 11
	IEDestIPv4Address     = 12
	IESourceIPv6Address   = 27
	IEDestIPv6Address     = 28
	IEFlowStartMillis     = 152
)

// Errors returned by the codec.
var (
	ErrShort         = errors.New("ipfix: message shorter than header")
	ErrVersion       = errors.New("ipfix: not an IPFIX message")
	ErrLength        = errors.New("ipfix: header length disagrees with payload")
	ErrSetLength     = errors.New("ipfix: set length invalid")
	ErrBadTemplate   = errors.New("ipfix: malformed template set")
	ErrVarLenOverrun = errors.New("ipfix: variable-length field overruns set")
)

// FieldSpec is one field specifier: an information element, its wire
// length (0xFFFF = variable), and an optional enterprise number.
type FieldSpec struct {
	ID         uint16
	Length     uint16
	Enterprise uint32 // 0 = IANA
}

// Variable reports whether the field is variable-length.
func (f FieldSpec) Variable() bool { return f.Length == varLen }

// Template is an IPFIX template record.
type Template struct {
	ID     uint16
	Fields []FieldSpec
}

// fixedLen returns the fixed wire length of a record under t, or -1 when
// any field is variable-length (records must then be walked field by
// field).
func (t *Template) fixedLen() int {
	n := 0
	for _, f := range t.Fields {
		if f.Variable() {
			return -1
		}
		n += int(f.Length)
	}
	return n
}

// Header is the 16-byte IPFIX message header.
type Header struct {
	Length         uint16
	ExportTime     uint32 // seconds since epoch
	SequenceNumber uint32
	DomainID       uint32 // observation domain
}

// Message is a decoded IPFIX message.
type Message struct {
	Header          Header
	Templates       []Template
	Records         []netflow.FlowRecord
	UnknownDataSets int
	SkippedOptions  int
}

// Cache stores templates per (observation domain, template id).
type Cache struct {
	mu sync.RWMutex
	m  map[uint64]Template
}

// NewCache returns an empty template cache.
func NewCache() *Cache { return &Cache{m: make(map[uint64]Template)} }

// Put stores a template.
func (c *Cache) Put(domain uint32, t Template) {
	c.mu.Lock()
	c.m[uint64(domain)<<16|uint64(t.ID)] = t
	c.mu.Unlock()
}

// Get retrieves a template.
func (c *Cache) Get(domain uint32, id uint16) (Template, bool) {
	c.mu.RLock()
	t, ok := c.m[uint64(domain)<<16|uint64(id)]
	c.mu.RUnlock()
	return t, ok
}

// Len returns the number of cached templates.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Decode parses one IPFIX message, resolving data sets against cache
// (updated with any announced templates).
func Decode(pkt []byte, cache *Cache) (*Message, error) {
	if len(pkt) < headerLen {
		return nil, ErrShort
	}
	if binary.BigEndian.Uint16(pkt) != Version {
		return nil, ErrVersion
	}
	m := &Message{Header: Header{
		Length:         binary.BigEndian.Uint16(pkt[2:]),
		ExportTime:     binary.BigEndian.Uint32(pkt[4:]),
		SequenceNumber: binary.BigEndian.Uint32(pkt[8:]),
		DomainID:       binary.BigEndian.Uint32(pkt[12:]),
	}}
	if int(m.Header.Length) != len(pkt) {
		return nil, ErrLength
	}
	off := headerLen
	for off+setHeaderLen <= len(pkt) {
		setID := binary.BigEndian.Uint16(pkt[off:])
		setLen := int(binary.BigEndian.Uint16(pkt[off+2:]))
		if setLen < setHeaderLen || off+setLen > len(pkt) {
			return nil, ErrSetLength
		}
		body := pkt[off+setHeaderLen : off+setLen]
		switch {
		case setID == templateSetID:
			if err := decodeTemplateSet(body, m, cache); err != nil {
				return nil, err
			}
		case setID == optionsTemplateSet:
			m.SkippedOptions++
		case setID >= minDataSetID:
			if err := decodeDataSet(setID, body, m, cache); err != nil {
				return nil, err
			}
		}
		off += setLen
	}
	return m, nil
}

func decodeTemplateSet(body []byte, m *Message, cache *Cache) error {
	off := 0
	// Multiple template records per set; trailing padding < 4 bytes allowed.
	for off+4 <= len(body) {
		id := binary.BigEndian.Uint16(body[off:])
		count := int(binary.BigEndian.Uint16(body[off+2:]))
		off += 4
		if id == 0 && count == 0 {
			break // padding
		}
		if id < minDataSetID || count == 0 {
			return ErrBadTemplate
		}
		t := Template{ID: id, Fields: make([]FieldSpec, 0, count)}
		for i := 0; i < count; i++ {
			if off+4 > len(body) {
				return ErrBadTemplate
			}
			rawID := binary.BigEndian.Uint16(body[off:])
			length := binary.BigEndian.Uint16(body[off+2:])
			off += 4
			fs := FieldSpec{ID: rawID & 0x7FFF, Length: length}
			if rawID&0x8000 != 0 {
				if off+4 > len(body) {
					return ErrBadTemplate
				}
				fs.Enterprise = binary.BigEndian.Uint32(body[off:])
				off += 4
			}
			if length == 0 {
				return ErrBadTemplate
			}
			t.Fields = append(t.Fields, fs)
		}
		m.Templates = append(m.Templates, t)
		if cache != nil {
			cache.Put(m.Header.DomainID, t)
		}
	}
	return nil
}

func decodeDataSet(setID uint16, body []byte, m *Message, cache *Cache) error {
	var t Template
	ok := false
	if cache != nil {
		t, ok = cache.Get(m.Header.DomainID, setID)
	}
	if !ok {
		for _, cand := range m.Templates {
			if cand.ID == setID {
				t, ok = cand, true
				break
			}
		}
	}
	if !ok {
		m.UnknownDataSets++
		return nil
	}
	fixed := t.fixedLen()
	hdrTime := time.Unix(int64(m.Header.ExportTime), 0)
	off := 0
	for {
		// RFC 7011 §3.3.1: padding shorter than one record may follow.
		if fixed > 0 {
			if off+fixed > len(body) {
				break
			}
		} else if off >= len(body) {
			break
		}
		rec, n, err := decodeRecord(body[off:], t)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if rec.Timestamp.IsZero() {
			rec.Timestamp = hdrTime
		}
		m.Records = append(m.Records, rec)
		off += n
		if fixed < 0 && len(body)-off < 4 {
			// variable-length records: stop at sub-record-header padding
			break
		}
	}
	return nil
}

func decodeRecord(b []byte, t Template) (netflow.FlowRecord, int, error) {
	var r netflow.FlowRecord
	off := 0
	for _, f := range t.Fields {
		length := int(f.Length)
		if f.Variable() {
			if off >= len(b) {
				return r, 0, ErrVarLenOverrun
			}
			length = int(b[off])
			off++
			if length == 255 {
				if off+2 > len(b) {
					return r, 0, ErrVarLenOverrun
				}
				length = int(binary.BigEndian.Uint16(b[off:]))
				off += 2
			}
		}
		if off+length > len(b) {
			return r, 0, ErrVarLenOverrun
		}
		v := b[off : off+length]
		if f.Enterprise == 0 {
			applyField(&r, f.ID, v)
		}
		off += length
	}
	return r, off, nil
}

func applyField(r *netflow.FlowRecord, id uint16, v []byte) {
	switch id {
	case IESourceIPv4Address:
		if len(v) == 4 {
			r.SrcIP = netip.AddrFrom4([4]byte(v))
		}
	case IEDestIPv4Address:
		if len(v) == 4 {
			r.DstIP = netip.AddrFrom4([4]byte(v))
		}
	case IESourceIPv6Address:
		if len(v) == 16 {
			r.SrcIP = netip.AddrFrom16([16]byte(v))
		}
	case IEDestIPv6Address:
		if len(v) == 16 {
			r.DstIP = netip.AddrFrom16([16]byte(v))
		}
	case IESourceTransportPort:
		r.SrcPort = uint16(beUint(v))
	case IEDestTransportPort:
		r.DstPort = uint16(beUint(v))
	case IEProtocolIdentifier:
		r.Proto = uint8(beUint(v))
	case IEPacketDeltaCount:
		r.Packets = beUint(v)
	case IEOctetDeltaCount:
		r.Bytes = beUint(v)
	case IEFlowStartMillis:
		if ms := beUint(v); ms != 0 {
			r.Timestamp = time.UnixMilli(int64(ms))
		}
	}
}

func beUint(b []byte) uint64 {
	if len(b) > 8 {
		b = b[len(b)-8:]
	}
	var n uint64
	for _, c := range b {
		n = n<<8 | uint64(c)
	}
	return n
}
