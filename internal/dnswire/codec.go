package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Errors returned by the message codec.
var (
	ErrShortHeader = errors.New("dnswire: message shorter than header")
	ErrShortRecord = errors.New("dnswire: truncated resource record")
	ErrBadRData    = errors.New("dnswire: rdata length mismatch")
	ErrTooManyRRs  = errors.New("dnswire: section count implausibly large")
)

// header bit masks.
const (
	bitQR = 1 << 15
	bitAA = 1 << 10
	bitTC = 1 << 9
	bitRD = 1 << 8
	bitRA = 1 << 7
)

// AppendMessage encodes m and appends the wire bytes to buf, compressing
// names with a per-message dictionary. It returns the extended buffer.
func AppendMessage(buf []byte, m *Message) ([]byte, error) {
	base := len(buf)
	dict := make(map[string]int, 8)
	var flags uint16
	if m.Header.Response {
		flags |= bitQR
	}
	flags |= uint16(m.Header.OpCode&0xF) << 11
	if m.Header.Authoritative {
		flags |= bitAA
	}
	if m.Header.Truncated {
		flags |= bitTC
	}
	if m.Header.RecursionDesired {
		flags |= bitRD
	}
	if m.Header.RecursionAvailable {
		flags |= bitRA
	}
	flags |= uint16(m.Header.RCode & 0xF)

	buf = binary.BigEndian.AppendUint16(buf, m.Header.ID)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authority)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Additional)))

	var err error
	for i := range m.Questions {
		q := &m.Questions[i]
		// Compression offsets are relative to the start of the DNS message,
		// not the caller's buffer; adjust by rebasing the dict on first use.
		buf, err = appendNameRebased(buf, base, q.Name, dict)
		if err != nil {
			return buf, fmt.Errorf("question %d: %w", i, err)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for i := range section {
			buf, err = appendRecord(buf, base, &section[i], dict)
			if err != nil {
				return buf, fmt.Errorf("record %d: %w", i, err)
			}
		}
	}
	return buf, nil
}

// appendNameRebased wraps appendName so that dictionary offsets are relative
// to the message start at base.
func appendNameRebased(buf []byte, base int, name string, dict map[string]int) ([]byte, error) {
	// appendName records offsets relative to buf; shift by using a window.
	out, err := appendName(buf[base:], name, dict)
	if err != nil {
		return buf, err
	}
	return append(buf[:base], out...), nil
}

func appendRecord(buf []byte, base int, r *Record, dict map[string]int) ([]byte, error) {
	var err error
	buf, err = appendNameRebased(buf, base, r.Name, dict)
	if err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Class))
	buf = binary.BigEndian.AppendUint32(buf, r.TTL)
	// Reserve the RDLENGTH slot, then backfill.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	rdStart := len(buf)
	switch r.Type {
	case TypeA:
		if !r.Addr.Is4() {
			return buf, fmt.Errorf("dnswire: A record with non-IPv4 addr %v", r.Addr)
		}
		a4 := r.Addr.As4()
		buf = append(buf, a4[:]...)
	case TypeAAAA:
		if !r.Addr.Is6() || r.Addr.Is4() {
			return buf, fmt.Errorf("dnswire: AAAA record with non-IPv6 addr %v", r.Addr)
		}
		a16 := r.Addr.As16()
		buf = append(buf, a16[:]...)
	case TypeCNAME, TypeNS, TypePTR:
		buf, err = appendNameRebased(buf, base, r.Target, dict)
		if err != nil {
			return buf, err
		}
	case TypeMX:
		buf = binary.BigEndian.AppendUint16(buf, r.Pref)
		buf, err = appendNameRebased(buf, base, r.Target, dict)
		if err != nil {
			return buf, err
		}
	case TypeSRV:
		buf = binary.BigEndian.AppendUint16(buf, r.Priority)
		buf = binary.BigEndian.AppendUint16(buf, r.Weight)
		buf = binary.BigEndian.AppendUint16(buf, r.Port)
		// RFC 2782: the SRV target must not be compressed.
		buf, err = appendNameRebased(buf, base, r.Target, nil)
		if err != nil {
			return buf, err
		}
	case TypeTXT:
		for _, s := range r.TXT {
			if len(s) > 255 {
				return buf, fmt.Errorf("dnswire: TXT chunk exceeds 255 bytes")
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	case TypeSOA:
		soa := r.SOA
		if soa == nil {
			soa = &SOAData{}
		}
		buf, err = appendNameRebased(buf, base, soa.MName, dict)
		if err != nil {
			return buf, err
		}
		buf, err = appendNameRebased(buf, base, soa.RName, dict)
		if err != nil {
			return buf, err
		}
		buf = binary.BigEndian.AppendUint32(buf, soa.Serial)
		buf = binary.BigEndian.AppendUint32(buf, soa.Refresh)
		buf = binary.BigEndian.AppendUint32(buf, soa.Retry)
		buf = binary.BigEndian.AppendUint32(buf, soa.Expire)
		buf = binary.BigEndian.AppendUint32(buf, soa.Minimum)
	default:
		buf = append(buf, r.Raw...)
	}
	rdLen := len(buf) - rdStart
	if rdLen > 0xFFFF {
		return buf, fmt.Errorf("dnswire: rdata exceeds 65535 bytes")
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdLen))
	return buf, nil
}

// Encode returns the wire bytes of m.
func Encode(m *Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, 512), m)
}

// Decode parses a full DNS message. Trailing bytes after the declared
// sections are rejected: a record stream carrying framed messages must not
// silently lose sync.
func Decode(msg []byte) (*Message, error) {
	m := new(Message)
	off, err := decodeInto(msg, m)
	if err != nil {
		return nil, err
	}
	if off != len(msg) {
		return nil, ErrTrailingGarbage
	}
	return m, nil
}

func decodeInto(msg []byte, m *Message) (int, error) {
	if len(msg) < 12 {
		return 0, ErrShortHeader
	}
	flags := binary.BigEndian.Uint16(msg[2:4])
	m.Header = Header{
		ID:                 binary.BigEndian.Uint16(msg[0:2]),
		Response:           flags&bitQR != 0,
		OpCode:             OpCode(flags >> 11 & 0xF),
		Authoritative:      flags&bitAA != 0,
		Truncated:          flags&bitTC != 0,
		RecursionDesired:   flags&bitRD != 0,
		RecursionAvailable: flags&bitRA != 0,
		RCode:              RCode(flags & 0xF),
		QDCount:            binary.BigEndian.Uint16(msg[4:6]),
		ANCount:            binary.BigEndian.Uint16(msg[6:8]),
		NSCount:            binary.BigEndian.Uint16(msg[8:10]),
		ARCount:            binary.BigEndian.Uint16(msg[10:12]),
	}
	// Every question needs >= 5 wire bytes and every RR >= 11 (a compressed
	// name is 2 bytes, a root name 1), so 5 bytes/entry is a safe lower
	// bound; header counts exceeding it cannot be satisfied by the payload.
	totalRRs := int(m.Header.QDCount) + int(m.Header.ANCount) + int(m.Header.NSCount) + int(m.Header.ARCount)
	if totalRRs*5 > len(msg)-12 {
		return 0, ErrTooManyRRs
	}
	off := 12
	var err error
	if n := int(m.Header.QDCount); n > 0 {
		m.Questions = make([]Question, 0, min(n, 16))
		for i := 0; i < n; i++ {
			var q Question
			q.Name, off, err = decodeName(msg, off)
			if err != nil {
				return 0, err
			}
			if off+4 > len(msg) {
				return 0, ErrShortRecord
			}
			q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
			q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
			off += 4
			m.Questions = append(m.Questions, q)
		}
	}
	sections := []struct {
		count int
		dst   *[]Record
	}{
		{int(m.Header.ANCount), &m.Answers},
		{int(m.Header.NSCount), &m.Authority},
		{int(m.Header.ARCount), &m.Additional},
	}
	for _, sec := range sections {
		if sec.count == 0 {
			continue
		}
		*sec.dst = make([]Record, 0, min(sec.count, 32))
		for i := 0; i < sec.count; i++ {
			var r Record
			off, err = decodeRecord(msg, off, &r)
			if err != nil {
				return 0, err
			}
			*sec.dst = append(*sec.dst, r)
		}
	}
	return off, nil
}

func decodeRecord(msg []byte, off int, r *Record) (int, error) {
	var err error
	r.Name, off, err = decodeName(msg, off)
	if err != nil {
		return 0, err
	}
	if off+10 > len(msg) {
		return 0, ErrShortRecord
	}
	r.Type = Type(binary.BigEndian.Uint16(msg[off:]))
	r.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
	r.TTL = binary.BigEndian.Uint32(msg[off+4:])
	rdLen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdLen > len(msg) {
		return 0, ErrShortRecord
	}
	rd := msg[off : off+rdLen]
	rdEnd := off + rdLen
	switch r.Type {
	case TypeA:
		if rdLen != 4 {
			return 0, ErrBadRData
		}
		r.Addr = netip.AddrFrom4([4]byte(rd))
	case TypeAAAA:
		if rdLen != 16 {
			return 0, ErrBadRData
		}
		r.Addr = netip.AddrFrom16([16]byte(rd))
	case TypeCNAME, TypeNS, TypePTR:
		var end int
		r.Target, end, err = decodeName(msg, off)
		if err != nil {
			return 0, err
		}
		if end != rdEnd {
			return 0, ErrBadRData
		}
	case TypeMX:
		if rdLen < 3 {
			return 0, ErrBadRData
		}
		r.Pref = binary.BigEndian.Uint16(rd)
		var end int
		r.Target, end, err = decodeName(msg, off+2)
		if err != nil {
			return 0, err
		}
		if end != rdEnd {
			return 0, ErrBadRData
		}
	case TypeSRV:
		if rdLen < 7 {
			return 0, ErrBadRData
		}
		r.Priority = binary.BigEndian.Uint16(rd)
		r.Weight = binary.BigEndian.Uint16(rd[2:])
		r.Port = binary.BigEndian.Uint16(rd[4:])
		var end int
		r.Target, end, err = decodeName(msg, off+6)
		if err != nil {
			return 0, err
		}
		if end != rdEnd {
			return 0, ErrBadRData
		}
	case TypeTXT:
		for p := 0; p < rdLen; {
			l := int(rd[p])
			p++
			if p+l > rdLen {
				return 0, ErrBadRData
			}
			r.TXT = append(r.TXT, string(rd[p:p+l]))
			p += l
		}
	case TypeSOA:
		soa := new(SOAData)
		var end int
		soa.MName, end, err = decodeName(msg, off)
		if err != nil {
			return 0, err
		}
		soa.RName, end, err = decodeName(msg, end)
		if err != nil {
			return 0, err
		}
		if end+20 != rdEnd {
			return 0, ErrBadRData
		}
		soa.Serial = binary.BigEndian.Uint32(msg[end:])
		soa.Refresh = binary.BigEndian.Uint32(msg[end+4:])
		soa.Retry = binary.BigEndian.Uint32(msg[end+8:])
		soa.Expire = binary.BigEndian.Uint32(msg[end+12:])
		soa.Minimum = binary.BigEndian.Uint32(msg[end+16:])
		r.SOA = soa
	default:
		r.Raw = append([]byte(nil), rd...)
	}
	return rdEnd, nil
}
