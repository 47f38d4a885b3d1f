// Package dnswire implements an RFC 1035 DNS message wire codec.
//
// FlowDNS consumes "DNS cache misses gathered from different customer
// resolvers" — i.e. full DNS response messages forwarded over TCP. This
// package provides the encoder/decoder for those messages: header, question
// and resource-record sections, domain-name compression (decode with loop
// protection, encode with a compression dictionary), and typed RDATA for the
// record types the correlator and its experiments need (A, AAAA, CNAME plus
// NS, PTR, MX, TXT, SOA so the stream filter has realistic negatives to
// reject).
//
// The design follows the gopacket school of decoding: DecodeFromBytes-style
// methods on preallocated values, no hidden allocation on the hot path, and
// errors instead of panics for any malformed input.
package dnswire

import (
	"fmt"
	"net/netip"
	"strings"
)

// Type is a DNS RR type (RFC 1035 §3.2.2, RFC 3596 for AAAA).
type Type uint16

// RR types used by FlowDNS and its workload.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeSRV   Type = 33
	TypeOPT   Type = 41
	TypeANY   Type = 255
)

// String returns the conventional mnemonic for the type.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeSRV:
		return "SRV"
	case TypeOPT:
		return "OPT"
	case TypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS RR class. Only IN matters in practice.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a response code (RFC 1035 §4.1.1).
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the conventional mnemonic for the rcode.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// OpCode is a DNS operation code (0 = standard query).
type OpCode uint8

// Header is the fixed 12-byte DNS message header.
type Header struct {
	ID                 uint16
	Response           bool // QR
	OpCode             OpCode
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	RCode              RCode

	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
}

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// Record is one resource record. Exactly one of the typed RDATA fields is
// meaningful, selected by Type; the raw RDATA is preserved for unknown types
// so messages round-trip byte-exactly apart from name compression.
type Record struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	// A / AAAA
	Addr netip.Addr
	// CNAME / NS / PTR / SRV
	Target string
	// MX preference
	Pref uint16
	// SRV
	Priority uint16
	Weight   uint16
	Port     uint16
	// TXT: each string chunk
	TXT []string
	// SOA
	SOA *SOAData
	// Unknown types keep their raw bytes.
	Raw []byte
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Message is a full DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record
}

// QName returns the first question's name, or "" if there is none. FlowDNS
// uses the query name as the hashmap value for every answer record.
func (m *Message) QName() string {
	if len(m.Questions) == 0 {
		return ""
	}
	return m.Questions[0].Name
}

// String renders a dig-like one-line summary, useful in logs and tests.
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "id=%d %s qd=%d an=%d", m.Header.ID, m.Header.RCode, len(m.Questions), len(m.Answers))
	if q := m.QName(); q != "" {
		fmt.Fprintf(&b, " q=%s", q)
	}
	return b.String()
}
