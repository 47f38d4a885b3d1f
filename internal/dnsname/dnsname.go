// Package dnsname implements RFC 1035 domain-name syntax rules.
//
// FlowDNS §5 ("Invalid Domain Names") checks every correlated domain against
// three rules from RFC 1035 and measures the traffic attributed to names
// that violate them:
//
//  1. the total length of the domain name is 255 bytes or less;
//  2. each label is limited to 63 bytes;
//  3. each label starts with a letter, ends with a letter or digit, and
//     interior characters are letters, digits, and hyphens (the classic
//     LDH / "preferred name syntax" rule).
//
// The paper reports 666k violating names in one day, with "disallowed
// interior characters" the most common violation and the underscore present
// in 87% of malformed names. This package classifies violations so the
// experiment harness can reproduce that breakdown.
package dnsname

import "strings"

// Violation identifies which RFC 1035 rule a domain name breaks.
type Violation int

const (
	// OK means the name satisfies all checked rules.
	OK Violation = iota
	// TooLong means the whole name exceeds 255 bytes.
	TooLong
	// LabelTooLong means some label exceeds 63 bytes.
	LabelTooLong
	// EmptyLabel means the name contains an empty label ("a..b", leading
	// dot, or is empty altogether).
	EmptyLabel
	// BadStart means a label starts with a character that is not a letter.
	BadStart
	// BadEnd means a label ends with a character that is not a letter or
	// digit.
	BadEnd
	// BadInterior means a label contains an interior character outside
	// letters, digits, and hyphen. This is the paper's most common
	// violation; underscores land here.
	BadInterior
)

// String returns the violation name used in reports.
func (v Violation) String() string {
	switch v {
	case OK:
		return "ok"
	case TooLong:
		return "name-too-long"
	case LabelTooLong:
		return "label-too-long"
	case EmptyLabel:
		return "empty-label"
	case BadStart:
		return "bad-label-start"
	case BadEnd:
		return "bad-label-end"
	case BadInterior:
		return "bad-interior-char"
	default:
		return "unknown"
	}
}

// MaxNameLen is the RFC 1035 limit on the presentation length of a name.
const MaxNameLen = 255

// MaxLabelLen is the RFC 1035 limit on a single label.
const MaxLabelLen = 63

// Normalize lowercases a name and strips one trailing dot, the canonical
// form FlowDNS stores in its hashmaps so that "CDN.Example.COM." and
// "cdn.example.com" correlate to the same entry.
//
// The common case — a name that is already lowercase with no trailing dot,
// which is what resolvers emit for the overwhelming majority of records —
// returns the input string unchanged with zero allocations; a trailing dot
// alone still costs nothing (the result is a substring of the input). Only
// a name that actually contains an uppercase byte pays for one output
// buffer, filled in the same single pass that found the byte (strings.
// ToLower would rescan from the start).
func Normalize(name string) string {
	if n := len(name); n > 0 && name[n-1] == '.' {
		name = name[:n-1]
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c < 'A' || c > 'Z' {
			continue
		}
		// First uppercase byte: lowercase the rest into a fresh buffer,
		// resuming at i rather than rescanning the prefix. A Builder makes
		// the buffer-to-string handoff free, so the slow path costs exactly
		// one allocation.
		var sb strings.Builder
		sb.Grow(len(name))
		sb.WriteString(name[:i])
		for j := i; j < len(name); j++ {
			c := name[j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			sb.WriteByte(c)
		}
		return sb.String()
	}
	return name
}

func isLetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isLDH(c byte) bool { return isLetter(c) || isDigit(c) || c == '-' }

// Check validates name (with or without a trailing dot) against the three
// RFC 1035 rules and returns the first violation found, scanning rules in
// the order the paper lists them: total length, label length, label syntax.
func Check(name string) Violation {
	name = strings.TrimSuffix(name, ".")
	if len(name) > MaxNameLen {
		return TooLong
	}
	if name == "" {
		return EmptyLabel
	}
	start := 0
	for i := 0; i <= len(name); i++ {
		if i != len(name) && name[i] != '.' {
			continue
		}
		label := name[start:i]
		start = i + 1
		if v := checkLabel(label); v != OK {
			return v
		}
	}
	return OK
}

func checkLabel(label string) Violation {
	if label == "" {
		return EmptyLabel
	}
	if len(label) > MaxLabelLen {
		return LabelTooLong
	}
	if !isLetter(label[0]) {
		return BadStart
	}
	last := label[len(label)-1]
	if !isLetter(last) && !isDigit(last) {
		return BadEnd
	}
	for i := 1; i < len(label)-1; i++ {
		if !isLDH(label[i]) {
			return BadInterior
		}
	}
	return OK
}

// HasUnderscore reports whether the name contains an underscore anywhere.
// The paper finds '_' in 87% of malformatted domains (service-discovery
// names like _sip._tcp.example.com are the usual culprits).
func HasUnderscore(name string) bool { return strings.IndexByte(name, '_') >= 0 }

// Report summarizes violations across a set of names; used by the fig5 /
// invalid-domain experiments.
type Report struct {
	Total       int               // names checked
	Invalid     int               // names with any violation
	ByViolation map[Violation]int // first-violation histogram
	Underscore  int               // invalid names containing '_'
}

// NewReport returns an empty report ready for Add.
func NewReport() *Report {
	return &Report{ByViolation: make(map[Violation]int)}
}

// Add checks one name and folds it into the report. It returns the
// violation so callers can tag traffic volume by category.
func (r *Report) Add(name string) Violation {
	r.Total++
	v := Check(name)
	if v != OK {
		r.Invalid++
		r.ByViolation[v]++
		if HasUnderscore(name) {
			r.Underscore++
		}
	}
	return v
}

// UnderscoreShare returns the fraction of invalid names containing an
// underscore (paper: 0.87).
func (r *Report) UnderscoreShare() float64 {
	if r.Invalid == 0 {
		return 0
	}
	return float64(r.Underscore) / float64(r.Invalid)
}

// InvalidShare returns Invalid/Total (paper: 1.7% of all domain names).
func (r *Report) InvalidShare() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Invalid) / float64(r.Total)
}
