// Package dbl implements a categorized domain blocklist — the stand-in for
// the Spamhaus DBL the paper queries in §5 ("Spam Domains").
//
// The paper samples ~1M domain names per day against the DBL and finds 612
// suspicious ones: 512 spam/bad-reputation, 41 botnet C&C, 34 abused
// spammed redirectors, 11 malware, 3 phishing. FlowDNS then measures the
// traffic those domains originate (Figure 5). This package provides the
// lookup side: an in-memory list with the same category taxonomy, suffix
// matching (a listed domain covers its subdomains), and a rate-limit-aware
// sampling helper mirroring the paper's once-per-hour sampling.
package dbl

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Category is a Spamhaus-DBL-style domain classification.
type Category int

// Categories used in the paper's Figure 5, plus Benign for misses.
const (
	Benign           Category = iota
	Spam                      // spam / generic bad reputation
	Botnet                    // botnet command & control
	AbusedRedirector          // abused spammed redirector
	Malware
	Phish
)

// String returns the label used in reports (matching Fig 5's facets).
func (c Category) String() string {
	switch c {
	case Spam:
		return "spam"
	case Botnet:
		return "botnet"
	case AbusedRedirector:
		return "abused-redirector"
	case Malware:
		return "malware"
	case Phish:
		return "phish"
	default:
		return "benign"
	}
}

// Categories lists the suspicious categories in the paper's reporting order.
func Categories() []Category {
	return []Category{Spam, Botnet, AbusedRedirector, Malware, Phish}
}

// CategoryFromString resolves a report label (as produced by
// Category.String) back to its category; ok is false for unknown labels.
func CategoryFromString(s string) (Category, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "benign":
		return Benign, true
	case "spam":
		return Spam, true
	case "botnet":
		return Botnet, true
	case "abused-redirector":
		return AbusedRedirector, true
	case "malware":
		return Malware, true
	case "phish":
		return Phish, true
	default:
		return Benign, false
	}
}

// List is a categorized domain blocklist with suffix semantics: a listed
// "bad.example" also matches "x.bad.example". Safe for concurrent reads
// and writes.
type List struct {
	mu sync.RWMutex
	m  map[string]Category
}

// NewList returns an empty list.
func NewList() *List { return &List{m: make(map[string]Category)} }

// Add lists a domain (normalized to lowercase, no trailing dot) under a
// category.
func (l *List) Add(domain string, c Category) {
	domain = normalize(domain)
	if domain == "" {
		return
	}
	l.mu.Lock()
	l.m[domain] = c
	l.mu.Unlock()
}

// Lookup classifies a domain, walking parent suffixes so subdomains of a
// listed domain inherit its category. Unlisted names are Benign.
func (l *List) Lookup(domain string) Category {
	domain = normalize(domain)
	l.mu.RLock()
	defer l.mu.RUnlock()
	for domain != "" {
		if c, ok := l.m[domain]; ok {
			return c
		}
		i := strings.IndexByte(domain, '.')
		if i < 0 {
			break
		}
		domain = domain[i+1:]
	}
	return Benign
}

// Len returns the number of listed domains.
func (l *List) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.m)
}

func normalize(d string) string {
	d = strings.TrimSuffix(strings.ToLower(strings.TrimSpace(d)), ".")
	return d
}

// ParseList reads a blocklist in the plain text form the paper's DBL
// queries reduce to: one "domain [category]" pair per line (category
// labels as in Category.String; a bare domain defaults to spam, the
// dominant class in the paper's sample), '#' comments and blank lines
// skipped.
func ParseList(r io.Reader) (*List, error) {
	l := NewList()
	sc := bufio.NewScanner(r)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cat := Spam
		switch len(fields) {
		case 1:
		case 2:
			c, ok := CategoryFromString(fields[1])
			if !ok {
				return nil, fmt.Errorf("dbl: line %d: unknown category %q", ln, fields[1])
			}
			cat = c
		default:
			return nil, fmt.Errorf("dbl: line %d: want \"domain [category]\", got %q", ln, line)
		}
		l.Add(fields[0], cat)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dbl: %w", err)
	}
	return l, nil
}

// LoadList reads a blocklist file (see ParseList for the format).
func LoadList(path string) (*List, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dbl: %w", err)
	}
	defer f.Close()
	return ParseList(f)
}

// Sampler deduplicates domain names within a sampling window, mirroring the
// paper's "to avoid bandwidth limitations on Spamhaus DBL, we sample all
// the domain names once every hour". Checked returns true the first time a
// domain is seen in the current window.
type Sampler struct {
	mu   sync.Mutex
	seen map[string]struct{}
}

// NewSampler returns an empty sampler window.
func NewSampler() *Sampler { return &Sampler{seen: make(map[string]struct{})} }

// Checked records the domain and reports whether it still needed checking
// (i.e. first occurrence this window).
func (s *Sampler) Checked(domain string) bool {
	domain = normalize(domain)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[domain]; ok {
		return false
	}
	s.seen[domain] = struct{}{}
	return true
}
