// Package bgp provides longest-prefix-match routing-table lookups for the
// source-AS attribution use case.
//
// The paper's §5 "Network Provisioning and Planning" correlates FlowDNS
// output with BGP data "e.g. source AS, destination AS, hand-over AS" to
// chart per-service traffic by origin AS (Figure 4). This package is the
// substrate for that join: a binary (bit-)trie over IPv4/IPv6 prefixes
// mapping to origin AS numbers, with longest-prefix-match semantics
// identical to a RIB lookup.
package bgp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Table is a longest-prefix-match table from IP prefixes to origin ASNs.
// It holds separate tries for IPv4 and IPv6. The zero value is not usable;
// use NewTable.
//
// Concurrency contract (build-then-read): a Table has two phases. During
// the build phase one goroutine Inserts; no Lookups may run. Once built,
// any number of goroutines may Lookup concurrently forever — but no
// further Inserts. Freeze enforces the phase switch: after Freeze, Insert
// fails with ErrFrozen without touching the trie, so a mistaken late
// insert can never race the pipeline's readers. The pipeline lifecycle is
// exactly this shape: load the table at startup, Freeze it, then hand it
// to the rollup sink's Write workers.
type Table struct {
	v4     *node
	v6     *node
	size   int
	frozen atomic.Bool
}

// ErrFrozen is returned by Insert after Freeze.
var ErrFrozen = errors.New("bgp: table is frozen (build-then-read: no inserts after Freeze)")

type node struct {
	child [2]*node
	asn   uint32
	set   bool
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{v4: &node{}, v6: &node{}}
}

// Freeze ends the build phase: every later Insert fails with ErrFrozen.
// Call it once the table is fully loaded, before sharing it with readers.
func (t *Table) Freeze() { t.frozen.Store(true) }

// Insert adds prefix → asn, replacing any previous entry for the exact
// prefix. Invalid prefixes are rejected, as is any insert after Freeze.
func (t *Table) Insert(prefix netip.Prefix, asn uint32) error {
	if t.frozen.Load() {
		return ErrFrozen
	}
	if !prefix.IsValid() {
		return fmt.Errorf("bgp: invalid prefix %v", prefix)
	}
	prefix = prefix.Masked()
	root := t.v4
	if prefix.Addr().Is6() && !prefix.Addr().Is4In6() {
		root = t.v6
	}
	bits := prefix.Addr().AsSlice()
	n := root
	for i := 0; i < prefix.Bits(); i++ {
		b := bit(bits, i)
		if n.child[b] == nil {
			n.child[b] = &node{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.asn, n.set = asn, true
	return nil
}

// Lookup returns the origin ASN of the longest matching prefix and whether
// any prefix matched.
func (t *Table) Lookup(addr netip.Addr) (uint32, bool) {
	if !addr.IsValid() {
		return 0, false
	}
	root := t.v4
	if addr.Is6() && !addr.Is4In6() {
		root = t.v6
	}
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	bits := addr.AsSlice()
	var best uint32
	found := false
	n := root
	for i := 0; i <= len(bits)*8; i++ {
		if n.set {
			best, found = n.asn, true
		}
		if i == len(bits)*8 {
			break
		}
		n = n.child[bit(bits, i)]
		if n == nil {
			break
		}
	}
	return best, found
}

// Len returns the number of installed prefixes.
func (t *Table) Len() int { return t.size }

func bit(b []byte, i int) int {
	return int(b[i/8]>>(7-i%8)) & 1
}

// Assignment couples a prefix with its origin AS; used to build tables from
// workload universes and to snapshot them in tests.
type Assignment struct {
	Prefix netip.Prefix
	ASN    uint32
}

// Build constructs a table from assignments, failing on the first invalid
// prefix.
func Build(assignments []Assignment) (*Table, error) {
	t := NewTable()
	for _, a := range assignments {
		if err := t.Insert(a.Prefix, a.ASN); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ParseTable reads a prefix→origin-ASN table in the plain text form a RIB
// dump reduces to: one "prefix asn" pair per line (whitespace separated,
// the ASN with or without an "AS" prefix), '#' comments and blank lines
// skipped. The returned table is NOT frozen — callers append local
// overrides first, then Freeze before handing it to readers.
func ParseTable(r io.Reader) (*Table, error) {
	t := NewTable()
	sc := bufio.NewScanner(r)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bgp: line %d: want \"prefix asn\", got %q", ln, line)
		}
		prefix, err := netip.ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bgp: line %d: %w", ln, err)
		}
		asnText := fields[1]
		if len(asnText) > 2 && (asnText[0] == 'A' || asnText[0] == 'a') && (asnText[1] == 'S' || asnText[1] == 's') {
			asnText = asnText[2:]
		}
		asn, err := strconv.ParseUint(asnText, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bgp: line %d: bad ASN %q: %w", ln, fields[1], err)
		}
		if err := t.Insert(prefix, uint32(asn)); err != nil {
			return nil, fmt.Errorf("bgp: line %d: %w", ln, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bgp: %w", err)
	}
	return t, nil
}

// LoadTable reads a prefix→ASN table file (see ParseTable for the format).
func LoadTable(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bgp: %w", err)
	}
	defer f.Close()
	return ParseTable(f)
}
