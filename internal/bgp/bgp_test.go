package bgp

import (
	"errors"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLookupLongestPrefixWins(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Insert(mustPrefix(t, "10.0.0.0/8"), 100); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(mustPrefix(t, "10.1.0.0/16"), 200); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(mustPrefix(t, "10.1.2.0/24"), 300); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr string
		want uint32
	}{
		{"10.9.9.9", 100},
		{"10.1.9.9", 200},
		{"10.1.2.9", 300},
	}
	for _, c := range cases {
		got, ok := tbl.Lookup(netip.MustParseAddr(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %d,%v; want %d", c.addr, got, ok, c.want)
		}
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("no-match address matched")
	}
}

func TestLookupIPv6(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(mustPrefix(t, "2001:db8::/32"), 64500)
	tbl.Insert(mustPrefix(t, "2001:db8:1::/48"), 64501)
	if got, _ := tbl.Lookup(netip.MustParseAddr("2001:db8:2::1")); got != 64500 {
		t.Errorf("v6 short = %d", got)
	}
	if got, _ := tbl.Lookup(netip.MustParseAddr("2001:db8:1::1")); got != 64501 {
		t.Errorf("v6 long = %d", got)
	}
	// v4 does not leak into the v6 trie and vice versa.
	if _, ok := tbl.Lookup(netip.MustParseAddr("32.1.13.184")); ok {
		t.Error("v4 matched v6 trie")
	}
}

func TestLookup4In6(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(mustPrefix(t, "192.0.2.0/24"), 7)
	got, ok := tbl.Lookup(netip.MustParseAddr("::ffff:192.0.2.5"))
	if !ok || got != 7 {
		t.Errorf("4-in-6 = %d,%v", got, ok)
	}
}

func TestInsertExactReplaces(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(mustPrefix(t, "10.0.0.0/8"), 1)
	tbl.Insert(mustPrefix(t, "10.0.0.0/8"), 2)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if got, _ := tbl.Lookup(netip.MustParseAddr("10.0.0.1")); got != 2 {
		t.Fatalf("got %d", got)
	}
}

func TestInsertInvalid(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Insert(netip.Prefix{}, 1); err == nil {
		t.Fatal("invalid prefix accepted")
	}
	if _, ok := tbl.Lookup(netip.Addr{}); ok {
		t.Fatal("invalid addr matched")
	}
}

func TestDefaultRoute(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(mustPrefix(t, "0.0.0.0/0"), 1)
	if got, ok := tbl.Lookup(netip.MustParseAddr("203.0.113.9")); !ok || got != 1 {
		t.Fatalf("default route = %d,%v", got, ok)
	}
}

func TestHostRoute(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(mustPrefix(t, "198.51.100.7/32"), 9)
	if got, ok := tbl.Lookup(netip.MustParseAddr("198.51.100.7")); !ok || got != 9 {
		t.Fatalf("host route = %d,%v", got, ok)
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("198.51.100.8")); ok {
		t.Fatal("neighbor matched host route")
	}
}

func TestBuild(t *testing.T) {
	tbl, err := Build([]Assignment{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), ASN: 1},
		{Prefix: mustPrefix(t, "172.16.0.0/12"), ASN: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if _, err := Build([]Assignment{{}}); err == nil {
		t.Fatal("Build accepted invalid assignment")
	}
}

// Property: the trie agrees with a linear scan over masked prefixes.
func TestQuickTrieMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var assignments []Assignment
		tbl := NewTable()
		for i := 0; i < 50; i++ {
			bits := r.Intn(25) + 8
			addr := netip.AddrFrom4([4]byte{byte(r.Intn(224)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
			p, err := addr.Prefix(bits)
			if err != nil {
				return false
			}
			a := Assignment{Prefix: p, ASN: uint32(i + 1)}
			assignments = append(assignments, a)
			tbl.Insert(p, a.ASN)
		}
		for i := 0; i < 200; i++ {
			probe := netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
			var wantASN uint32
			wantBits := -1
			for _, a := range assignments {
				if a.Prefix.Contains(probe) && a.Prefix.Bits() > wantBits {
					// Later equal-length inserts overwrite earlier ones.
					wantASN, wantBits = a.ASN, a.Prefix.Bits()
				} else if a.Prefix.Contains(probe) && a.Prefix.Bits() == wantBits {
					wantASN = a.ASN
				}
			}
			got, ok := tbl.Lookup(probe)
			if wantBits < 0 {
				if ok {
					return false
				}
				continue
			}
			if !ok || got != wantASN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	tbl := NewTable()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		addr := netip.AddrFrom4([4]byte{byte(r.Intn(224)), byte(r.Intn(256)), 0, 0})
		p, _ := addr.Prefix(r.Intn(17) + 8)
		tbl.Insert(p, uint32(i))
	}
	probes := make([]netip.Addr, 1024)
	for i := range probes {
		probes[i] = netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(probes[i&1023])
	}
}

// TestFreezeContract enforces the build-then-read phase switch: inserts
// succeed before Freeze, fail with ErrFrozen after, and the frozen table
// keeps answering lookups.
func TestFreezeContract(t *testing.T) {
	tbl := NewTable()
	if tbl.Frozen() {
		t.Fatal("new table already frozen")
	}
	if err := tbl.Insert(netip.MustParsePrefix("192.0.2.0/24"), 64500); err != nil {
		t.Fatal(err)
	}
	tbl.Freeze()
	if !tbl.Frozen() {
		t.Fatal("Freeze did not stick")
	}
	if err := tbl.Insert(netip.MustParsePrefix("198.51.100.0/24"), 64501); !errors.Is(err, ErrFrozen) {
		t.Fatalf("post-freeze Insert err = %v, want ErrFrozen", err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after rejected insert, want 1", tbl.Len())
	}
	asn, ok := tbl.Lookup(netip.MustParseAddr("192.0.2.7"))
	if !ok || asn != 64500 {
		t.Fatalf("frozen lookup = %d/%v", asn, ok)
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("198.51.100.7")); ok {
		t.Fatal("rejected prefix is resolvable")
	}
}

// TestFrozenTableConcurrency is the pipeline-lifecycle race test: a table
// built and frozen at startup, then hammered by concurrent readers (the
// rollup sink's Write workers) while stray Inserts are rejected. Run under
// -race this proves the build-then-read contract is enforceable, not just
// documented.
func TestFrozenTableConcurrency(t *testing.T) {
	tbl := NewTable()
	r := rand.New(rand.NewSource(7))
	type probe struct {
		addr netip.Addr
		asn  uint32
	}
	var probes []probe
	for i := 0; i < 512; i++ {
		addr := netip.AddrFrom4([4]byte{byte(10 + r.Intn(200)), byte(r.Intn(256)), byte(r.Intn(256)), 1})
		p, _ := addr.Prefix(24)
		asn := uint32(64500 + i)
		if err := tbl.Insert(p, asn); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{addr, asn})
	}
	tbl.Freeze()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				p := probes[(i*31+seed)%len(probes)]
				asn, ok := tbl.Lookup(p.addr)
				if !ok || asn != p.asn {
					t.Errorf("concurrent lookup %v = %d/%v, want %d", p.addr, asn, ok, p.asn)
					return
				}
			}
		}(w)
	}
	// A mistaken late writer: every insert must bounce off the freeze
	// without touching the trie the readers are walking.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p := netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, byte(seed), byte(i % 256)}), 32)
				if err := tbl.Insert(p, 65000); !errors.Is(err, ErrFrozen) {
					t.Errorf("late Insert err = %v, want ErrFrozen", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != 512 {
		t.Fatalf("Len = %d after rejected inserts, want 512", tbl.Len())
	}
}

// TestParseTable covers the startup loader: comments, blank lines, AS
// prefixes, v4/v6, and the rejection paths.
func TestParseTable(t *testing.T) {
	tbl, err := ParseTable(strings.NewReader(`
# full-table reduction
192.0.2.0/24    64500
198.51.100.0/24 AS64501
2001:db8::/32   as64502

203.0.113.0/24  64503
`))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tbl.Len())
	}
	if tbl.Frozen() {
		t.Fatal("ParseTable must not freeze (callers may append overrides)")
	}
	for addr, want := range map[string]uint32{
		"192.0.2.9":     64500,
		"198.51.100.1":  64501,
		"2001:db8::dea": 64502,
		"203.0.113.254": 64503,
	} {
		asn, ok := tbl.Lookup(netip.MustParseAddr(addr))
		if !ok || asn != want {
			t.Errorf("Lookup(%s) = %d/%v, want %d", addr, asn, ok, want)
		}
	}
	for _, bad := range []string{
		"192.0.2.0/24",            // missing ASN
		"192.0.2.0/24 64500 junk", // trailing field
		"not-a-prefix 64500",
		"192.0.2.0/24 AS",          // empty ASN after prefix strip
		"192.0.2.0/24 badasn",      // non-numeric
		"192.0.2.0/24 99999999999", // out of uint32 range
	} {
		if _, err := ParseTable(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTable(%q) accepted", bad)
		}
	}
}

func TestLoadTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.txt")
	if err := os.WriteFile(path, []byte("192.0.2.0/24 64500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if asn, ok := tbl.Lookup(netip.MustParseAddr("192.0.2.1")); !ok || asn != 64500 {
		t.Fatalf("loaded lookup = %d/%v", asn, ok)
	}
	if _, err := LoadTable(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}
