package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dnsname"
	"repro/internal/dnswire"
	"repro/internal/stream"
)

// Property: any name the correlator resolves was previously ingested as a
// query (the value side of some hashmap) — correlation never invents
// names.
func TestQuickResolvedNamesWereIngested(t *testing.T) {
	f := func(seed int64, nRecords uint8, nFlows uint8) bool {
		c := New(DefaultConfig())
		r := newDetRand(seed)
		ingested := map[string]bool{}
		ips := make([]string, 0, nRecords)
		for i := 0; i < int(nRecords)+1; i++ {
			q := fmt.Sprintf("name%d.example", r.next()%32)
			switch r.next() % 3 {
			case 0, 1:
				ip := fmt.Sprintf("198.51.%d.%d", r.next()%4, r.next()%64)
				ingest(c, stream.DNSRecord{Timestamp: t0, Query: q,
					RType: dnswire.TypeA, TTL: uint32(r.next() % 9000), Answer: ip})
				ips = append(ips, ip)
			default:
				target := fmt.Sprintf("name%d.example", r.next()%32)
				ingest(c, stream.DNSRecord{Timestamp: t0, Query: q,
					RType: dnswire.TypeCNAME, TTL: uint32(r.next() % 9000), Answer: target})
			}
			ingested[dnsname.Normalize(q)] = true
		}
		for i := 0; i < int(nFlows)+1 && len(ips) > 0; i++ {
			ip := ips[int(r.next()%uint64(len(ips)))]
			cf := correlate(c, flow(t0.Add(time.Second), ip, 10))
			if cf.Correlated() && !ingested[cf.Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: stats invariants hold under any ingest/correlate interleaving:
// Correlated + Misses + FlowInvalid == Flows, CorrelatedBytes <= FlowBytes,
// and the chain histogram sums to Correlated.
func TestQuickStatsInvariants(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		c := New(DefaultConfig())
		r := newDetRand(seed)
		for i := 0; i < int(ops)+1; i++ {
			switch r.next() % 4 {
			case 0:
				ingest(c, stream.DNSRecord{Timestamp: t0,
					Query:  fmt.Sprintf("n%d.example", r.next()%16),
					RType:  dnswire.TypeA,
					TTL:    60,
					Answer: fmt.Sprintf("198.51.0.%d", r.next()%32)})
			case 1:
				ingest(c, stream.DNSRecord{}) // invalid
			case 2:
				correlate(c, flow(t0, fmt.Sprintf("198.51.0.%d", r.next()%32), uint64(r.next()%5000)))
			default:
				correlate(c, flow(t0, fmt.Sprintf("203.0.113.%d", r.next()%32), uint64(r.next()%5000)))
			}
		}
		st := c.Stats()
		if st.Correlated+st.Misses+st.FlowInvalid != st.Flows {
			return false
		}
		if st.CorrelatedBytes > st.FlowBytes {
			return false
		}
		var hist uint64
		for _, h := range st.ChainHist {
			hist += h
		}
		return hist == st.Correlated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: in exact-TTL mode, a record never matches after its TTL has
// passed, for any TTL and any lag.
func TestQuickExactTTLNeverMatchesExpired(t *testing.T) {
	f := func(ttl uint16, lagSec uint16) bool {
		cfg := ConfigForVariant(VariantExactTTL)
		c := New(cfg)
		ingest(c, stream.DNSRecord{Timestamp: t0, Query: "q.example",
			RType: dnswire.TypeA, TTL: uint32(ttl), Answer: "198.51.100.200"})
		lag := time.Duration(lagSec) * time.Second
		cf := correlate(c, flow(t0.Add(lag), "198.51.100.200", 10))
		expired := lag > time.Duration(ttl)*time.Second
		if expired && cf.Correlated() {
			return false
		}
		if !expired && !cf.Correlated() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// detRand is a tiny deterministic generator for property tests (keeps the
// quick-generated seed as the only entropy source).
type detRand struct{ s uint64 }

func newDetRand(seed int64) *detRand { return &detRand{s: uint64(seed)*2654435761 + 1} }

func (d *detRand) next() uint64 {
	d.s ^= d.s << 13
	d.s ^= d.s >> 7
	d.s ^= d.s << 17
	return d.s
}
