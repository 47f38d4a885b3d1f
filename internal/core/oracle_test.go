package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnsname"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/stream"
)

// The reference model of Algorithms 1–2: one plain map per generation, no
// splits, shards, lanes, interning or batching. The differential test below
// holds the correlator to it record for record.

type modelEntry struct {
	value string
	exp   int64 // exact-TTL expiry in UnixNano; 0 on memo entries
}

// modelFamily is one hashmap family (IP-NAME or NAME-CNAME) with its
// active/inactive/long generations and its clear-up or sweep clock, both
// stepped by record time.
type modelFamily struct {
	active, inactive, long           map[string]modelEntry
	interval, sweepInterval          time.Duration
	rotation, clearUp, longOn, exact bool
	lastClear, lastSweep             int64
}

func newModelFamily(cfg Config, interval time.Duration) *modelFamily {
	return &modelFamily{
		active: map[string]modelEntry{}, inactive: map[string]modelEntry{}, long: map[string]modelEntry{},
		interval: interval, sweepInterval: cfg.ExactTTLSweepInterval,
		rotation: !cfg.DisableRotation, clearUp: !cfg.DisableClearUp,
		longOn: !cfg.DisableLong && !cfg.DisableClearUp, exact: cfg.ExactTTL,
	}
}

// put is Algorithm 1 for one record: clear up (rotate Active into Inactive)
// once interval has passed on the record clock, then place the record by
// TTL. Exact-TTL mode instead sweeps expired entries every sweepInterval
// and stores everything in Active with its expiry.
func (f *modelFamily) put(ts time.Time, ttl uint32, key, value string) {
	now := ts.UnixNano()
	if f.exact {
		if f.lastSweep == 0 {
			f.lastSweep = now
		} else if now-f.lastSweep >= int64(f.sweepInterval) {
			f.lastSweep = now
			for k, e := range f.active {
				if now > e.exp {
					delete(f.active, k)
				}
			}
		}
		f.active[key] = modelEntry{value, now + int64(ttl)*int64(time.Second)}
		return
	}
	if f.clearUp {
		if f.lastClear == 0 {
			f.lastClear = now
		} else if now-f.lastClear >= int64(f.interval) {
			if f.rotation {
				f.inactive = f.active
			}
			f.active = map[string]modelEntry{}
			f.lastClear = now
		}
	}
	if f.longOn && time.Duration(ttl)*time.Second >= f.interval {
		f.long[key] = modelEntry{value: value}
		return
	}
	f.active[key] = modelEntry{value: value}
}

// get is Algorithm 2's deepLookUp: Active, Inactive, then Long. An expired
// exact-TTL entry is a miss.
func (f *modelFamily) get(ts time.Time, key string) (string, Tier) {
	if e, ok := f.active[key]; ok {
		if f.exact && ts.UnixNano() > e.exp {
			return "", TierNone
		}
		return e.value, TierActive
	}
	if e, ok := f.inactive[key]; ok {
		return e.value, TierInactive
	}
	if e, ok := f.long[key]; ok {
		return e.value, TierLong
	}
	return "", TierNone
}

type model struct {
	ip, cname *modelFamily
	key       LookupKey
	limit     int
}

func newModel(cfg Config) *model {
	cfg = cfg.normalized()
	return &model{
		ip:    newModelFamily(cfg, cfg.AClearUpInterval),
		cname: newModelFamily(cfg, cfg.CClearUpInterval),
		key:   cfg.Key, limit: cfg.CNAMEChainLimit,
	}
}

func (m *model) ingest(rec stream.DNSRecord) {
	if !rec.IsValid() {
		return
	}
	value := dnsname.Normalize(rec.Query)
	switch rec.RType {
	case dnswire.TypeA, dnswire.TypeAAAA:
		addr := rec.Addr
		if !addr.IsValid() {
			var err error
			if addr, err = netip.ParseAddr(rec.Answer); err != nil {
				return
			}
		}
		k := addr.As16()
		m.ip.put(rec.Timestamp, rec.TTL, string(k[:]), value)
	case dnswire.TypeCNAME:
		m.cname.put(rec.Timestamp, rec.TTL, dnsname.Normalize(rec.Answer), value)
	}
}

// correlate resolves the flow's address to a name, then walks the CNAME
// chain back at most limit hops. A walk that reached the chain's end after
// more than one hop is memoized in Active; a walk the limit cut short is not.
func (m *model) correlate(fr netflow.FlowRecord) (string, Tier, int) {
	if !fr.IsValid() {
		return "", TierNone, 0
	}
	lookup := func(a netip.Addr) (string, Tier) {
		k := a.As16()
		return m.ip.get(fr.Timestamp, string(k[:]))
	}
	var name string
	var tier Tier
	switch m.key {
	case LookupDestination:
		name, tier = lookup(fr.DstIP)
	case LookupBoth:
		if name, tier = lookup(fr.SrcIP); tier == TierNone {
			name, tier = lookup(fr.DstIP)
		}
	default:
		name, tier = lookup(fr.SrcIP)
	}
	if tier == TierNone {
		return "", TierNone, 0
	}
	result, hops := name, 0
	for {
		next, t := m.cname.get(fr.Timestamp, result)
		if t == TierNone || next == result {
			break
		}
		if hops == m.limit {
			return result, tier, hops
		}
		result, hops = next, hops+1
	}
	if hops > 1 {
		m.cname.active[name] = modelEntry{value: result}
	}
	return result, tier, hops
}

// oracleEvent is one element of a random interleaved stream: a DNS record
// or, when dns is false, a flow.
type oracleEvent struct {
	dns  bool
	rec  stream.DNSRecord
	flow netflow.FlowRecord
}

// oracleStream draws n events over about seven simulated hours: several A
// and C clear-up intervals, TTLs on both sides of the long threshold and of
// the sweep interval, CNAME chains of 1–9 hops (the limit is 6), string and
// typed answers, invalid records, and slightly out-of-order timestamps.
func oracleStream(seed int64, n int) []oracleEvent {
	r := rand.New(rand.NewSource(seed))
	var addrs []netip.Addr
	for i := 0; i < 40; i++ {
		addrs = append(addrs, netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}))
	}
	for i := 0; i < 10; i++ {
		addrs = append(addrs, netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", i+1)))
	}
	// chains[c][0] is the service name, chains[c][len-1] the A-record name.
	var chains [][]string
	for c := 0; c < 12; c++ {
		hops := 1 + c%9
		chain := []string{fmt.Sprintf("svc%d.example", c)}
		for h := 1; h <= hops; h++ {
			chain = append(chain, fmt.Sprintf("c%d-h%d.cdn.example", c, h))
		}
		chains = append(chains, chain)
	}
	ttls := []uint32{5, 30, 60, 300, 900, 3600, 7200, 86400}
	ts := t0
	out := make([]oracleEvent, 0, n)
	for i := 0; i < n; i++ {
		ts = ts.Add(time.Duration(r.Intn(30)) * time.Second)
		if r.Intn(100) == 0 {
			ts = ts.Add(time.Duration(20+r.Intn(40)) * time.Minute)
		}
		at := ts
		if r.Intn(20) == 0 {
			at = ts.Add(-time.Duration(r.Intn(10)) * time.Second)
		}
		chain := chains[r.Intn(len(chains))]
		ttl := ttls[r.Intn(len(ttls))]
		addr := addrs[r.Intn(len(addrs))]
		switch k := r.Intn(100); {
		case k < 30:
			q := chain[len(chain)-1]
			if r.Intn(4) == 0 {
				q = fmt.Sprintf("plain%d.example", r.Intn(20))
			}
			rec := stream.DNSRecord{Timestamp: at, Query: q, RType: dnswire.TypeA, TTL: ttl, Addr: addr}
			if addr.Is6() {
				rec.RType = dnswire.TypeAAAA
			}
			switch r.Intn(10) {
			case 0:
				rec.Addr, rec.Answer = netip.Addr{}, addr.String()
			case 1:
				rec.Addr, rec.Answer = netip.Addr{}, "not-an-ip"
			case 2:
				rec.Query = ""
			}
			out = append(out, oracleEvent{dns: true, rec: rec})
		case k < 45:
			h := 1 + r.Intn(len(chain)-1)
			alias, canonical := chain[h-1], chain[h]
			if r.Intn(8) == 0 {
				alias = "SVC-Alias.Example." // normalized on ingest
			}
			out = append(out, oracleEvent{dns: true, rec: stream.DNSRecord{
				Timestamp: at, Query: alias, RType: dnswire.TypeCNAME, TTL: ttl, Answer: canonical}})
		default:
			fr := netflow.FlowRecord{Timestamp: at, SrcIP: addr, DstIP: addrs[r.Intn(len(addrs))],
				Packets: 1, Bytes: 100, Proto: netflow.ProtoTCP}
			if r.Intn(50) == 0 {
				fr = netflow.FlowRecord{}
			}
			out = append(out, oracleEvent{flow: fr})
		}
	}
	return out
}

// TestOracleDifferential feeds random interleaved DNS/flow streams through
// the reference model and through the synchronous correlator — one-element
// IngestDNSBatch calls, CorrelateBatch over each run of consecutive flows —
// under every variant × NumSplit × LookupKey. Every flow's (Name, Tier,
// ChainLen) must match.
func TestOracleDifferential(t *testing.T) {
	variants := append(AllVariants(), VariantExactTTL)
	for seed := int64(1); seed <= 3; seed++ {
		events := oracleStream(seed, 3000)
		for _, v := range variants {
			for _, splits := range []int{1, 3, 10} {
				for _, key := range []LookupKey{LookupSource, LookupDestination, LookupBoth} {
					cfg := ConfigForVariant(v)
					cfg.NumSplit, cfg.Key, cfg.QueueCap = splits, key, 64
					name := fmt.Sprintf("seed=%d/%s/splits=%d/%s", seed, v, splits, key)
					oracleRun(t, name, cfg, events)
				}
			}
		}
	}
}

func oracleRun(t *testing.T, name string, cfg Config, events []oracleEvent) {
	t.Helper()
	c, m := New(cfg), newModel(cfg)
	var flows []netflow.FlowRecord
	var out []CorrelatedFlow
	checked, chained := 0, 0
	flush := func() {
		out = c.CorrelateBatch(out[:0], flows)
		for i, fr := range flows {
			wn, wt, wh := m.correlate(fr)
			if got := out[i]; got.Name != wn || got.Tier != wt || got.ChainLen != wh {
				t.Fatalf("%s: flow %d (%v → %v at %v): correlator %q/%v/%d, model %q/%v/%d",
					name, checked, fr.SrcIP, fr.DstIP, fr.Timestamp, got.Name, got.Tier, got.ChainLen, wn, wt, wh)
			}
			if wh > 1 {
				chained++
			}
			checked++
		}
		flows = flows[:0]
	}
	for _, ev := range events {
		if !ev.dns {
			flows = append(flows, ev.flow)
			continue
		}
		flush()
		c.IngestDNSBatch([]stream.DNSRecord{ev.rec})
		m.ingest(ev.rec)
	}
	flush()
	if chained == 0 {
		t.Fatalf("%s: no flow walked a multi-hop chain; the stream exercises nothing", name)
	}
}
