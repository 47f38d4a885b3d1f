package workload

import (
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/dbl"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/resolvers"
	"repro/internal/stream"
)

// Generator emits the two synthetic streams over a universe. It is
// deterministic for a given (universe, seed) pair. A Generator is not safe
// for concurrent use; give each producing goroutine its own (the paper's
// deployment likewise shards its 26 NetFlow streams across sources).
type Generator struct {
	u    *Universe
	r    *rand.Rand
	zipf *rand.Zipf
	// rank[i] maps popularity rank i (0 = most popular) to a service index,
	// so that popularity is independent of a service's category.
	rank []int

	ispResolvers []netip.Addr
	pubResolvers []netip.Addr

	aTTL *ttlDist
	cTTL *ttlDist

	// recent is a time-windowed FIFO of edge announcements on the visible
	// DNS stream. Flows follow resolutions: most service traffic sources
	// from this window, which is what ties the correlation rate to the
	// clear-up/rotation machinery under test. Entries older than MaxFlowLag
	// are evicted as new announcements arrive.
	recent []recentEdge
}

type recentEdge struct {
	addr netip.Addr
	svc  *Service
	ts   time.Time
}

// ISP resolver addresses (the collectors' upstream); clients sit in
// 10.0.0.0/16.
var ispResolverAddrs = []netip.Addr{
	netip.AddrFrom4([4]byte{10, 255, 0, 1}),
	netip.AddrFrom4([4]byte{10, 255, 0, 2}),
	netip.AddrFrom4([4]byte{10, 255, 0, 3}),
	netip.AddrFrom4([4]byte{10, 255, 0, 4}),
}

// NewGenerator builds a generator over u with its own RNG stream.
func NewGenerator(u *Universe, seed int64) *Generator {
	r := rand.New(rand.NewSource(seed))
	pub := resolvers.NewSet().Addrs()
	// Keep only IPv4 resolvers for the v4 client population.
	v4pub := pub[:0]
	for _, a := range pub {
		if a.Is4() {
			v4pub = append(v4pub, a)
		}
	}
	g := &Generator{
		u:            u,
		r:            r,
		zipf:         rand.NewZipf(r, u.cfg.ZipfS, u.cfg.ZipfV, uint64(len(u.Services)-1)),
		rank:         rand.New(rand.NewSource(u.cfg.Seed + 7)).Perm(len(u.Services)),
		ispResolvers: ispResolverAddrs,
		pubResolvers: v4pub,
		aTTL:         aTTLDist(),
		cTTL:         cnameTTLDist(),
	}
	// Suspicious and malformed domains must not occupy the popularity head:
	// the paper finds their traffic "significant" but still only ~0.5 % of
	// the daily volume, i.e. nowhere near top-streaming-service rank.
	guard := len(g.rank) / 8
	bad := func(s *Service) bool { return s.Malformed || s.Category != dbl.Benign }
	j := guard
	for i := 0; i < guard && j < len(g.rank); i++ {
		if !bad(u.Services[g.rank[i]]) {
			continue
		}
		for j < len(g.rank) && bad(u.Services[g.rank[j]]) {
			j++
		}
		if j < len(g.rank) {
			g.rank[i], g.rank[j] = g.rank[j], g.rank[i]
			j++
		}
	}
	return g
}

// RankService returns the service at popularity rank i (0 = most popular).
func (g *Generator) RankService(i int) (*Service, int) {
	idx := g.rank[i]
	return g.u.Services[idx], idx
}

// pickService draws a service by Zipf popularity.
func (g *Generator) pickService() *Service {
	return g.u.Services[g.rank[g.zipf.Uint64()]]
}

// clientAddr draws a subscriber address.
func (g *Generator) clientAddr() netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(g.r.Intn(250)), byte(g.r.Intn(256)), byte(g.r.Intn(256))})
}

// DNSQueryEvent synthesizes one cache miss for a Zipf-drawn service: the
// CNAME chain plus the A/AAAA records of its visible edge IPs, exactly what
// the ISP resolver would forward to the collectors.
func (g *Generator) DNSQueryEvent(ts time.Time) []stream.DNSRecord {
	return g.queryEventFor(g.pickService(), ts)
}

func (g *Generator) queryEventFor(svc *Service, ts time.Time) []stream.DNSRecord {
	// CDN churn: occasionally the answer set moves to a fresh edge address
	// before being announced.
	if g.u.cfg.ChurnRate > 0 && g.r.Float64() < g.u.cfg.ChurnRate {
		g.u.RotateEdgeIP(svc, g.r.Intn(len(svc.ISPAddrs)))
	}
	recs := make([]stream.DNSRecord, 0, len(svc.Chain)+len(svc.ISPAddrs))
	alias := svc.Name
	for _, next := range svc.Chain {
		recs = append(recs, stream.DNSRecord{
			Timestamp: ts,
			Query:     alias,
			RType:     dnswire.TypeCNAME,
			TTL:       g.cTTL.sample(g.r),
			Answer:    next,
		})
		alias = next
	}
	edge := svc.EdgeName()
	// A response carries a handful of addresses; rotate which ones to mimic
	// CDN load balancing.
	n := len(svc.ISPAddrs)
	limit := 4
	if n < limit {
		limit = n
	}
	off := 0
	if n > 0 {
		off = g.r.Intn(n)
	}
	for k := 0; k < limit; k++ {
		addr := svc.ISPAddrs[(off+k)%n]
		rt := dnswire.TypeA
		if addr.Is6() {
			rt = dnswire.TypeAAAA
		}
		recs = append(recs, stream.DNSRecord{
			Timestamp: ts,
			Query:     edge,
			RType:     rt,
			TTL:       g.aTTL.sample(g.r),
			Addr:      addr,
		})
		g.noteAnnounced(addr, svc, ts)
	}
	return recs
}

// noteAnnounced records an edge announcement and evicts entries that have
// aged past MaxFlowLag (or that overflow the size cap).
func (g *Generator) noteAnnounced(addr netip.Addr, svc *Service, ts time.Time) {
	g.recent = append(g.recent, recentEdge{addr, svc, ts})
	cutoff := ts.Add(-g.u.cfg.MaxFlowLag)
	drop := 0
	for drop < len(g.recent) && g.recent[drop].ts.Before(cutoff) {
		drop++
	}
	if over := len(g.recent) - g.u.cfg.RecentWindow; over > drop {
		drop = over
	}
	if drop > 0 {
		g.recent = g.recent[drop:]
		// Reclaim when the backing array has grown far beyond the live
		// window.
		if cap(g.recent) > 4*len(g.recent) && cap(g.recent) > 1024 {
			g.recent = append(make([]recentEdge, 0, 2*len(g.recent)), g.recent...)
		}
	}
}

// SessionFor synthesizes one client session for service index i: the
// resolution (cache miss) followed by nFlows flows sourced from the
// just-announced edges. Experiments use it to guarantee a floor of traffic
// for specific domains (e.g. the §5 suspicious-domain population, which the
// paper observes carrying traffic every day).
func (g *Generator) SessionFor(i int, ts time.Time, nFlows int) ([]stream.DNSRecord, []netflow.FlowRecord) {
	svc := g.u.Services[i]
	recs := g.queryEventFor(svc, ts)
	flows := make([]netflow.FlowRecord, 0, nFlows)
	for k := 0; k < nFlows; k++ {
		src := svc.ISPAddrs[g.r.Intn(len(svc.ISPAddrs))]
		flows = append(flows, g.serviceFlow(ts.Add(time.Duration(k+1)*time.Second), svc, src))
	}
	return recs, flows
}

// DNSBatch synthesizes the records of `queries` cache misses at ts.
func (g *Generator) DNSBatch(ts time.Time, queries int) []stream.DNSRecord {
	out := make([]stream.DNSRecord, 0, queries*3)
	for i := 0; i < queries; i++ {
		out = append(out, g.DNSQueryEvent(ts)...)
	}
	return out
}

// FlowBatch synthesizes n flow records at ts: service traffic (CDN edge →
// client), non-DNS traffic, client DNS/DoT lookups for the coverage
// analysis, and occasional client→malformed-domain reverse flows (§5).
// The returned slice may exceed n by the reverse flows.
func (g *Generator) FlowBatch(ts time.Time, n int) []netflow.FlowRecord {
	out := make([]netflow.FlowRecord, 0, n+n/64)
	for i := 0; i < n; i++ {
		u := g.r.Float64()
		switch {
		case u < g.u.cfg.DNSPortTrafficFraction:
			out = append(out, g.dnsPortFlow(ts))
		case u < g.u.cfg.DNSPortTrafficFraction+g.u.cfg.NonDNSTrafficFraction:
			out = append(out, g.nonDNSFlow(ts))
		default:
			svc, src := g.pickFlowSource()
			out = append(out, g.serviceFlow(ts, svc, src))
			// §5: 2.7 % of clients receiving malformed-domain traffic send
			// traffic back; emit a reverse flow at a matching rate.
			if svc.Malformed && g.r.Float64() < 0.027 {
				out = append(out, g.reverseFlow(ts, svc))
			}
		}
	}
	return out
}

// pickFlowSource selects the (service, source address) of one service flow.
// With probability PublicResolverFraction the client resolved at a public
// resolver, so the source is an invisible edge. Otherwise the flow follows
// a recent visible resolution, except for a stale tail drawn from the whole
// population (old resolver-cache entries, long-lived connections).
func (g *Generator) pickFlowSource() (*Service, netip.Addr) {
	if g.r.Float64() < g.u.cfg.PublicResolverFraction {
		svc := g.pickService()
		if len(svc.PubAddrs) > 0 {
			return svc, svc.PubAddrs[g.r.Intn(len(svc.PubAddrs))]
		}
	}
	if len(g.recent) > 0 && g.r.Float64() >= g.u.cfg.StaleFlowFraction {
		e := g.recent[g.r.Intn(len(g.recent))]
		return e.svc, e.addr
	}
	svc := g.pickService()
	return svc, svc.ISPAddrs[g.r.Intn(len(svc.ISPAddrs))]
}

// serviceFlow emits one service→client flow from the given source edge.
func (g *Generator) serviceFlow(ts time.Time, svc *Service, src netip.Addr) netflow.FlowRecord {
	return netflow.FlowRecord{
		Timestamp: ts,
		SrcIP:     src,
		DstIP:     g.clientAddr(),
		SrcPort:   443,
		DstPort:   uint16(20000 + g.r.Intn(40000)),
		Proto:     netflow.ProtoTCP,
		Packets:   1 + uint64(g.r.Intn(1000)),
		Bytes:     sampleFlowBytes(g.r, svc.SizeFactor),
	}
}

// nonDNSFlow emits traffic whose source was never announced via DNS
// (P2P, direct-IP services, inbound scans...).
func (g *Generator) nonDNSFlow(ts time.Time) netflow.FlowRecord {
	src := netip.AddrFrom4([4]byte{172, byte(16 + g.r.Intn(16)), byte(g.r.Intn(256)), byte(g.r.Intn(256))})
	return netflow.FlowRecord{
		Timestamp: ts,
		SrcIP:     src,
		DstIP:     g.clientAddr(),
		SrcPort:   uint16(1024 + g.r.Intn(60000)),
		DstPort:   uint16(1024 + g.r.Intn(60000)),
		Proto:     netflow.ProtoTCP,
		Packets:   1 + uint64(g.r.Intn(100)),
		Bytes:     sampleFlowBytes(g.r, 1.0),
	}
}

// dnsPortFlow emits one client lookup flow (port 53/853). 1 in 20 goes to a
// public resolver (§4 Coverage).
func (g *Generator) dnsPortFlow(ts time.Time) netflow.FlowRecord {
	var dst netip.Addr
	if g.r.Float64() < g.u.cfg.PublicResolverFraction && len(g.pubResolvers) > 0 {
		dst = g.pubResolvers[g.r.Intn(len(g.pubResolvers))]
	} else {
		dst = g.ispResolvers[g.r.Intn(len(g.ispResolvers))]
	}
	port := uint16(netflow.PortDNS)
	proto := uint8(netflow.ProtoUDP)
	if g.r.Float64() < 0.10 {
		port = netflow.PortDoT
		proto = netflow.ProtoTCP
	}
	return netflow.FlowRecord{
		Timestamp: ts,
		SrcIP:     g.clientAddr(),
		DstIP:     dst,
		SrcPort:   uint16(20000 + g.r.Intn(40000)),
		DstPort:   port,
		Proto:     proto,
		Packets:   2,
		Bytes:     uint64(80 + g.r.Intn(400)),
	}
}

// reverseFlow emits client→service traffic toward a malformed domain's
// edge, mostly on non-web ports (the paper names OpenVPN and Kerberos).
func (g *Generator) reverseFlow(ts time.Time, svc *Service) netflow.FlowRecord {
	ports := []uint16{1194, 88, 4500, 500}
	return netflow.FlowRecord{
		Timestamp: ts,
		SrcIP:     g.clientAddr(),
		DstIP:     svc.ISPAddrs[g.r.Intn(len(svc.ISPAddrs))],
		SrcPort:   uint16(20000 + g.r.Intn(40000)),
		DstPort:   ports[g.r.Intn(len(ports))],
		Proto:     netflow.ProtoUDP,
		Packets:   1 + uint64(g.r.Intn(10)),
		Bytes:     uint64(100 + g.r.Intn(2000)),
	}
}
