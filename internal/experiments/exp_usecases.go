package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dbl"
	"repro/internal/dnsname"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Per-source-AS traffic for streaming services S1 and S2 over a week",
		Paper: "Figure 4 (a, b)",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Cumulative traffic volume per number of domain names, by category",
		Paper: "Figure 5 + §5 spam/invalid-domain analysis",
		Run:   runFig5,
	})
}

// runFig4 sets up the paper's two streaming services: S1 served from a
// single CDN (one origin AS) and S2 multi-CDN across two ASes, runs a week,
// and attributes correlated bytes to source ASes via the BGP table.
func runFig4(scale float64) *Result {
	scale = clampScale(scale)
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 5) // only for rank lookup; RunSim has its own
	s1, s1idx := g.RankService(1)
	s2, s2idx := g.RankService(2)
	u.PinServiceToCDNs(s1idx, []int{0}, 4)
	u.PinServiceToCDNs(s2idx, []int{1, 2}, 4)
	tbl, err := u.BGPTable()
	if err != nil {
		panic(fmt.Sprintf("fig4: bgp table: %v", err))
	}

	// accumulate per service per AS per hour
	type hourAS map[uint32]uint64
	s1Hours := make([]hourAS, 0)
	s2Hours := make([]hourAS, 0)
	ensure := func(s []hourAS, h int) []hourAS {
		for len(s) <= h {
			s = append(s, make(hourAS))
		}
		return s
	}
	res := RunSim(SimParams{
		Variant:      core.VariantMain,
		Days:         7,
		DNSPerHour:   int(3000 * scale),
		FlowsPerHour: int(30000 * scale),
		Seed:         5,
		Universe:     u,
		OnFlow: func(h int, cf core.CorrelatedFlow) {
			if !cf.Correlated() {
				return
			}
			var target []hourAS
			switch cf.Name {
			case dnsname.Normalize(s1.Name):
				s1Hours = ensure(s1Hours, h)
				target = s1Hours
			case dnsname.Normalize(s2.Name):
				s2Hours = ensure(s2Hours, h)
				target = s2Hours
			default:
				return
			}
			asn, _ := tbl.Lookup(cf.Flow.SrcIP)
			target[h][asn] += cf.Flow.Bytes
		},
	})
	_ = res

	r := &Result{ID: "fig4", Title: "Per-AS traffic for S1 (single-CDN) and S2 (multi-CDN)"}
	sumAS := func(hours []hourAS) map[uint32]uint64 {
		out := make(map[uint32]uint64)
		for _, h := range hours {
			for asn, b := range h {
				out[asn] += b
			}
		}
		return out
	}
	s1Total, s2Total := sumAS(s1Hours), sumAS(s2Hours)
	printSvc := func(label string, total map[uint32]uint64) {
		asns := make([]uint32, 0, len(total))
		var sum uint64
		for asn, b := range total {
			asns = append(asns, asn)
			sum += b
		}
		sort.Slice(asns, func(i, j int) bool { return total[asns[i]] > total[asns[j]] })
		r.addLine("%s: total bytes %d across %d source ASes", label, sum, len(asns))
		for _, asn := range asns {
			r.addLine("  AS%-6d %12d bytes (%.1f%%)", asn, total[asn], 100*float64(total[asn])/float64(sum))
		}
	}
	printSvc("S1 "+s1.Name, s1Total)
	printSvc("S2 "+s2.Name, s2Total)

	domShare := func(total map[uint32]uint64, k int) float64 {
		var all uint64
		vals := make([]uint64, 0, len(total))
		for _, b := range total {
			all += b
			vals = append(vals, b)
		}
		if all == 0 {
			return 0
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
		var top uint64
		for i := 0; i < k && i < len(vals); i++ {
			top += vals[i]
		}
		return float64(top) / float64(all)
	}
	r.set("s1_as_count", float64(len(s1Total)))
	r.set("s2_as_count", float64(len(s2Total)))
	r.set("s1_top1_share", domShare(s1Total, 1))
	r.set("s2_top2_share", domShare(s2Total, 2))
	r.Headline = fmt.Sprintf("S1: %d AS (top-1 %.0f%%); S2: %d ASes (top-2 %.0f%%)",
		len(s1Total), 100*domShare(s1Total, 1), len(s2Total), 100*domShare(s2Total, 2))
	return r
}

// runFig5 runs one day, tags every correlated domain with its DBL category
// or RFC 1035 violation, and prints the cumulative traffic-volume
// distribution per number of domain names for each category. On top of the
// Zipf background, every suspicious/malformed domain gets a small hourly
// session — the paper's figure exists because these domains do carry
// traffic every day at ISP scale.
func runFig5(scale float64) *Result {
	scale = clampScale(scale)
	u := workload.NewUniverse(workload.DefaultConfig())
	nGuaranteed := u.Config().SuspiciousServices + u.Config().MalformedServices
	// A CountingSink's WriteBatch never fails, so its error is dropped.
	sink := core.NewCountingSink()
	ctx := context.Background()
	c := core.New(core.DefaultConfig(), nil)
	g := workload.NewGenerator(u, 6)
	var out []core.CorrelatedFlow
	const steps = 6
	for h := 0; h < 24; h++ {
		hourStart := SimStart.Add(time.Duration(h) * time.Hour)
		mult := workload.DiurnalMultiplier(float64(h))
		dns := int(4000 * scale * mult)
		flows := int(40000 * scale * mult)
		for s := 0; s < steps; s++ {
			ts := hourStart.Add(time.Duration(s) * time.Hour / steps)
			c.IngestDNSBatch(g.DNSBatch(ts, dns/steps))
			out = c.CorrelateBatch(out[:0], g.FlowBatch(ts, flows/steps))
			_ = sink.WriteBatch(ctx, out)
		}
		// Guaranteed floor: a scale-proportional round-robin slice of the
		// suspicious/malformed population gets one session this hour, so
		// every category carries traffic without distorting its tiny share
		// of the total volume.
		perHour := int(float64(nGuaranteed) * scale / 4)
		if perHour < 6 {
			perHour = 6
		}
		for k := 0; k < perHour; k++ {
			i := (h*perHour + k) % nGuaranteed
			recs, fl := g.SessionFor(i, hourStart.Add(30*time.Minute), 2)
			c.IngestDNSBatch(recs)
			out = c.CorrelateBatch(out[:0], fl)
			_ = sink.WriteBatch(ctx, out)
		}
	}

	// Classify every correlated domain once (the paper samples hourly to
	// respect DBL rate limits; our sampler mirrors that dedup).
	sampler := dbl.NewSampler()
	catBytes := make(map[string]map[string]uint64) // category -> domain -> bytes
	addCat := func(cat, domain string, b uint64) {
		if catBytes[cat] == nil {
			catBytes[cat] = make(map[string]uint64)
		}
		catBytes[cat][domain] += b
	}
	report := dnsname.NewReport()
	var totalBytes, suspiciousBytes, malformedBytes uint64
	for domain, b := range sink.Bytes() {
		if domain == "" {
			continue
		}
		totalBytes += b
		if sampler.Checked(domain) {
			report.Add(domain)
		}
		if v := dnsname.Check(domain); v != dnsname.OK {
			addCat("mal-formatted", domain, b)
			malformedBytes += b
		}
		if cat := u.Blocklist.Lookup(domain); cat != dbl.Benign {
			addCat(cat.String(), domain, b)
			suspiciousBytes += b
		}
	}

	r := &Result{ID: "fig5", Title: "Cumulative traffic volume per #domains, by category"}
	cats := []string{"spam", "botnet", "abused-redirector", "malware", "phish", "mal-formatted"}
	for _, cat := range cats {
		domains := catBytes[cat]
		vols := make([]uint64, 0, len(domains))
		for _, b := range domains {
			vols = append(vols, b)
		}
		sort.Slice(vols, func(i, j int) bool { return vols[i] > vols[j] })
		r.addLine("%s: %d domains", cat, len(vols))
		var cum uint64
		for i, v := range vols {
			cum += v
			r.addLine("  top-%d domains -> %d cumulative bytes", i+1, cum)
			if i >= 9 {
				break
			}
		}
		r.set(cat+"_domains", float64(len(vols)))
		// Concentration: share of the category's traffic from its top domain.
		if cum > 0 && len(vols) > 0 {
			var tot uint64
			for _, v := range vols {
				tot += v
			}
			r.set(cat+"_top1_share", float64(vols[0])/float64(tot))
		}
	}
	r.set("suspicious_traffic_share", ratio(float64(suspiciousBytes), float64(totalBytes)))
	r.set("malformed_traffic_share", ratio(float64(malformedBytes), float64(totalBytes)))
	r.set("invalid_domain_share", report.InvalidShare())
	r.set("underscore_share", report.UnderscoreShare())
	r.set("unique_domains", float64(report.Total))
	r.set("corr_rate", c.Stats().CorrelationRate())
	r.Headline = fmt.Sprintf("%d unique domains; invalid %.2f%% of names (underscores in %.0f%% of them); suspicious+malformed traffic %.2f%%",
		report.Total, 100*report.InvalidShare(), 100*report.UnderscoreShare(),
		100*(ratio(float64(suspiciousBytes+malformedBytes), float64(totalBytes))))
	return r
}
