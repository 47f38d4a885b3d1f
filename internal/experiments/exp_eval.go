package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/netflow"
	"repro/internal/pcaplite"
	"repro/internal/resolvers"
	"repro/internal/stream"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "corr",
		Title: "Headline correlation rate, loss, and write delay (Main)",
		Paper: "§4 evaluation headline (81.7 %, <=0.01 % loss, <=45 s delay)",
		Run:   runCorr,
	})
	register(Experiment{
		ID:    "coverage",
		Title: "DNS coverage from public-resolver traffic share",
		Paper: "§4 Coverage (95 %)",
		Run:   runCoverage,
	})
	register(Experiment{
		ID:    "accuracy",
		Title: "Two-website accuracy scenarios",
		Paper: "§4 Accuracy (100 % distinct IPs, 50 % shared IP)",
		Run:   runAccuracy,
	})
	register(Experiment{
		ID:    "exactttl",
		Title: "Exact-TTL expiry anti-benchmark",
		Paper: "Appendix A.8 (>90 % loss, ~2x memory)",
		Run:   runExactTTL,
	})
}

// runCorr drives the full asynchronous pipeline (sources + queues +
// workers, as deployed) over one simulated day and reports the §4 headline
// metrics. The workload enters through the v2 Source/Ingest façade exactly
// as the wire sources do.
func runCorr(scale float64) *Result {
	scale = clampScale(scale)
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 11)
	var c *core.Correlator // assigned before Run starts the source
	day := stream.SourceFunc(func(ctx context.Context, in stream.Ingest) error {
		steps := 6
		var sent uint64
		for h := 0; h < 24; h++ {
			hourStart := SimStart.Add(time.Duration(h) * time.Hour)
			mult := workload.DiurnalMultiplier(float64(h))
			dns := int(3000 * scale * mult)
			flows := int(30000 * scale * mult)
			for s := 0; s < steps; s++ {
				if ctx.Err() != nil {
					return nil
				}
				ts := hourStart.Add(time.Duration(s) * time.Hour / time.Duration(steps))
				sent += uint64(in.OfferDNSBatch(g.DNSBatch(ts, dns/steps)))
				// Let fills lead lookups within the step, as they do in a
				// live deployment (the resolution precedes the flow by at
				// least the client's connect latency; our step granularity
				// is far coarser). Wait on the ingested counter, not queue
				// depth: dequeued records may still be mid-ingest.
				for {
					st := c.Stats()
					if st.DNSRecords+st.DNSInvalid >= sent {
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
				in.OfferFlowBatch(g.FlowBatch(ts, flows/steps))
			}
		}
		return nil
	})
	c = core.New(core.DefaultConfig(), core.WithSources(day))
	if err := c.Run(context.Background()); err != nil {
		panic(fmt.Sprintf("corr: %v", err))
	}
	st := c.Stats()
	r := &Result{ID: "corr", Title: "Headline metrics over one simulated day (async pipeline)"}
	r.addLine("correlation rate (bytes): %.4f", st.CorrelationRate())
	r.addLine("correlation rate (flows): %.4f", st.CorrelationRateFlows())
	r.addLine("stream loss rate:         %.6f", st.LossRate())
	r.addLine("max write delay:          %v", time.Duration(st.MaxWriteDelayNs))
	r.addLine("lookup tier hits:         active=%d inactive=%d long=%d miss=%d",
		st.HitActive, st.HitInactive, st.HitLong, st.Misses)
	r.addLine("rotations:                IP-NAME=%d NAME-CNAME=%d", st.IPNameRotations, st.NameCnameRotations)
	r.addLine("memoized chain results:   %d", st.Memoized)
	r.set("corr_rate", st.CorrelationRate())
	r.set("loss_rate", st.LossRate())
	r.set("write_delay_seconds", time.Duration(st.MaxWriteDelayNs).Seconds())
	r.set("hit_inactive", float64(st.HitInactive))
	r.set("hit_long", float64(st.HitLong))
	r.Headline = fmt.Sprintf("corr=%.3f (paper 0.817), loss=%.5f (paper <=0.0001), write delay %v (paper <=45 s)",
		st.CorrelationRate(), st.LossRate(), time.Duration(st.MaxWriteDelayNs).Round(time.Millisecond))
	return r
}

// runCoverage filters one simulated hour of flow records for DNS/DoT ports
// and measures the share destined to public resolvers.
func runCoverage(scale float64) *Result {
	scale = clampScale(scale)
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 12)
	pub := resolvers.NewSet()
	var dnsPackets, publicPackets int
	flows := int(400000 * scale)
	for i := 0; i < flows; i += 1000 {
		ts := SimStart.Add(time.Duration(i) * time.Millisecond)
		for _, fr := range g.FlowBatch(ts, 1000) {
			if fr.DstPort != netflow.PortDNS && fr.DstPort != netflow.PortDoT {
				continue
			}
			dnsPackets++
			if pub.Contains(fr.DstIP) {
				publicPackets++
			}
		}
	}
	frac := ratio(float64(publicPackets), float64(dnsPackets))
	coverage := 1 - frac
	r := &Result{ID: "coverage", Title: "Coverage from port-53/853 flow analysis"}
	r.addLine("DNS/DoT flows sampled:      %d", dnsPackets)
	r.addLine("to public resolvers:        %d (%.4f)", publicPackets, frac)
	r.addLine("coverage = 1 - share:       %.4f", coverage)
	r.set("dns_flows", float64(dnsPackets))
	r.set("public_share", frac)
	r.set("coverage", coverage)
	r.Headline = fmt.Sprintf("1 in %.1f DNS packets to public resolvers -> coverage %.3f (paper: 1 in 20 -> 0.95)",
		1/frac, coverage)
	return r
}

// runAccuracy reproduces the §4 small-scale accuracy analysis: two browsed
// websites, traffic captured, DNS packets fed as the DNS stream and Netflow
// records built from the data packets.
func runAccuracy(_ float64) *Result {
	r := &Result{ID: "accuracy", Title: "Two-website accuracy scenarios"}
	client := netip.MustParseAddr("10.0.0.42")

	grade := func(tr *pcaplite.Trace) float64 {
		c := core.New(core.DefaultConfig(), nil)
		recs, err := tr.DNSRecords()
		if err != nil {
			panic(fmt.Sprintf("accuracy: %v", err))
		}
		// Consecutive capture records carry their own timestamps: one
		// record per fill keeps the record clock exact.
		for i := range recs {
			c.IngestDNSBatch(recs[i : i+1])
		}
		var correct, total uint64
		for _, cf := range c.CorrelateBatch(nil, tr.FlowRecords()) {
			total += cf.Flow.Bytes
			if cf.Name == tr.TruthFor(cf.Flow) {
				correct += cf.Flow.Bytes
			}
		}
		return ratio(float64(correct), float64(total))
	}

	// Scenario 1: different domains, different IPs.
	var tr1 pcaplite.Trace
	tr1.Browse(SimStart, pcaplite.Website{Domain: "site-a.example", Addr: netip.MustParseAddr("198.51.100.1"), DataPackets: 20}, client)
	tr1.Browse(SimStart.Add(time.Second), pcaplite.Website{Domain: "site-b.example", Addr: netip.MustParseAddr("198.51.100.2"), DataPackets: 20}, client)
	acc1 := grade(&tr1)

	// Scenario 2: different domains, same IP — the second DNS answer
	// overwrites the first, halving byte accuracy.
	shared := netip.MustParseAddr("198.51.100.3")
	var tr2 pcaplite.Trace
	tr2.Browse(SimStart, pcaplite.Website{Domain: "site-a.example", Addr: shared, DataPackets: 20}, client)
	tr2.Browse(SimStart.Add(time.Second), pcaplite.Website{Domain: "site-b.example", Addr: shared, DataPackets: 20}, client)
	acc2 := grade(&tr2)

	r.addLine("scenario 1 (distinct IPs): accuracy %.2f", acc1)
	r.addLine("scenario 2 (shared IP):    accuracy %.2f", acc2)
	r.set("scenario1_accuracy", acc1)
	r.set("scenario2_accuracy", acc2)
	r.Headline = fmt.Sprintf("accuracy %.0f%% / %.0f%% (paper: 100%% / 50%%)", 100*acc1, 100*acc2)
	return r
}

// runExactTTL compares the Main design against the Appendix A.8
// exact-TTL-expiry anti-design under identical offered load: the sustained
// DNS insertion rate (the appendix's own bottleneck — "the DNS insertion
// rate cannot keep up"), implied stream loss at an offered rate Main
// sustains, and state/correlation behaviour from an interleaved replay.
func runExactTTL(scale float64) *Result {
	scale = clampScale(scale)
	u := workload.NewUniverse(workload.DefaultConfig())

	prep := func(seed int64) ([]stream.DNSRecord, []netflow.FlowRecord) {
		g := workload.NewGenerator(u, seed)
		var dns []stream.DNSRecord
		var flows []netflow.FlowRecord
		// One simulated hour of dense traffic: record volume per simulated
		// second is high (as at the ISP), so the exact-TTL sweeps — every 5
		// simulated seconds — each scan a populated map. The gap between
		// Main and ExactTTL grows with this density; the paper's 75K rec/s
		// feed made it catastrophic (>90 % loss).
		steps := 360
		for s := 0; s < steps; s++ {
			ts := SimStart.Add(time.Duration(s) * 10 * time.Second)
			dns = append(dns, g.DNSBatch(ts, int(2000*scale))...)
			flows = append(flows, g.FlowBatch(ts, int(8000*scale))...)
		}
		return dns, flows
	}

	// Sweeps must keep pace with expiry (70 % of TTLs are <= 300 s); a
	// 5-second sweep on the record clock is the fidelity-preserving choice
	// and is what puts the scan overhead on the measured path.
	const sweepInterval = 5 * time.Second

	// Sustained DNS insertion rate: fills only, timed. This is the A.8
	// comparison proper — both variants run the identical allocation-free
	// typed fill path, so the measured difference is exactly the cost the
	// exact-TTL design adds on top: the per-put expiry bookkeeping and the
	// periodic scan of every shard of every split ("a regular process to
	// clear-up the expired DNS records"). The lookup side is deliberately
	// excluded from the timed region: exact expiry changes which lookups
	// hit (and thus how much CNAME-walk work a flow costs), which would
	// confound the insertion-rate measurement the appendix is about.
	// Best-of-three to damp scheduler noise.
	fillRate := func(v core.Variant, dns []stream.DNSRecord) (recsPerSec float64) {
		cfg := core.ConfigForVariant(v)
		cfg.ExactTTLSweepInterval = sweepInterval
		for rep := 0; rep < 3; rep++ {
			c := core.New(cfg, nil)
			start := time.Now()
			for i := range dns {
				c.IngestDNSBatch(dns[i : i+1])
			}
			elapsed := time.Since(start).Seconds()
			if t := float64(len(dns)) / elapsed; t > recsPerSec {
				recsPerSec = t
			}
		}
		return recsPerSec
	}

	// Interleaved (untimed) replay for the state-size, correlation and
	// sweep-work metrics: fills and lookups alternate in stream proportion,
	// so peak entries, the correlation rate and the entries the exact-TTL
	// sweeps scan per inserted record (a deterministic work count, unlike
	// the wall-clock throughput) reflect the two designs under the same
	// traffic.
	replay := func(v core.Variant, dns []stream.DNSRecord, flows []netflow.FlowRecord) (peakEntries int, corr, scanPerRec float64) {
		cfg := core.ConfigForVariant(v)
		cfg.ExactTTLSweepInterval = sweepInterval
		perDNS := len(flows) / max(1, len(dns))
		c := core.New(cfg, nil)
		fi := 0
		var out []core.CorrelatedFlow
		for i := 0; i < len(dns); i++ {
			c.IngestDNSBatch(dns[i : i+1])
			n := min(perDNS, len(flows)-fi)
			out = c.CorrelateBatch(out[:0], flows[fi:fi+n])
			fi += n
			if i%8192 == 0 {
				ip, cn := c.StoreSizes()
				if ip+cn > peakEntries {
					peakEntries = ip + cn
				}
			}
		}
		c.CorrelateBatch(out[:0], flows[fi:])
		st := c.Stats()
		return peakEntries, st.CorrelationRate(), ratio(float64(st.SweepScanned), float64(st.DNSRecords))
	}

	measure := func(v core.Variant) (recsPerSec float64, peakEntries int, corr, scanPerRec float64) {
		dns, flows := prep(20) // one workload generation per variant
		recsPerSec = fillRate(v, dns)
		peakEntries, corr, scanPerRec = replay(v, dns, flows)
		return recsPerSec, peakEntries, corr, scanPerRec
	}

	mainTput, mainPeak, mainCorr, mainScan := measure(core.VariantMain)
	ttlTput, ttlPeak, ttlCorr, ttlScan := measure(core.VariantExactTTL)

	// Offered rate: 95 % of what Main sustains. Main's implied loss is ~0;
	// the exact-TTL variant drops everything beyond its throughput.
	offered := 0.95 * mainTput
	impliedLoss := func(tput float64) float64 {
		if tput >= offered {
			return 0
		}
		return 1 - tput/offered
	}

	r := &Result{ID: "exactttl", Title: "Exact-TTL expiry vs Main under identical load"}
	r.addLine("%-10s %-16s %-14s %-12s %-10s", "variant", "throughput r/s", "implied loss", "peak entries", "corr")
	r.addLine("%-10s %-16.0f %-14.4f %-12d %-10.3f", "Main", mainTput, impliedLoss(mainTput), mainPeak, mainCorr)
	r.addLine("%-10s %-16.0f %-14.4f %-12d %-10.3f", "ExactTTL", ttlTput, impliedLoss(ttlTput), ttlPeak, ttlCorr)
	r.addLine("sweep entries scanned per inserted record: Main %.2f, ExactTTL %.2f", mainScan, ttlScan)
	r.set("main_scan_per_rec", mainScan)
	r.set("exactttl_scan_per_rec", ttlScan)
	r.set("main_tput", mainTput)
	r.set("exactttl_tput", ttlTput)
	r.set("main_loss", impliedLoss(mainTput))
	r.set("exactttl_loss", impliedLoss(ttlTput))
	r.set("tput_ratio", ratio(mainTput, ttlTput))
	r.set("entries_ratio", ratio(float64(ttlPeak), float64(mainPeak)))
	r.Headline = fmt.Sprintf("ExactTTL sustains %.1fx less throughput than Main (implied loss %.1f%% at Main-sustainable load)",
		ratio(mainTput, ttlTput), 100*impliedLoss(ttlTput))
	return r
}
