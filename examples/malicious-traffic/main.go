// Malicious-traffic accounting: the paper's §5 spam/invalid-domain use
// cases (Figure 5), computed by the online rollup subsystem.
//
// A day of correlated traffic flows through the rollup sink with a
// Spamhaus-DBL-style blocklist attached, so every flow is classified
// (spam, botnet C&C, abused redirector, malware, phish) as it passes the
// Write stage. The sealed windows are merged into a day view and the
// per-category traffic shares read straight off the rollup rows; RFC 1035
// malformation accounting reuses the same rows — the measurement the paper
// notes nobody had done before FlowDNS.
//
//	go run ./examples/malicious-traffic
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dbl"
	"repro/internal/dnsname"
	"repro/internal/rollup"
	"repro/internal/workload"
)

func main() {
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 7)
	c := core.New(core.DefaultConfig())

	// Hourly windows keyed by (service, DBL category): the universe's own
	// blocklist plays the role of the live DBL feed.
	engine := rollup.New(time.Hour, 4)
	sink := rollup.NewSink(engine, rollup.WithBlocklist(u.Blocklist))
	ctx := context.Background()

	// One simulated day; hourly guaranteed sessions keep the rare
	// categories visible at example scale (at ISP scale the Zipf tail
	// covers them naturally).
	start := time.Date(2022, 5, 25, 0, 0, 0, 0, time.UTC)
	nBad := u.Config().SuspiciousServices + u.Config().MalformedServices
	var out []core.CorrelatedFlow
	for h := 0; h < 24; h++ {
		ts := start.Add(time.Duration(h) * time.Hour)
		mult := workload.DiurnalMultiplier(float64(h))
		c.IngestDNSBatch(g.DNSBatch(ts, int(600*mult)))
		out = c.CorrelateBatch(out[:0], g.FlowBatch(ts, int(6000*mult)))
		if err := sink.WriteBatch(ctx, out); err != nil {
			log.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			recs, fl := g.SessionFor((h*8+k)%nBad, ts.Add(30*time.Minute), 1)
			c.IngestDNSBatch(recs)
			out = c.CorrelateBatch(out[:0], fl)
			if err := sink.WriteBatch(ctx, out); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Merge the sealed hourly windows into the day view; every report
	// below reads off its rows instead of re-scanning per-flow output.
	windows := engine.SealAll()
	if len(windows) == 0 {
		log.Fatal("no rollup windows sealed")
	}
	day := rollup.MergeAll(windows)

	// The paper samples domains hourly to respect DBL rate limits; rollup
	// rows are already unique per service, so the sampler dedups for free.
	sampler := dbl.NewSampler()
	catBytes := map[dbl.Category]uint64{}
	catDomains := map[dbl.Category]int{}
	report := dnsname.NewReport()
	violBytes := map[dnsname.Violation]uint64{}
	var total uint64
	for _, r := range day.Rows {
		if r.Service == "" {
			continue // uncorrelated traffic carries no domain to classify
		}
		total += r.Bytes
		if r.Category != dbl.Benign {
			catBytes[r.Category] += r.Bytes
			catDomains[r.Category]++
		}
		if sampler.Checked(r.Service) {
			report.Add(r.Service)
		}
		if v := dnsname.Check(r.Service); v != dnsname.OK {
			violBytes[v] += r.Bytes
		}
	}

	fmt.Printf("rollup: %d hourly windows merged, %d attribution keys\n\n",
		len(windows), len(day.Rows))
	fmt.Printf("unique correlated domains: %d (of which invalid: %.2f%%)\n",
		report.Total, 100*report.InvalidShare())
	fmt.Printf("underscore appears in %.0f%% of malformed names (paper: 87%%)\n\n",
		100*report.UnderscoreShare())

	fmt.Println("suspicious-domain traffic by DBL category:")
	for _, cat := range dbl.Categories() {
		fmt.Printf("  %-18s %3d domains  %12d bytes  %6.3f%% of traffic\n",
			cat, catDomains[cat], catBytes[cat], 100*float64(catBytes[cat])/float64(total))
	}

	fmt.Println("\nmalformed-domain traffic by violation:")
	type vrow struct {
		v dnsname.Violation
		b uint64
	}
	var rows []vrow
	for v, b := range violBytes {
		rows = append(rows, vrow{v, b})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].b > rows[j].b })
	for _, r := range rows {
		fmt.Printf("  %-18s %12d bytes  %6.3f%% of traffic\n",
			r.v, r.b, 100*float64(r.b)/float64(total))
	}
}
