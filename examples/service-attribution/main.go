// Service attribution: the paper's "Network Provisioning and Planning" use
// case (§5, Figure 4), computed by the online rollup subsystem.
//
// A day of synthetic ISP traffic is correlated and fed through the rollup
// sink with a BGP table attached, so every flow is attributed to
// (service, origin AS) as it passes the Write stage — no offline join. The
// hourly windows are then merged (rollup windows are merge-snapshots:
// associative, commutative, total-preserving) into the day view the paper
// charts: which origin ASes serve the top streaming services — the insight
// ISPs use "to negotiate with content providers over using ISP's resources
// instead of a third-party CDN" and to find fallback paths.
//
//	go run ./examples/service-attribution
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rollup"
	"repro/internal/workload"
)

func main() {
	// Build the synthetic ISP. Pin two streaming services the way the
	// paper's S1/S2 behave: S1 on a single CDN, S2 multi-CDN.
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 42)
	s1, s1idx := g.RankService(1)
	s2, s2idx := g.RankService(2)
	u.PinServiceToCDNs(s1idx, []int{0}, 4)
	u.PinServiceToCDNs(s2idx, []int{1, 2}, 4)

	table, err := u.BGPTable()
	if err != nil {
		log.Fatal(err)
	}
	table.Freeze() // build-then-read: rollup attribution only reads

	// Hourly rollup windows keyed by (service, origin AS); the sink
	// attributes each correlated flow inline.
	engine := rollup.New(time.Hour, 4)
	sink := rollup.NewSink(engine, rollup.WithTable(table))

	// Correlate one simulated day through the rollup sink.
	ctx := context.Background()
	c := core.New(core.DefaultConfig())
	start := time.Date(2022, 5, 25, 0, 0, 0, 0, time.UTC)
	var out []core.CorrelatedFlow
	for h := 0; h < 24; h++ {
		ts := start.Add(time.Duration(h) * time.Hour)
		mult := workload.DiurnalMultiplier(float64(h))
		c.IngestDNSBatch(g.DNSBatch(ts, int(800*mult)))
		out = c.CorrelateBatch(out[:0], g.FlowBatch(ts, int(8000*mult)))
		if err := sink.WriteBatch(ctx, out); err != nil {
			log.Fatal(err)
		}
	}

	// Seal the 24 hourly windows and merge them into the day view.
	windows := engine.SealAll()
	if len(windows) == 0 {
		log.Fatal("no rollup windows sealed")
	}
	day := rollup.MergeAll(windows)
	fmt.Printf("rollup: %d hourly windows merged, %d (service, AS) keys\n\n",
		len(windows), len(day.Rows))

	report := func(label, name string) {
		var svc []rollup.Row
		var total uint64
		for _, r := range day.Rows {
			if r.Service == name {
				svc = append(svc, r)
				total += r.Bytes
			}
		}
		sort.Slice(svc, func(i, j int) bool { return svc[i].Bytes > svc[j].Bytes })
		fmt.Printf("%s (%s): %d bytes total\n", label, name, total)
		for _, r := range svc {
			fmt.Printf("  AS%-6d %12d bytes  %5.1f%%\n",
				r.ASN, r.Bytes, 100*float64(r.Bytes)/float64(total))
		}
	}
	report("S1 single-CDN streaming service", s1.Name)
	report("S2 multi-CDN streaming service", s2.Name)

	// Fallback-path view: aggregate across all correlated services per
	// origin AS — what an operator inspects when a peering link breaks.
	perAS := map[uint32]uint64{}
	for _, r := range day.Rows {
		if r.Service != "" {
			perAS[r.ASN] += r.Bytes
		}
	}
	type asRow struct {
		asn uint32
		b   uint64
	}
	var rows []asRow
	for asn, b := range perAS {
		rows = append(rows, asRow{asn, b})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].b > rows[j].b })
	fmt.Println("\ntop origin ASes across all correlated traffic:")
	for i, r := range rows {
		if i >= 5 {
			break
		}
		fmt.Printf("  AS%d:%d\n", r.asn, r.b)
	}
}
