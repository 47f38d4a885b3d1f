// Command replay correlates captured streams offline.
//
// The paper (§1) notes that when processing is done offline "the
// timestamps need to be taken into account and the two sources of data,
// namely Netflow and DNS records, need to be correlated in the window
// where the DNS record is still valid". This tool does exactly that: it
// merges a DNS capture and a flow capture by record timestamp and replays
// them through the correlator, whose clear-up clock advances on record
// time — so the offline result matches what the live system produced.
//
// Generate captures from the synthetic ISP, then correlate them:
//
//	replay -gen -hours 2 -dns-out dns.tsv -flows-out flows.tsv
//	replay -dns dns.tsv -flows flows.tsv -out correlated.tsv
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/netflow"
	"repro/internal/stream"
	"repro/internal/workload"
)

func main() {
	var (
		gen      = flag.Bool("gen", false, "generate synthetic captures instead of correlating")
		hours    = flag.Int("hours", 2, "capture length in simulated hours (with -gen)")
		dnsRate  = flag.Int("dns-rate", 1000, "DNS query events per simulated hour (with -gen)")
		flowRate = flag.Int("flow-rate", 10000, "flow records per simulated hour (with -gen)")
		seed     = flag.Int64("seed", 1, "generator seed (with -gen)")
		dnsPath  = flag.String("dns", "dns.tsv", "DNS capture path (input, or output with -gen)")
		flowPath = flag.String("flows", "flows.tsv", "flow capture path (input, or output with -gen)")
		dnsOut   = flag.String("dns-out", "", "alias for -dns when generating")
		flowsOut = flag.String("flows-out", "", "alias for -flows when generating")
		out      = flag.String("out", "-", "correlated output path ('-' = stdout)")
		variant  = flag.String("variant", "Main", "correlator variant")
		sinkName = flag.String("sink", "tsv", "output sink: tsv or json")
		batch    = flag.Int("batch-size", core.DefaultWriteBatchSize, "correlated flows per sink WriteBatch call")
	)
	flag.Parse()
	if *dnsOut != "" {
		*dnsPath = *dnsOut
	}
	if *flowsOut != "" {
		*flowPath = *flowsOut
	}

	if *gen {
		generate(*hours, *dnsRate, *flowRate, *seed, *dnsPath, *flowPath)
		return
	}
	correlate(*dnsPath, *flowPath, *out, core.Variant(*variant), *sinkName, *batch)
}

func generate(hours, dnsRate, flowRate int, seed int64, dnsPath, flowPath string) {
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, seed)

	dnsFile, err := os.Create(dnsPath)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	defer dnsFile.Close()
	flowFile, err := os.Create(flowPath)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	defer flowFile.Close()
	dw := stream.NewDNSFileWriter(dnsFile)
	fw := stream.NewFlowFileWriter(flowFile)

	start := time.Date(2022, 5, 25, 0, 0, 0, 0, time.UTC)
	const steps = 12
	var nDNS, nFlows int
	for h := 0; h < hours; h++ {
		mult := workload.DiurnalMultiplier(float64(h % 24))
		for s := 0; s < steps; s++ {
			ts := start.Add(time.Duration(h)*time.Hour + time.Duration(s)*time.Hour/steps)
			for _, rec := range g.DNSBatch(ts, int(float64(dnsRate)*mult)/steps) {
				if err := dw.Write(rec); err != nil {
					log.Fatalf("replay: %v", err)
				}
				nDNS++
			}
			for _, fr := range g.FlowBatch(ts, int(float64(flowRate)*mult)/steps) {
				if err := fw.Write(fr); err != nil {
					log.Fatalf("replay: %v", err)
				}
				nFlows++
			}
		}
	}
	if err := dw.Flush(); err != nil {
		log.Fatalf("replay: %v", err)
	}
	if err := fw.Flush(); err != nil {
		log.Fatalf("replay: %v", err)
	}
	log.Printf("replay: wrote %d DNS records to %s and %d flow records to %s",
		nDNS, dnsPath, nFlows, flowPath)
}

func correlate(dnsPath, flowPath, outPath string, variant core.Variant, sinkName string, batchSize int) {
	dnsFile, err := os.Open(dnsPath)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	defer dnsFile.Close()
	dns, err := stream.ReadDNSFile(dnsFile)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	flowFile, err := os.Open(flowPath)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	defer flowFile.Close()
	flows, err := stream.ReadFlowFile(flowFile)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}

	// Replay exists to produce an output file; writer-less sinks would
	// silently leave it empty.
	if !core.SinkNeedsWriter(sinkName) {
		log.Fatalf("replay: -sink must be a record-writing sink (e.g. tsv, json), not %q", sinkName)
	}
	w := os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		defer f.Close()
		w = f
	}
	sink, err := core.NewSinkByName(sinkName, core.SinkOptions{W: w})
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	c := core.New(core.ConfigForVariant(variant), core.WithSink(sink))

	// The replay is deterministic and synchronous (record-clock ordering),
	// but writes still go out in batches: correlated flows accumulate and
	// reach the sink through the same amortized WriteBatch path the live
	// Write workers use.
	if batchSize < 1 {
		batchSize = core.DefaultWriteBatchSize
	}
	ctx := context.Background()
	batch := make([]core.CorrelatedFlow, 0, batchSize)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := sink.WriteBatch(ctx, batch); err != nil {
			log.Fatalf("replay: %v", err)
		}
		batch = batch[:0]
	}
	start := time.Now()
	stream.MergeByTime(dns, flows,
		c.IngestDNSBatch,
		func(frs []netflow.FlowRecord) {
			batch = c.CorrelateBatch(batch, frs)
			if len(batch) >= batchSize {
				flush()
			}
		},
	)
	flush()
	if err := sink.Flush(); err != nil {
		log.Fatalf("replay: %v", err)
	}
	if err := sink.Close(); err != nil {
		log.Fatalf("replay: %v", err)
	}
	st := c.Stats()
	fmt.Fprintf(os.Stderr,
		"replay: %d DNS + %d flows in %v; correlation %.3f (bytes), tiers active=%d inactive=%d long=%d\n",
		st.DNSRecords, st.Flows, time.Since(start).Round(time.Millisecond),
		st.CorrelationRate(), st.HitActive, st.HitInactive, st.HitLong)
}
